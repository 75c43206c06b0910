(** Mini-C source of the RTL8029 NIC driver: [source] carries its seeded bugs,
    [fixed_source] repairs them. *)

val source : string
val fixed_source : string
