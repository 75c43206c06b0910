(** Mini-C source of the deep-loop poller driver: [source] carries its seeded bugs,
    [fixed_source] repairs them. *)

val source : string
val fixed_source : string
