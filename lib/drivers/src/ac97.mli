(** Mini-C source of the AC'97 audio driver: [source] carries its seeded bugs,
    [fixed_source] repairs them. *)

val source : string
val fixed_source : string
