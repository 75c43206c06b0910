(** Mini-C source of the AudioPCI audio driver: [source] carries its seeded bugs,
    [fixed_source] repairs them. *)

val source : string
val fixed_source : string
