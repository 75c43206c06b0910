(** Mini-C sources of the SDV sample driver (eight seeded API-rule
    defects), its fixed variant, and the five one-bug synthetic drivers. *)

val source : string
val fixed_source : string
val synthetic_deadlock : string
val synthetic_out_of_order : string
val synthetic_extra_release : string
val synthetic_forgotten_release : string
val synthetic_wrong_irql : string
