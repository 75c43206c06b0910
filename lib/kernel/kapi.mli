(** The kernel API dispatch table.

    Driver [Kcall]s land here by import name. Implementations are
    registered once per process (they are stateless; all mutable state
    lives in {!Kstate}). The [call] wrapper counts the call and runs
    the annotation hooks the caller supplies — DDT's interface
    annotations (§3.4) attach at exactly these two points. *)

type impl = Kstate.t -> Mach.t -> unit

val register : string -> impl -> unit
val find : string -> impl option

val call :
  ?pre:(string -> Kstate.t -> Mach.t -> unit) ->
  ?post:(string -> Kstate.t -> Mach.t -> unit) ->
  Kstate.t -> Mach.t -> string -> unit
(** Dispatch one kernel call. @raise Failure on an unknown import.
    @raise Bugcheck.Bugcheck when the call crashes the kernel. *)
