(** The kernel API dispatch table.

    Driver [Kcall]s land here by import name. Implementations are
    registered once per process (they are stateless; all mutable state
    lives in {!Kstate}). DDT's interface annotations (§3.4) run around
    {!call}, in the engine's kernel-call hooks. *)

type impl = Kstate.t -> Mach.t -> unit

val register : string -> impl -> unit
val find : string -> impl option

val call : Kstate.t -> Mach.t -> string -> unit
(** Dispatch one kernel call and count it ({!Kstate.kcall_count}).
    @raise Failure on an unknown import.
    @raise Bugcheck.Bugcheck when the call crashes the kernel. *)
