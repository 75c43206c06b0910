(** Fault boundary and quarantine for the exploration engine.

    DDT's value proposition is surviving pathological drivers, so one
    faulting path must not end the session: an exception escaping a
    state's step loop, or a solver verdict left Unknown during its
    quantum, is collected here as an {!incident} — always with the
    offending state's replayable {!Ddt_trace.Replay.script}, extending
    the paper's "every finding comes with a trace" contract to engine
    faults. The state is retired and exploration goes on. A fault
    outside any state's step loop is an engine bug: it is not recorded
    here, it ends the session.

    A guard instance belongs to one engine; [Exec] creates it and
    records into it, [Session] reads {!incidents} into the report. *)

type incident_kind =
  | State_fault
      (** the state's own execution faulted (an exception from the
          engine's step loop, stack overflow, out of memory, a hook or
          checker exception); the state is retired, its script
          quarantined *)
  | Solver_exhaustion
      (** a solver verdict stayed Unknown during the state's quantum (at
          most one incident per state) *)

val kind_label : incident_kind -> string

type incident = {
  inc_kind : incident_kind;
  inc_state_id : int;   (** state in flight *)
  inc_entry : string;   (** entry point the state was exploring *)
  inc_pc : int;         (** program counter at quarantine time *)
  inc_message : string;
  inc_replay : Ddt_trace.Replay.script;
}

type t

val create : unit -> t
val record : t -> incident -> unit

val claim_solver_flag : t -> int -> bool
(** [claim_solver_flag t state_id] is [true] exactly once per state id —
    the caller then owns that state's single solver-exhaustion
    incident. *)

val incidents : t -> incident list
(** All incidents so far, sorted by (state id, kind). *)

val describe : exn -> string
