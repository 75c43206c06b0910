(** Fault boundary and quarantine for the exploration engine.

    DDT's value proposition is surviving pathological drivers, so the
    engine must survive its own faults too: an exception escaping a
    state's step loop, a dying worker domain, or an exhausted solver
    budget is collected here as an {!incident} — always with the
    offending state's replayable {!Ddt_trace.Replay.script}, extending
    the paper's "every finding comes with a trace" contract to engine
    faults — while the engine routes around it (the state is
    quarantined, the worker restarted, the query retried).

    A guard instance belongs to one engine; [Exec] creates it and
    records into it, [Session] reads {!incidents} into the report. *)

type incident_kind =
  | Worker_crash
      (** a worker domain's loop died between picking a state and
          finishing its quantum; the state itself was intact, so a
          snapshot is quarantined and the state requeued *)
  | State_fault
      (** the state's own execution faulted (interpreter fault, stack
          overflow, out of memory, a checker exception); the state is
          retired, its script quarantined *)
  | Solver_exhaustion
      (** a solver budget ran out during the state's quantum (at most
          one incident per state) *)

val kind_label : incident_kind -> string

type incident = {
  inc_kind : incident_kind;
  inc_worker : int;     (** frontier worker slot that hit the fault *)
  inc_state_id : int;   (** state in flight; [0] when none attributable *)
  inc_entry : string;   (** entry point the state was exploring *)
  inc_pc : int;         (** program counter at quarantine time *)
  inc_message : string;
  inc_replay : Ddt_trace.Replay.script;
}

(** {1 Chaos / fault injection}

    Deterministic triggers for the chaos harness: each period counts
    events on the guard's own atomics, so a single-worker run injects at
    exactly the same points on every execution. [0] disables the
    corresponding injection. *)

type chaos = {
  chaos_worker_crash_period : int;
      (** raise {!Chaos_crash} in the worker loop every Nth pick *)
  chaos_solver_exhaust_period : int;
      (** force every Nth uncached group solve's first attempt to report
          budget exhaustion (the escalated retry then recovers it) *)
}

exception Chaos_crash
(** The injected worker fault. The state-level boundary deliberately
    does not absorb it — it must reach the worker supervisor, which is
    the recovery path under test. *)

type t

val create : unit -> t
val record : t -> incident -> unit

val claim_solver_flag : t -> int -> bool
(** [claim_solver_flag t state_id] is [true] exactly once per state id —
    the caller then owns that state's single solver-exhaustion
    incident. *)

val incidents : t -> incident list
(** All incidents so far, sorted by (state id, kind, worker) so the
    report order does not depend on worker interleaving. *)

val incident_count : t -> int

val note_restart : t -> unit
val restarts : t -> int
(** Worker-loop restarts performed by the supervisor. *)

val backoff : int -> unit
(** [backoff attempt] sleeps 2ms·2{^attempt}, capped at 50ms. *)

val maybe_crash : t -> chaos option -> unit
(** Advance the pick ordinal and raise {!Chaos_crash} when the chaos
    worker-crash period divides it. *)

val solver_chaos_fn : t -> chaos option -> (unit -> bool) option
(** The injection closure to install via
    [Ddt_solver.Solver.set_chaos_exhaust]. *)

val absorbable : exn -> bool
(** Whether the state-level fault boundary may absorb this exception
    ({!Chaos_crash} and [Stdlib.Exit] must propagate). *)

val describe : exn -> string

(** {1 Checkpointing}

    Everything in the guard is marshal-safe data once the mutex is
    projected away; a dump carries the incident list (recording order),
    the per-state solver-exhaustion flags and the counters. *)

type dump = {
  gd_incidents : incident list;
  gd_solver_flagged : int list;
  gd_restarts : int;
  gd_crash_ticks : int;
  gd_chaos_solver_ticks : int;
}

val dump : t -> dump

val restore : t -> dump -> unit
(** Replace a fresh guard's contents with the dump's. *)
