(* Fault boundary and quarantine for the exploration engine.

   The DDT pitch is surviving pathological drivers, so the engine itself
   must survive its own faults: an exception escaping a state's step
   loop, a worker domain dying, or a solver budget running dry must not
   kill the session. The guard collects each such event as an [incident]
   — always carrying the offending state's replayable script, keeping
   the paper's "every finding comes with a trace" contract for engine
   faults too — and the engine routes around it (quarantine the state,
   respawn the worker, retry the query). *)

module Replay = Ddt_trace.Replay

type incident_kind =
  | Worker_crash       (* a worker domain's loop died; state requeued *)
  | State_fault        (* a state's own execution faulted; state retired *)
  | Solver_exhaustion  (* a solver budget ran out during a state's quantum *)

let kind_label = function
  | Worker_crash -> "worker-crash"
  | State_fault -> "state-fault"
  | Solver_exhaustion -> "solver-exhaustion"

type incident = {
  inc_kind : incident_kind;
  inc_worker : int;         (* frontier worker slot that hit the fault *)
  inc_state_id : int;       (* state in flight (0 = none attributable) *)
  inc_entry : string;       (* entry point the state was exploring *)
  inc_pc : int;             (* pc at quarantine time *)
  inc_message : string;     (* printed exception / exhaustion summary *)
  inc_replay : Replay.script;
}

(* Deterministic fault injection for the chaos harness. Periods count
   events on the engine's own atomics, so a single-worker run injects at
   exactly the same points every time. 0 disables an injection. *)
type chaos = {
  chaos_worker_crash_period : int;
      (* raise in the worker loop every Nth frontier pick *)
  chaos_solver_exhaust_period : int;
      (* force every Nth uncached group solve's first attempt Unknown *)
}

exception Chaos_crash

type t = {
  mu : Mutex.t;
  mutable incidents : incident list;
  solver_flagged : (int, unit) Hashtbl.t;
      (* state ids already carrying a solver-exhaustion incident, so a
         state that exhausts budgets on many quanta reports once *)
  restarts : int Atomic.t;
  crash_ticks : int Atomic.t;    (* chaos worker-crash ordinal *)
  chaos_solver_ticks : int Atomic.t;
}

let create () =
  {
    mu = Mutex.create ();
    incidents = [];
    solver_flagged = Hashtbl.create 16;
    restarts = Atomic.make 0;
    crash_ticks = Atomic.make 0;
    chaos_solver_ticks = Atomic.make 0;
  }

let record t inc =
  Mutex.lock t.mu;
  t.incidents <- inc :: t.incidents;
  Mutex.unlock t.mu

(* At most one solver incident per state: [true] means the caller owns
   the report for this state id. *)
let claim_solver_flag t id =
  Mutex.lock t.mu;
  let fresh = not (Hashtbl.mem t.solver_flagged id) in
  if fresh then Hashtbl.replace t.solver_flagged id ();
  Mutex.unlock t.mu;
  fresh

let incidents t =
  Mutex.lock t.mu;
  let l = t.incidents in
  Mutex.unlock t.mu;
  (* Deterministic report order regardless of which worker recorded
     first: by state id, then kind, then worker slot. *)
  List.sort
    (fun a b ->
      match compare a.inc_state_id b.inc_state_id with
      | 0 -> (
          match compare a.inc_kind b.inc_kind with
          | 0 -> compare a.inc_worker b.inc_worker
          | c -> c)
      | c -> c)
    l

let incident_count t =
  Mutex.lock t.mu;
  let n = List.length t.incidents in
  Mutex.unlock t.mu;
  n

let note_restart t = Atomic.incr t.restarts
let restarts t = Atomic.get t.restarts

(* Bounded exponential backoff before a worker restart: long enough to
   let a transient cause (allocation spike, co-scheduled domain) clear,
   short enough that the frontier never idles visibly. *)
let backoff attempt =
  Unix.sleepf (min 0.05 (0.002 *. float_of_int (1 lsl min attempt 8)))

(* Chaos triggers ------------------------------------------------------ *)

let maybe_crash t chaos =
  match chaos with
  | None -> ()
  | Some c ->
      if c.chaos_worker_crash_period > 0 then begin
        let n = Atomic.fetch_and_add t.crash_ticks 1 + 1 in
        if n mod c.chaos_worker_crash_period = 0 then raise Chaos_crash
      end

(* The solver-side injection closure handed to [Solver.set_chaos_exhaust]:
   fires on every Nth uncached group solve process-wide. *)
let solver_chaos_fn t chaos =
  match chaos with
  | Some c when c.chaos_solver_exhaust_period > 0 ->
      Some
        (fun () ->
          let n = Atomic.fetch_and_add t.chaos_solver_ticks 1 + 1 in
          n mod c.chaos_solver_exhaust_period = 0)
  | _ -> None

(* Fault classification ------------------------------------------------- *)

(* Exceptions the state-level boundary refuses to absorb: the chaos
   crash must reach the worker supervisor (that is the path under test),
   and a deliberate exit is not a fault. *)
let absorbable = function
  | Chaos_crash -> false
  | Stdlib.Exit -> false
  | _ -> true

(* Checkpointing ------------------------------------------------------- *)

(* Everything in the guard is data except the mutex, so a dump is a
   plain record. The incidents list keeps its recording order (newest
   first) so a resumed run's [incidents] sort sees the same multiset. *)
type dump = {
  gd_incidents : incident list;
  gd_solver_flagged : int list;
  gd_restarts : int;
  gd_crash_ticks : int;
  gd_chaos_solver_ticks : int;
}

let dump t =
  Mutex.lock t.mu;
  let incidents = t.incidents in
  let flagged = Hashtbl.fold (fun id () acc -> id :: acc) t.solver_flagged [] in
  Mutex.unlock t.mu;
  { gd_incidents = incidents;
    gd_solver_flagged = List.sort compare flagged;
    gd_restarts = Atomic.get t.restarts;
    gd_crash_ticks = Atomic.get t.crash_ticks;
    gd_chaos_solver_ticks = Atomic.get t.chaos_solver_ticks }

let restore t d =
  Mutex.lock t.mu;
  t.incidents <- d.gd_incidents;
  Hashtbl.reset t.solver_flagged;
  List.iter (fun id -> Hashtbl.replace t.solver_flagged id ()) d.gd_solver_flagged;
  Mutex.unlock t.mu;
  Atomic.set t.restarts d.gd_restarts;
  Atomic.set t.crash_ticks d.gd_crash_ticks;
  Atomic.set t.chaos_solver_ticks d.gd_chaos_solver_ticks

let describe exn =
  match exn with
  | Ddt_dvm.Interp.Fault (f, pc) ->
      Printf.sprintf "concrete interpreter fault at %#x: %s" pc
        (Ddt_dvm.Interp.string_of_fault f)
  | Stack_overflow -> "stack overflow"
  | Out_of_memory -> "out of memory"
  | Chaos_crash -> "injected worker crash (chaos)"
  | exn -> Printexc.to_string exn
