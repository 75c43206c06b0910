(* Fault boundary and quarantine for the exploration engine.

   The DDT pitch is surviving pathological drivers, so a path whose
   execution faults must not kill the session: an exception escaping a
   state's step loop retires that state, and a solver verdict left
   Unknown is noted against the state that asked. The guard collects
   each such event as an [incident], always carrying the offending
   state's replayable script, keeping the paper's "every finding comes
   with a trace" contract for engine faults too. A fault outside any
   state is an engine bug and ends the session instead. *)

module Replay = Ddt_trace.Replay

type incident_kind =
  | State_fault        (* a state's own execution faulted; state retired *)
  | Solver_exhaustion  (* a verdict stayed Unknown during a state's quantum *)

let kind_label = function
  | State_fault -> "state-fault"
  | Solver_exhaustion -> "solver-exhaustion"

type incident = {
  inc_kind : incident_kind;
  inc_state_id : int;       (* state in flight *)
  inc_entry : string;       (* entry point the state was exploring *)
  inc_pc : int;             (* pc at quarantine time *)
  inc_message : string;     (* printed exception / Unknown summary *)
  inc_replay : Replay.script;
}

type t = {
  mutable incidents : incident list;
  solver_flagged : (int, unit) Hashtbl.t;
      (* state ids already carrying a solver-exhaustion incident, so a
         state that meets Unknown verdicts on many quanta reports once *)
}

let create () = { incidents = []; solver_flagged = Hashtbl.create 16 }

let record t inc = t.incidents <- inc :: t.incidents

(* At most one solver incident per state: [true] means the caller owns
   the report for this state id. *)
let claim_solver_flag t id =
  let fresh = not (Hashtbl.mem t.solver_flagged id) in
  if fresh then Hashtbl.replace t.solver_flagged id ();
  fresh

(* Report order: by state id, then kind. *)
let incidents t =
  List.sort
    (fun a b ->
      match compare a.inc_state_id b.inc_state_id with
      | 0 -> compare a.inc_kind b.inc_kind
      | c -> c)
    t.incidents

let describe exn =
  match exn with
  | Stack_overflow -> "stack overflow"
  | Out_of_memory -> "out of memory"
  | exn -> Printexc.to_string exn
