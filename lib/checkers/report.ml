type kind =
  | Memory_error
  | Segfault
  | Race_condition
  | Resource_leak
  | Lock_misuse
  | Kernel_crash
  | Infinite_loop

let string_of_kind = function
  | Memory_error -> "Memory corruption"
  | Segfault -> "Segmentation fault"
  | Race_condition -> "Race condition"
  | Resource_leak -> "Resource leak"
  | Lock_misuse -> "Lock misuse"
  | Kernel_crash -> "Kernel crash"
  | Infinite_loop -> "Infinite loop"

type severity = Dynamic | Static | Static_unconfirmed

let string_of_severity = function
  | Dynamic -> "dynamic"
  | Static -> "static"
  | Static_unconfirmed -> "static-unconfirmed"

type confirmation =
  | Not_applicable
  | Unconfirmed
  | Confirmed of string

type static_finding = {
  sf_rule : string;
  sf_func : string;
  sf_pos : int;
  sf_message : string;
  sf_confirm : confirmation;
}

let severity_of_static f =
  match f.sf_confirm with
  | Unconfirmed -> Static_unconfirmed
  | Not_applicable | Confirmed _ -> Static

let static_key f = Printf.sprintf "%s@%x:%s" f.sf_rule f.sf_pos f.sf_func

type bug = {
  b_kind : kind;
  b_driver : string;
  b_entry : string;
  b_pc : int;
  b_message : string;
  b_key : string;
  b_state_id : int;
  b_events : Ddt_trace.Event.t list;
  b_mem_accesses : int;
  b_choices : (string * string) list;
  b_with_interrupt : bool;
  b_replay : Ddt_trace.Replay.script;
}

(* Engine incidents: faults of the testing engine itself (worker
   crashes, quarantined states, solver budget exhaustions), quarantined
   by [Ddt_symexec.Guard] instead of killing the session. They are not
   driver findings — like static findings they live apart from the bug
   list so they can never perturb dynamic bug keys or ordering — but
   each carries a replayable script, extending the paper's
   "every finding comes with a trace" contract to engine faults. *)
type incident = Ddt_symexec.Guard.incident

type sink = {
  mutable found : bug list;    (* newest first *)
  seen : (string, unit) Hashtbl.t;
  mutable statics : static_finding list;   (* newest first *)
  statics_seen : (string, unit) Hashtbl.t;
  (* static findings live in their own list under the same lock: they
     carry the [Static] severity and never mix with the dynamic bug list,
     so their presence cannot perturb dynamic bug keys or ordering *)
  mu : Mutex.t;
  (* one sink collects from every checker on every frontier worker; the
     internal lock makes the check-and-add atomic so a bug key is
     admitted exactly once no matter which worker reports it first *)
}

let create_sink () =
  { found = []; seen = Hashtbl.create 16; statics = [];
    statics_seen = Hashtbl.create 16; mu = Mutex.create () }

(* The same defect is reached on many paths, and building a bug's
   replay script is a solver call: check the key first, build outside
   the lock, and insert only if no other worker got there meanwhile. *)
let report sink ~key mk =
  let seen () =
    Mutex.lock sink.mu;
    let r = Hashtbl.mem sink.seen key in
    Mutex.unlock sink.mu;
    r
  in
  if not (seen ()) then begin
    let bug = mk () in
    if bug.b_key <> key then invalid_arg "Report.report: key mismatch";
    Mutex.lock sink.mu;
    if not (Hashtbl.mem sink.seen key) then begin
      Hashtbl.add sink.seen key ();
      sink.found <- bug :: sink.found
    end;
    Mutex.unlock sink.mu
  end

let bugs sink =
  Mutex.lock sink.mu;
  let r = sink.found in
  Mutex.unlock sink.mu;
  List.rev r

let count sink =
  Mutex.lock sink.mu;
  let n = List.length sink.found in
  Mutex.unlock sink.mu;
  n

let report_static sink f =
  Mutex.lock sink.mu;
  let k = static_key f in
  if not (Hashtbl.mem sink.statics_seen k) then begin
    Hashtbl.add sink.statics_seen k ();
    sink.statics <- f :: sink.statics
  end;
  Mutex.unlock sink.mu

let static_findings sink =
  Mutex.lock sink.mu;
  let r = sink.statics in
  Mutex.unlock sink.mu;
  List.rev r

let confirm_statics sink f =
  Mutex.lock sink.mu;
  sink.statics <-
    List.map (fun sf -> { sf with sf_confirm = f sf }) sink.statics;
  Mutex.unlock sink.mu

let clear sink =
  Mutex.lock sink.mu;
  sink.found <- [];
  Hashtbl.reset sink.seen;
  sink.statics <- [];
  Hashtbl.reset sink.statics_seen;
  Mutex.unlock sink.mu

let pp_bug fmt b =
  Format.fprintf fmt "[%s] %s in %s (entry %s, pc 0x%x)%s@.    %s"
    (string_of_kind b.b_kind) b.b_driver
    (match b.b_choices with
     | [] -> "default path"
     | cs ->
         String.concat ", " (List.map (fun (k, v) -> k ^ "=" ^ v) cs))
    b.b_entry b.b_pc
    (if b.b_with_interrupt then " [under symbolic interrupt]" else "")
    b.b_message

let pp_static_finding fmt f =
  let tag =
    match f.sf_confirm with
    | Not_applicable -> "static"
    | Unconfirmed -> "static, unconfirmed"
    | Confirmed _ -> "static, CONFIRMED"
  in
  Format.fprintf fmt "[%s:%s] %s%s@.    %s%s" tag f.sf_rule
    (if f.sf_func = "" then "" else f.sf_func ^ " ")
    (Printf.sprintf "at 0x%x" f.sf_pos)
    f.sf_message
    (match f.sf_confirm with
     | Confirmed key ->
         Printf.sprintf "\n    confirmed dynamically by %s" key
     | _ -> "")

let pp_incident fmt (i : incident) =
  let open Ddt_symexec.Guard in
  if i.inc_state_id = 0 then
    Format.fprintf fmt "[engine:%s] worker %d@.    %s" (kind_label i.inc_kind)
      i.inc_worker i.inc_message
  else
    Format.fprintf fmt
      "[engine:%s] state %d (entry %s, pc 0x%x, worker %d)@.    %s@.    \
       replay: %d input(s), %d choice(s)"
      (kind_label i.inc_kind) i.inc_state_id i.inc_entry i.inc_pc i.inc_worker
      i.inc_message
      (List.length i.inc_replay.Ddt_trace.Replay.rs_inputs)
      (List.length i.inc_replay.Ddt_trace.Replay.rs_choices)

let pp_summary fmt sink =
  Format.fprintf fmt "%-18s %-18s %s@." "Tested Driver" "Bug Type" "Description";
  List.iter
    (fun b ->
      Format.fprintf fmt "%-18s %-18s %s@." b.b_driver
        (string_of_kind b.b_kind) b.b_message)
    (bugs sink)
