module St = Ddt_symexec.Symstate

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

let of_state ?replay (st : St.t) ~kind ~driver ~key ~pc message =
  {
    b_kind = kind;
    b_driver = driver;
    b_entry = st.St.entry_name;
    b_pc = pc;
    b_message = message;
    b_key = key;
    b_state_id = st.St.id;
    b_events = st.St.trace;
    b_mem_accesses = st.St.mem_accesses;
    b_choices = st.St.choices;
    b_with_interrupt = st.St.injections > 0;
    b_replay =
      (match replay with
       | Some r -> r
       | None -> Ddt_symexec.Exec.replay_script st);
  }

(* Engine incidents: faults of the testing engine itself (a faulting
   state, a solver verdict left Unknown), quarantined by
   [Ddt_symexec.Guard] instead of killing the session. They are not
   driver findings — they live apart from the bug list so they can never
   perturb bug keys or ordering — but each carries its state's
   replayable script, extending the paper's "every finding comes with a
   trace" contract to engine faults. *)
type incident = Ddt_symexec.Guard.incident

type sink = {
  driver : string;
  mutable found : bug list;    (* newest first *)
  seen : (string, unit) Hashtbl.t;  (* keys of [found] *)
}

let create_sink ~driver = { driver; found = []; seen = Hashtbl.create 16 }
let driver sink = sink.driver

(* The same defect is reached on many paths, and building a bug's
   replay script is a solver call: check the key first and build only a
   new bug. *)
let report sink ~key mk =
  if not (Hashtbl.mem sink.seen key) then begin
    let bug = mk () in
    if bug.b_key <> key then invalid_arg "Report.report: key mismatch";
    Hashtbl.add sink.seen key ();
    sink.found <- bug :: sink.found
  end

let bugs sink = List.rev sink.found
let count sink = List.length sink.found

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

let pp_incident fmt (i : incident) =
  let open Ddt_symexec.Guard in
  Format.fprintf fmt
    "[engine:%s] state %d (entry %s, pc 0x%x)@.    %s@.    \
     replay: %d input(s), %d choice(s)"
    (kind_label i.inc_kind) i.inc_state_id i.inc_entry i.inc_pc i.inc_message
    (List.length i.inc_replay.Ddt_trace.Replay.rs_inputs)
    (List.length i.inc_replay.Ddt_trace.Replay.rs_choices)
