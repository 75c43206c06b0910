module Expr = Ddt_solver.Expr
module Simplify = Ddt_solver.Simplify
module Solver = Ddt_solver.Solver
module Isa = Ddt_dvm.Isa
module Layout = Ddt_dvm.Layout
module Image = Ddt_dvm.Image
module Mem = Ddt_dvm.Mem
module Kstate = Ddt_kernel.Kstate
module Mach = Ddt_kernel.Mach
module Kapi = Ddt_kernel.Kapi
module Intr = Ddt_kernel.Intr
module Bugcheck = Ddt_kernel.Bugcheck
module Event = Ddt_trace.Event
module Replay = Ddt_trace.Replay
module St = Symstate

(* Cap on simultaneously queued states. *)
let max_states = 512

(* Instructions per scheduling slice. *)
let quantum = 2_000

(* Symbolic interrupts injected per path. *)
let max_injections = 1

(* Restarts granted to a worker that keeps crashing without making
   progress (the counter resets once the worker completes a pick). *)
let max_worker_restarts = 3

type config = {
  max_steps_per_state : int;
  inject_interrupts : bool;
  concrete_hardware : bool;
  (** route device reads to the concrete MMIO hooks instead of minting
      symbolic values — used by the stress baseline *)
  strategy : Sched.strategy;
  jobs : int;
  (** worker domains exploring this engine's frontier cooperatively
      (1 = the classic sequential loop) *)
  static_guidance : bool;
  (** let the static pre-analysis steer scheduling: the session installs
      a distance-to-uncovered function ({!set_distance_fn}) that keys the
      [Min_dist] strategy and tiebreaks [Min_touch]. Off by default — the
      engine then behaves exactly as before. *)
  chaos : Guard.chaos option;
  (** deterministic fault injection for the chaos harness; [None] (the
      default) injects nothing *)
  state_merging : bool;
  (** fuse sibling states back together at branch post-dominators
      ({!Merge}): a symbolic fork whose arms reconverge — per the
      merge-point map the session installs ({!set_merge_points}) — parks
      both arms at the join and lifts their register/memory differences
      to [ite]s over the disjoined path conditions, collapsing the fork
      subtree into one state. On by default; replay runs never merge (a
      script follows exactly one concrete path). *)
}

let default_config =
  {
    max_steps_per_state = 200_000;
    inject_interrupts = true;
    concrete_hardware = false;
    strategy = Sched.Min_touch;
    jobs = 1;
    static_guidance = false;
    chaos = None;
    state_merging = true;
  }

type mem_access = {
  ma_state : St.t;
  ma_pc : int;
  ma_write : bool;
  ma_addr : Expr.t;
  ma_conc : int;
  ma_width : int;
  ma_constraints : Expr.t list;
  ma_sp : int;
}

(* The resource picture the governor is shown (see [set_governor]): the
   engine samples it every 64 picks alongside the existing live-words
   accounting, so governance costs nothing measurable on the hot path. *)
type pressure = {
  pr_live_states : int;
  pr_cow_depth : int;
  pr_live_words : int;
}

type engine = {
  cfg : config;
  base_mem : Mem.t;
  img : Image.loaded;
  symdev : Ddt_hw.Symdev.t;
  block_addrs : int array;                  (* dense id -> abs leader, sorted *)
  leader_ids : int array;
  (* text slot -> dense id of the block starting there, or -1; see
     [block_id]. Read-only after create. *)
  covered : int Atomic.t array;
  (* first-cover claim flags by dense id: compare-and-set 0->1 decides,
     engine-wide and lock-free, which worker covered a block first *)
  counts : int Atomic.t array;
  (* block-execution counts by dense id. [note_block] is the hottest path
     in the engine, so a count is one lock-free increment, visible to
     every worker's scheduler at once. *)
  dist_fn : (int -> int) ref;
  (* distance-to-uncovered oracle (absolute pc); the default returns 0
     everywhere, which makes the priority formulas collapse to the
     classic Min_touch ordering *)
  glock : Mutex.t;
  (* protects the tables and lists below; hooks are invoked OUTSIDE it so
     callbacks may call back into the engine (e.g. [stats]) *)
  injected_sites_global : (int, unit) Hashtbl.t;
  mutable done_states : St.t list;
  mutable lineage : (int * int * string * int) list;
  frontier : Frontier.t;
  next_id : int Atomic.t;
  total_steps : int Atomic.t;
  states_created : int Atomic.t;
  max_cow_depth : int Atomic.t;
  peak_live_words : int Atomic.t;
  picks : int Atomic.t;
  last_new_block_step : int Atomic.t;
  mutable on_mem_access : mem_access -> unit;
  mutable on_state_done : St.t -> unit;
  mutable on_new_block : St.t -> int -> unit;
  mutable annot_pre : string -> Kstate.t -> Mach.t -> unit;
  mutable annot_post : string -> Kstate.t -> Mach.t -> unit;
  mutable kcall_enter : St.t -> string -> Mach.t -> unit;
  mutable kcall_leave : St.t -> string -> Mach.t -> unit;
  mutable replay : Replay.script option;
  pool : Merge.t;
  (* merge-token pool: parked arms, per-branch merge history, counters *)
  mutable merge_points : int -> int option;
  (* absolute block leader -> absolute reconvergence pc. The default maps
     nothing, so no token ever opens; the session installs the
     post-dominator map ({!Ddt_staticx.Pdom}) when [cfg.state_merging]. *)
  guard_st : Guard.t;
  soft_retired : int Atomic.t;
  rehomed : int Atomic.t;
  (* states rescued from a dead worker's queue by the reaper *)
  mutable governor : (pressure -> int) option;
  (* returns how many queued states to concretize-and-retire now *)
  mutable checkpoint_hook : (unit -> unit) option;
  (* called by worker 0 at pick boundaries (only when [jobs = 1], the
     one configuration where a pick boundary is a quiescent point); the
     session's checkpointer decides its own cadence inside the hook *)
  mutable run_start_steps : int;
  (* [run]'s budget baseline ([total_steps] at entry); persisted in
     checkpoints so a resumed run charges the same budget window *)
  priority_fn : St.t -> int;
  (* the frontier's priority function, kept for governor victim ranking *)
  solver_base : Solver.stats;
  (* snapshot at creation; [stats] reports the delta, i.e. the solver
     work attributable to this engine. The counters are process-global,
     so the delta is only exact while no other engine runs concurrently
     in the same process. *)
}

(* Atomic max for report-only high-water marks. *)
let rec amax a v =
  let cur = Atomic.get a in
  if v > cur && not (Atomic.compare_and_set a cur v) then amax a v

(* Which frontier worker the current domain is: the spawning main domain
   is worker 0, spawned explorers set their slot at startup. Threading an
   explicit worker context through every fork/retire call site would
   touch the whole interpreter; domain-local state is equivalent because
   a domain serves exactly one worker slot per [run]. *)
let worker_key : int Domain.DLS.key = Domain.DLS.new_key (fun () -> 0)

exception Discard_state of string
exception Fork_alts of (string * (Mach.t -> unit)) list
exception Vm_crash of string * string

(* The state reached its innermost merge token's reconvergence pc and
   parked in the pool: it is no longer this worker's to requeue or
   retire. Unwinds [step_quantum] only. *)
exception Parked

(* Dense id of the block starting at [pc], or -1. The id is looked up by
   text slot, like [Image.code]: off-text and misaligned pcs (a wild
   indirect jump) are never leaders. *)
let block_id (img : Image.loaded) leader_ids pc =
  let off = pc - img.Image.text_start in
  if off < 0 || off land (Isa.instr_size - 1) <> 0 then -1
  else
    let slot = off / Isa.instr_size in
    if slot < Array.length leader_ids then leader_ids.(slot) else -1

let create ?(config = default_config) img base_mem symdev =
  Ddt_kernel.Ndis.install ();
  Ddt_kernel.Portcls.install ();
  Ddt_kernel.Usb.install ();
  (* Every engine starts from a cold, fully accelerated query cache, so
     in-process sessions never see each other's cached answers. *)
  Solver.set_accel Solver.default_accel;
  (* Disasm's leaders all lie inside the text section; keep the
     slot-aligned ones, the only pcs [fetch] serves from [Image.code]. *)
  let nslots = Array.length img.Image.code in
  let block_addrs =
    Array.of_list
      (List.filter_map
         (fun off ->
           if off land (Isa.instr_size - 1) = 0 && off / Isa.instr_size < nslots
           then Some (img.Image.text_start + off)
           else None)
         (Ddt_dvm.Disasm.basic_block_starts img.Image.image))
  in
  let leader_ids = Array.make nslots (-1) in
  Array.iteri
    (fun i a -> leader_ids.((a - img.Image.text_start) / Isa.instr_size) <- i)
    block_addrs;
  let nblocks = max 1 (Array.length block_addrs) in
  let covered = Array.init nblocks (fun _ -> Atomic.make 0) in
  let counts = Array.init nblocks (fun _ -> Atomic.make 0) in
  let dist_fn = ref (fun (_ : int) -> 0) in
  (* A state is scheduled by its current block, and the block's priority
     combines how often it has run (the EXE-style Min_touch count) with
     the static distance from it to uncovered code. Both components are
     monotone non-decreasing over a session — counts only grow, and
     covering blocks only removes shortest-path sources — which is what
     the lazy min-heap requires. The frontier calls this from inside its
     queue locks, so it takes no lock of its own. *)
  let key st = if st.St.last_block <> 0 then st.St.last_block else st.St.pc in
  let priority block =
    let id = block_id img leader_ids block in
    let c = if id < 0 then 0 else Atomic.get counts.(id) in
    match config.strategy with
    | Sched.Min_dist -> (min (!dist_fn block) 0x3FFFFF * 4096) + min c 4095
    | _ -> (c * 4096) + min (!dist_fn block) 4095
  in
  let frontier =
    Frontier.create ~workers:(max 1 config.jobs) ~max_states
      ~strategy:config.strategy ~key ~priority
  in
  let guard_st = Guard.create () in
  (* Install (or clear) the solver-side chaos injection for this engine;
     like [set_accel] above this is a process-wide switch. *)
  Solver.set_chaos_exhaust (Guard.solver_chaos_fn guard_st config.chaos);
  {
    cfg = config;
    base_mem;
    img;
    symdev;
    block_addrs;
    leader_ids;
    covered;
    counts;
    dist_fn;
    glock = Mutex.create ();
    injected_sites_global = Hashtbl.create 64;
    done_states = [];
    lineage = [];
    frontier;
    next_id = Atomic.make 0;
    total_steps = Atomic.make 0;
    states_created = Atomic.make 0;
    max_cow_depth = Atomic.make 0;
    peak_live_words = Atomic.make 0;
    picks = Atomic.make 0;
    last_new_block_step = Atomic.make 0;
    on_mem_access = (fun _ -> ());
    on_state_done = (fun _ -> ());
    on_new_block = (fun _ _ -> ());
    annot_pre = (fun _ _ _ -> ());
    annot_post = (fun _ _ _ -> ());
    kcall_enter = (fun _ _ _ -> ());
    kcall_leave = (fun _ _ _ -> ());
    replay = None;
    pool = Merge.create ();
    merge_points = (fun _ -> None);
    guard_st;
    soft_retired = Atomic.make 0;
    rehomed = Atomic.make 0;
    governor = None;
    checkpoint_hook = None;
    run_start_steps = 0;
    priority_fn = (fun st -> priority (key st));
    solver_base = Solver.stats ();
  }

let config eng = eng.cfg
let loaded eng = eng.img
let set_on_mem_access eng f = eng.on_mem_access <- f
let set_on_state_done eng f = eng.on_state_done <- f
let set_on_new_block eng f = eng.on_new_block <- f

let set_annotations eng ~pre ~post =
  eng.annot_pre <- pre;
  eng.annot_post <- post

let set_kcall_hooks eng ~enter ~leave =
  eng.kcall_enter <- enter;
  eng.kcall_leave <- leave

let set_replay eng script = eng.replay <- Some script
let set_distance_fn eng f = eng.dist_fn := f
let set_merge_points eng f = eng.merge_points <- f
let set_governor eng f = eng.governor <- Some f
let set_checkpoint_hook eng f = eng.checkpoint_hook <- Some f
let run_start eng = eng.run_start_steps
let incidents eng = Guard.incidents eng.guard_st
let worker_restarts eng = Guard.restarts eng.guard_st
let soft_retired eng = Atomic.get eng.soft_retired
let rehomed_states eng = Atomic.get eng.rehomed

(* --- state management -------------------------------------------------- *)

let install_sym_hook eng st =
  Symmem.set_sym_read_hook st.St.mem (fun name var ->
      st.St.sym_inputs <- (var, "device read") :: st.St.sym_inputs;
      St.record st (Event.E_sym_create { name; origin = "device read"; var });
      match eng.replay with
      | None -> ()
      | Some _ -> (
          match st.St.replay_inputs with
          | (n, v) :: rest when n = name ->
              st.St.replay_inputs <- rest;
              let pin = Expr.cmp Expr.Eq (Expr.var var) (Expr.byte v) in
              st.St.pinned <- pin :: st.St.pinned;
              St.add_constraint st pin
          | _ -> ()))

let new_root_state eng ks =
  let id = Atomic.fetch_and_add eng.next_id 1 + 1 in
  Atomic.incr eng.states_created;
  let mem =
    Symmem.create ~base:eng.base_mem
      ~symdev:(if eng.cfg.concrete_hardware then None else Some eng.symdev)
  in
  let st = St.create ~id ~mem ~ks in
  (match eng.replay with
   | Some script ->
       st.St.replay_inputs <- script.Replay.rs_inputs;
       st.St.replay_choices <- script.Replay.rs_choices
   | None -> ());
  install_sym_hook eng st;
  st

let fork_state eng st =
  let id = Atomic.fetch_and_add eng.next_id 1 + 1 in
  Atomic.incr eng.states_created;
  let child = St.fork st ~id in
  install_sym_hook eng child;
  install_sym_hook eng st;
  (* Forking moved the parent to a fresh COW leaf too; re-binding the hook
     keeps symbolic-read events attributed to the right state. *)
  amax eng.max_cow_depth (Symmem.chain_depth child.St.mem);
  (* The child inherited the parent's merge tags ([St.fork] shares the
     list): every open token the parent carries gains a live carrier, and
     forks by a state that absorbed siblings count as forks avoided. *)
  Merge.note_fork eng.pool st child;
  (* [St.fork] copied the parent's [last_block], so the child's scheduling
     priority starts from the fork point without any shared table. *)
  child

let replay_script ?(extra = []) ?constraints (st : St.t) =
  let base_constraints =
    match constraints with Some cs -> cs | None -> st.St.constraints
  in
  let model =
    match Solver.check (extra @ base_constraints) with
    | Solver.Sat m -> m
    | Solver.Unsat | Solver.Unknown -> (
        (* The extra witness constraints may be unsatisfiable together
           with the path; fall back to the plain path condition. *)
        match Solver.check st.St.constraints with
        | Solver.Sat m -> m
        | Solver.Unsat | Solver.Unknown -> fun _ -> 0)
  in
  {
    Replay.rs_inputs =
      List.rev_map (fun (var, _) -> (var.Expr.name, model var)) st.St.sym_inputs;
    rs_choices = List.rev st.St.choices;
    rs_inject_sites = List.rev st.St.injected_sites;
    rs_entry = st.St.entry_name;
  }

(* A quarantined state's script must never raise — the guard paths call
   this while already handling a fault. *)
let safe_replay_script st =
  try replay_script st
  with _ ->
    { Replay.rs_inputs = []; rs_choices = []; rs_inject_sites = [];
      rs_entry = st.St.entry_name }

let rec retire eng st status ~report =
  (* A dying carrier releases every merge token it holds; the last
     carrier out triggers the fold, whose survivors go back to the
     frontier and whose absorbed states retire (recursively) below. The
     pool call is a lock-free no-op while merging has never been used. *)
  handle_merge_outcome eng (Merge.note_dead eng.pool st);
  st.St.status <- Some status;
  Mutex.lock eng.glock;
  eng.lineage <-
    (st.St.id, st.St.parent_id,
     Format.asprintf "%s: %a" st.St.entry_name St.pp_status status,
     st.St.forks)
    :: eng.lineage;
  if report then eng.done_states <- st :: eng.done_states;
  Mutex.unlock eng.glock;
  (* The hook runs outside the lock so checkers may call [stats] etc.;
     Session serializes its own accounting. A checker exception is an
     engine fault, not a driver finding: it is quarantined as an
     incident (with the state's script) instead of unwinding the
     worker. *)
  if report then begin
    try eng.on_state_done st
    with exn when Guard.absorbable exn ->
      Guard.record eng.guard_st
        {
          Guard.inc_kind = Guard.State_fault;
          inc_worker = Domain.DLS.get worker_key;
          inc_state_id = st.St.id;
          inc_entry = st.St.entry_name;
          inc_pc = st.St.pc;
          inc_message = "checker exception: " ^ Guard.describe exn;
          inc_replay = safe_replay_script st;
        }
  end

(* Apply a fold's results outside the pool lock: absorbed states are
   gone (their paths live on as the ite-lifted survivor), survivors go
   back to the frontier. Runs while the triggering worker's in-flight
   slot is still held, so the frontier can never look quiescent between
   a park/death and the requeue of the fold's survivors. *)
and handle_merge_outcome eng mo =
  List.iter
    (fun s ->
      retire eng s (St.Discarded "fused into merged sibling") ~report:false)
    mo.Merge.mo_absorbed;
  List.iter
    (fun s ->
      Frontier.requeue eng.frontier ~worker:(Domain.DLS.get worker_key) s)
    mo.Merge.mo_requeue

let add_state eng st =
  (* Cap rejections are counted by the frontier; a rejected state
     carrying open merge tokens must still release them, or its siblings
     would park forever waiting for a carrier that never runs. *)
  if not (Frontier.push eng.frontier ~worker:(Domain.DLS.get worker_key) st)
  then handle_merge_outcome eng (Merge.note_dead eng.pool st)

(* --- expression helpers ------------------------------------------------ *)

let concretize_symbolic st e reason =
  let e = Simplify.simplify e in
  match Expr.to_const e with
  | Some v -> v
  | None -> (
      (* Solver-bound anyway: prune under the path condition first, so
         ites lifted by a merge collapse once their guard has been
         re-decided by a later branch (often back to a constant). *)
      let e = Simplify.prune ~under:st.St.constraints e in
      match Expr.to_const e with
      | Some v -> v
      | None ->
      (* Only the relevant slice (plus audited replay pins) can influence
         the value — see {!Ddt_solver.Solver.concretize_relevant}. *)
      match
        Solver.concretize_relevant st.St.constraints ~pinned:st.St.pinned e
      with
      | None -> raise (Discard_state "infeasible path condition")
      | Some v ->
          St.add_constraint st
            (Expr.cmp Expr.Eq e (Expr.const (Expr.width_of e) v));
          St.record st
            (Event.E_concretize { pc = st.St.pc; expr = e; value = v; reason });
          v)

(* Nearly every concretized value (stack pointer, addresses) is already a
   constant: answer it before any simplification. *)
let concretize st e reason =
  match e with
  | Expr.Const (_, v) -> v
  | _ -> concretize_symbolic st e reason

(* Only [extra]'s slice needs solving: a live state's path condition is
   never proven Unsat — see {!Ddt_solver.Solver.feasible}. *)
let feasible st extra =
  Solver.feasible st.St.constraints ~pinned:st.St.pinned extra

(* Split on a boolean condition. Returns the live successors, each paired
   with the condition's value on that path. The input state is reused for
   one successor when feasible; fresh children are NOT yet queued. *)
let fork_bool eng st cond =
  let cond = Simplify.simplify cond in
  match Expr.to_const cond with
  | Some v -> [ (st, v = 1) ]
  | None ->
      let not_cond = Expr.not_ cond in
      let f_true = feasible st cond in
      let f_false = feasible st not_cond in
      if f_true && f_false then begin
        let child = fork_state eng st in
        St.add_constraint child cond;
        St.add_constraint st not_cond;
        [ (child, true); (st, false) ]
      end
      else if f_true then begin
        St.add_constraint st cond;
        [ (st, true) ]
      end
      else if f_false then begin
        St.add_constraint st not_cond;
        [ (st, false) ]
      end
      else []

(* In replay mode, pin a freshly created symbolic value to the recorded
   concrete value when the head of the state's input queue matches. *)
let replay_pin eng st name e =
  match eng.replay with
  | None -> ()
  | Some _ -> (
      match st.St.replay_inputs with
      | (n, v) :: rest when n = name ->
          st.St.replay_inputs <- rest;
          let pin = Expr.cmp Expr.Eq e (Expr.const (Expr.width_of e) v) in
          st.St.pinned <- pin :: st.St.pinned;
          St.add_constraint st pin
      | _ -> ())

let fresh_symbolic eng st ~name ~origin width =
  let var = Expr.fresh_var ~name width in
  st.St.sym_inputs <- (var, origin) :: st.St.sym_inputs;
  St.record st (Event.E_sym_create { name; origin; var });
  let e = Expr.var var in
  replay_pin eng st name e;
  e

let write_symbolic_bytes eng st ~addr ~len ~origin =
  for i = 0 to len - 1 do
    let e =
      fresh_symbolic eng st ~name:(Printf.sprintf "%s[%d]" origin i) ~origin
        Expr.W8
    in
    Symmem.write_u8 st.St.mem (addr + i) e
  done

(* --- memory access with checking --------------------------------------- *)

let checked_access eng st ~pc ~write ~addr_expr ~width =
  let constraints_before = st.St.constraints in
  let conc = concretize st addr_expr "memory address" in
  let sp = concretize st (St.reg_get st Isa.sp) "stack pointer" in
  eng.on_mem_access
    { ma_state = st; ma_pc = pc; ma_write = write; ma_addr = addr_expr;
      ma_conc = conc; ma_width = width; ma_constraints = constraints_before;
      ma_sp = sp };
  if conc < Layout.null_guard then
    raise
      (Vm_crash
         ("DRIVER_FAULT",
          Printf.sprintf "null pointer dereference at 0x%x (pc 0x%x)" conc pc));
  conc

(* --- the machine interface for kernel calls ---------------------------- *)

let make_mach eng st =
  let conc e reason = concretize st e reason in
  let sp_now () = conc (St.reg_get st Isa.sp) "stack pointer" in
  {
    Mach.arg =
      (fun i -> conc (Symmem.read_u32 st.St.mem (sp_now () + (4 * i))) "kcall argument");
    arg_expr = (fun i -> Symmem.read_u32 st.St.mem (sp_now () + (4 * i)));
    set_ret = (fun v -> St.reg_set st 0 (Expr.word v));
    get_ret = (fun () -> conc (St.reg_get st 0) "return register");
    set_ret_expr = (fun e -> St.reg_set st 0 e);
    read_u32 = (fun a -> conc (Symmem.read_u32 st.St.mem a) "kernel read");
    write_u32 = (fun a v -> Symmem.write_u32 st.St.mem a (Expr.word v));
    read_u8 = (fun a -> conc (Symmem.read_u8 st.St.mem a) "kernel read");
    write_u8 = (fun a v -> Symmem.write_u8 st.St.mem a (Expr.byte v));
    read_expr_u32 = (fun a -> Symmem.read_u32 st.St.mem a);
    write_expr_u32 = (fun a e -> Symmem.write_u32 st.St.mem a e);
    read_expr_u8 = (fun a -> Symmem.read_u8 st.St.mem a);
    write_expr_u8 = (fun a e -> Symmem.write_u8 st.St.mem a e);
    fresh_symbolic =
      (fun name w -> fresh_symbolic eng st ~name ~origin:"annotation" w);
    assume =
      (fun c ->
        if feasible st c then St.add_constraint st c
        else raise (Mach.Path_terminated "assumption infeasible"));
    fork = (fun alts -> raise (Fork_alts alts));
    discard = (fun why -> raise (Mach.Path_terminated why));
    cur_pc = (fun () -> st.St.pc);
    kstate = (fun () -> st.St.ks);
  }

(* --- forced driver calls (interrupts, entry points) --------------------- *)

let push_word st v =
  let sp = concretize st (St.reg_get st Isa.sp) "stack pointer" - 4 in
  if sp < Layout.stack_limit then
    raise (Vm_crash ("DRIVER_FAULT", "stack overflow"));
  St.reg_set st Isa.sp (Expr.word sp);
  Symmem.write_u32 st.St.mem sp v

let setup_forced_call st ~addr ~args =
  List.iter (fun a -> push_word st a) (List.rev args);
  push_word st (Expr.word Layout.return_sentinel);
  st.St.pc <- addr

let save_ctx st =
  { St.s_regs = Array.copy st.St.regs; s_pc = st.St.pc;
    s_int = st.St.int_enabled }

let restore_ctx st (ctx : St.saved_ctx) =
  Array.blit ctx.St.s_regs 0 st.St.regs 0 (Array.length ctx.St.s_regs);
  st.St.pc <- ctx.St.s_pc;
  st.St.int_enabled <- ctx.St.s_int

(* Inject a symbolic interrupt at a kernel/driver boundary crossing: fork a
   successor in which the interrupt fires right now (§3.3, §4.3). *)
let maybe_inject eng st ~site ~phase =
  let site_allowed =
    match eng.replay with
    | None -> true
    | Some script -> List.mem site script.Replay.rs_inject_sites
  in
  (* Interrupt arrival times at the same boundary site form one
     equivalence class (§3.3): deliver once per site, across all paths, to
     keep the state count linear in the number of crossings. The claim is
     check-and-set under the engine lock so two workers reaching the same
     site concurrently inject exactly once. *)
  let claim_site () =
    Mutex.lock eng.glock;
    let fresh = not (Hashtbl.mem eng.injected_sites_global site) in
    if fresh then Hashtbl.replace eng.injected_sites_global site ();
    Mutex.unlock eng.glock;
    fresh
  in
  if
    site_allowed
    && eng.cfg.inject_interrupts
    && Kstate.isr_registered st.St.ks
    && st.St.int_enabled
    && (not (Kstate.in_isr st.St.ks))
    && Kstate.irql st.St.ks < Kstate.device_level
    && st.St.injections < max_injections
    && (not (List.mem site st.St.injected_sites))
    && claim_site ()
  then begin
    st.St.injected_sites <- site :: st.St.injected_sites;
    let child = fork_state eng st in
    child.St.injections <- child.St.injections + 1;
    match Intr.begin_isr child.St.ks with
    | None -> ()
    | Some (call, saved_irql) ->
        let ctx = save_ctx child in
        child.St.pending <-
          St.Pa_after_isr (ctx, saved_irql) :: child.St.pending;
        St.record child (Event.E_interrupt { site = phase; phase = "isr" });
        setup_forced_call child ~addr:call.Intr.call_addr
          ~args:(List.map (fun a -> Expr.word a) call.Intr.call_args);
        add_state eng child
  end

(* --- kcall dispatch ----------------------------------------------------- *)

let kcall_name eng n =
  let imports = eng.img.Image.image.Image.imports in
  if n >= 0 && n < Array.length imports then imports.(n)
  else failwith (Printf.sprintf "kcall index %d out of range" n)

let dispatch_kcall eng st name =
  let run_call target_st =
    let mach = make_mach eng target_st in
    eng.kcall_enter target_st name mach;
    Kapi.call ~pre:eng.annot_pre ~post:eng.annot_post target_st.St.ks mach name;
    eng.kcall_leave target_st name mach
  in
  try
    run_call st;
    St.record st (Event.E_kcall_ret { name });
    `Continue
  with Fork_alts alts -> (
    (* The current path splits into one successor per alternative. Shared
       side effects already happened; per-successor adjustments run via
       the alternative's callback against that successor's machine. The
       first alternative continues in the current state. *)
    let alts =
      (* Replay: resolve the fork to the recorded alternative. *)
      match eng.replay with
      | Some _ -> (
          match st.St.replay_choices with
          | (api, choice) :: rest_choices when api = name -> (
              match List.filter (fun (l, _) -> l = choice) alts with
              | [ alt ] ->
                  st.St.replay_choices <- rest_choices;
                  [ alt ]
              | _ -> alts)
          | _ -> alts)
      | None -> alts
    in
    match alts with
    | [] -> raise (Discard_state "fork with no alternatives")
    | (first_label, first_apply) :: rest ->
        let finish target label apply =
          target.St.choices <- (name, label) :: target.St.choices;
          St.record target (Event.E_choice { label = name; choice = label });
          (try apply (make_mach eng target) with
           | Mach.Path_terminated why ->
               retire eng target (St.Discarded why) ~report:false);
          Kstate.emit target.St.ks (Kstate.Ev_kcall_leave name);
          St.record target (Event.E_kcall_ret { name })
        in
        List.iter
          (fun (label, apply) ->
            let child = fork_state eng st in
            finish child label apply;
            if not (St.terminated child) then add_state eng child)
          rest;
        finish st first_label first_apply;
        if St.terminated st then `Forked else `Continue)

(* --- instruction step --------------------------------------------------- *)

let alu_to_binop = function
  | Isa.Add -> Expr.Add
  | Isa.Sub -> Expr.Sub
  | Isa.Mul -> Expr.Mul
  | Isa.Divu -> Expr.Divu
  | Isa.Remu -> Expr.Remu
  | Isa.And -> Expr.And
  | Isa.Or -> Expr.Or
  | Isa.Xor -> Expr.Xor
  | Isa.Shl -> Expr.Shl
  | Isa.Shru -> Expr.Lshr
  | Isa.Shrs -> Expr.Ashr

let cmp_to_cmpop = function
  | Isa.Eq -> Expr.Eq
  | Isa.Ne -> Expr.Ne
  | Isa.Ltu -> Expr.Ltu
  | Isa.Leu -> Expr.Leu
  | Isa.Lts -> Expr.Lts
  | Isa.Les -> Expr.Les

let fetch eng pc =
  (* Driver text is immutable once loaded, so every aligned in-text pc
     is served from the decode-once [Image.code] array — shared,
     read-only, lock-free, the analog of QEMU's translation cache
     (§4.1.2). Off-text or misaligned pcs (a wild indirect jump) fall
     back to decoding from memory. *)
  let l = eng.img in
  if
    pc >= l.Image.text_start
    && pc < l.Image.text_end
    && (pc - l.Image.text_start) land (Isa.instr_size - 1) = 0
  then
    match l.Image.code.((pc - l.Image.text_start) / Isa.instr_size) with
    | Some i -> i
    | None ->
        raise
          (Vm_crash ("DRIVER_FAULT", Printf.sprintf "invalid opcode at 0x%x" pc))
  else
    let b = Mem.read_bytes eng.base_mem pc Isa.instr_size in
    try Isa.decode b 0
    with Isa.Invalid_opcode _ ->
      raise
        (Vm_crash ("DRIVER_FAULT", Printf.sprintf "invalid opcode at 0x%x" pc))

(* Count a basic-block execution. The state's last block is a plain
   field write, the count a lock-free increment, and the
   did-anyone-run-this-before test a compare-and-set on the block's claim
   flag — exactly one worker wins it, so the plateau clock and the
   on_new_block hook see each block exactly once. *)
let note_block eng st pc =
  let id = block_id eng.img eng.leader_ids pc in
  if id >= 0 then begin
    st.St.last_block <- pc;
    Atomic.incr eng.counts.(id);
    let flag = eng.covered.(id) in
    if Atomic.get flag = 0 && Atomic.compare_and_set flag 0 1 then begin
      Atomic.set eng.last_new_block_step (Atomic.get eng.total_steps);
      eng.on_new_block st pc
    end
  end

(* Handle reaching the return sentinel: either an interrupt continuation
   finishes, or the whole entry-point invocation is complete. *)
let handle_sentinel eng st =
  match st.St.pending with
  | [] ->
      let ret = concretize st (St.reg_get st 0) "entry return value" in
      Kstate.end_invocation st.St.ks st.St.entry_name ret;
      St.record st (Event.E_entry_ret { name = st.St.entry_name; ret });
      retire eng st (St.Returned ret) ~report:true
  | St.Pa_after_isr (ctx, saved_irql) :: rest ->
      st.St.pending <- rest;
      (* Does the ISR queue its DPC? Bit 1 of the result decides; explore
         both outcomes when it is symbolic. *)
      let dpc_cond =
        Expr.cmp Expr.Ne
          (Expr.binop Expr.And (St.reg_get st 0) (Expr.word 2))
          (Expr.word 0)
      in
      let successors = fork_bool eng st dpc_cond in
      List.iter
        (fun (s, wants_dpc) ->
          (match
             Intr.after_isr s.St.ks ~saved_irql
               ~isr_ret:(if wants_dpc then 2 else 0)
           with
           | Some call ->
               s.St.pending <-
                 St.Pa_after_dpc (ctx, saved_irql) :: s.St.pending;
               St.record s
                 (Event.E_interrupt { site = "isr-completion"; phase = "dpc" });
               restore_ctx s ctx;
               setup_forced_call s ~addr:call.Intr.call_addr
                 ~args:(List.map (fun a -> Expr.word a) call.Intr.call_args)
           | None ->
               Intr.finish s.St.ks ~saved_irql;
               restore_ctx s ctx);
          if s != st then add_state eng s)
        successors;
      if successors = [] then retire eng st (St.Discarded "infeasible") ~report:false
  | St.Pa_after_dpc (ctx, saved_irql) :: rest
  | St.Pa_after_timer (ctx, saved_irql) :: rest ->
      st.St.pending <- rest;
      Intr.finish st.St.ks ~saved_irql;
      restore_ctx st ctx

let step eng st =
  let pc = st.St.pc in
  if pc = Layout.return_sentinel then handle_sentinel eng st
  else begin
    note_block eng st pc;
    st.St.steps <- st.St.steps + 1;
    Atomic.incr eng.total_steps;
    let instr = fetch eng pc in
    let next = pc + Isa.instr_size in
    let g r = St.reg_get st r in
    let s r e = St.reg_set st r e in
    let record_mem ~write ~addr ~width ~value =
      St.record st (Event.E_mem { pc; write; addr; width; value })
    in
    match instr with
    | Isa.Nop -> st.St.pc <- next
    | Isa.Hlt ->
        raise (Vm_crash ("DRIVER_FAULT", "driver executed HLT"))
    | Isa.Mov (rd, rs) -> s rd (g rs); st.St.pc <- next
    | Isa.Movi (rd, imm) | Isa.Lea (rd, imm) ->
        s rd (Expr.word imm);
        st.St.pc <- next
    | Isa.Alu ((Isa.Divu | Isa.Remu) as op, rd, rs1, rs2) ->
        let divisor = g rs2 in
        let zero_cond = Expr.cmp Expr.Eq divisor (Expr.word 0) in
        let successors = fork_bool eng st zero_cond in
        List.iter
          (fun (sx, is_zero) ->
            if is_zero then
              retire eng sx
                (St.Crashed
                   { c_code = "DRIVER_FAULT"; c_msg = "division by zero";
                     c_pc = pc })
                ~report:true
            else begin
              St.reg_set sx rd
                (Expr.binop (alu_to_binop op) (St.reg_get sx rs1)
                   (St.reg_get sx rs2));
              sx.St.pc <- next;
              if sx != st then add_state eng sx
            end)
          successors;
        if successors = [] then
          retire eng st (St.Discarded "infeasible") ~report:false
    | Isa.Alu (op, rd, rs1, rs2) ->
        s rd (Expr.binop (alu_to_binop op) (g rs1) (g rs2));
        st.St.pc <- next
    | Isa.Alui ((Isa.Divu | Isa.Remu) as op, rd, rs1, imm) ->
        if imm = 0 then
          raise (Vm_crash ("DRIVER_FAULT", "division by zero"))
        else begin
          s rd (Expr.binop (alu_to_binop op) (g rs1) (Expr.word imm));
          st.St.pc <- next
        end
    | Isa.Alui (op, rd, rs1, imm) ->
        s rd (Expr.binop (alu_to_binop op) (g rs1) (Expr.word imm));
        st.St.pc <- next
    | Isa.Cmp (op, rd, rs1, rs2) ->
        s rd (Expr.zext (Expr.cmp (cmp_to_cmpop op) (g rs1) (g rs2)));
        st.St.pc <- next
    | Isa.Cmpi (op, rd, rs1, imm) ->
        s rd (Expr.zext (Expr.cmp (cmp_to_cmpop op) (g rs1) (Expr.word imm)));
        st.St.pc <- next
    | Isa.Ldw (rd, rs1, off) ->
        let addr_expr = Expr.binop Expr.Add (g rs1) (Expr.word off) in
        let a = checked_access eng st ~pc ~write:false ~addr_expr ~width:4 in
        let v = Symmem.read_u32 st.St.mem a in
        record_mem ~write:false ~addr:addr_expr ~width:4 ~value:v;
        s rd v;
        st.St.pc <- next
    | Isa.Ldb (rd, rs1, off) ->
        let addr_expr = Expr.binop Expr.Add (g rs1) (Expr.word off) in
        let a = checked_access eng st ~pc ~write:false ~addr_expr ~width:1 in
        let v = Symmem.read_u8 st.St.mem a in
        record_mem ~write:false ~addr:addr_expr ~width:1 ~value:v;
        s rd (Expr.zext v);
        st.St.pc <- next
    | Isa.Stw (rs1, off, rs2) ->
        let addr_expr = Expr.binop Expr.Add (g rs1) (Expr.word off) in
        let a = checked_access eng st ~pc ~write:true ~addr_expr ~width:4 in
        record_mem ~write:true ~addr:addr_expr ~width:4 ~value:(g rs2);
        Symmem.write_u32 st.St.mem a (g rs2);
        st.St.pc <- next
    | Isa.Stb (rs1, off, rs2) ->
        let addr_expr = Expr.binop Expr.Add (g rs1) (Expr.word off) in
        let a = checked_access eng st ~pc ~write:true ~addr_expr ~width:1 in
        let byte_v = Expr.extract (g rs2) 0 in
        record_mem ~write:true ~addr:addr_expr ~width:1 ~value:byte_v;
        Symmem.write_u8 st.St.mem a byte_v;
        st.St.pc <- next
    | Isa.Push rs ->
        push_word st (g rs);
        st.St.pc <- next
    | Isa.Pop rd ->
        let sp = concretize st (g Isa.sp) "stack pointer" in
        s rd (Symmem.read_u32 st.St.mem sp);
        s Isa.sp (Expr.word (sp + 4));
        st.St.pc <- next
    | Isa.Jmp imm -> st.St.pc <- imm
    | Isa.Jz (rs, target) | Isa.Jnz (rs, target) ->
        let taken_cond =
          match instr with
          | Isa.Jz _ -> Expr.cmp Expr.Eq (g rs) (Expr.word 0)
          | _ -> Expr.cmp Expr.Ne (g rs) (Expr.word 0)
        in
        let was_symbolic =
          Expr.to_const (Simplify.simplify taken_cond) = None
        in
        (* Captured before [fork_bool] conses either arm's constraint:
           the physical sync point suffix extraction walks back to when
           the arms are fused at the merge point. *)
        let cs_before = st.St.constraints in
        let successors = fork_bool eng st taken_cond in
        let forked = List.length successors > 1 in
        (* Two feasible arms that reconverge: open a merge token before
           either arm is published to the frontier (tagging a state
           another worker already picked up would race its step loop). *)
        (if forked && eng.cfg.state_merging && eng.replay = None then
           match successors with
           | [ (a, _); (b, _) ] -> (
               match eng.merge_points st.St.last_block with
               | Some mpc when mpc <> pc ->
                   ignore
                     (Merge.open_token eng.pool ~branch_pc:pc ~merge_pc:mpc
                        ~base:cs_before a b)
               | _ -> ())
           | _ -> ());
        List.iter
          (fun (sx, taken) ->
            St.record sx
              (Event.E_branch
                 { pc; taken; forked = forked && was_symbolic;
                   cond = taken_cond });
            sx.St.pc <- (if taken then target else next);
            if sx != st then add_state eng sx)
          successors;
        if successors = [] then
          retire eng st (St.Discarded "infeasible branch") ~report:false
    | Isa.Call target ->
        push_word st (Expr.word next);
        st.St.pc <- target
    | Isa.Callr rs ->
        let target = concretize st (g rs) "indirect call target" in
        if target < Layout.null_guard then
          raise
            (Vm_crash
               ("DRIVER_FAULT",
                Printf.sprintf "indirect call through bad pointer 0x%x" target));
        push_word st (Expr.word next);
        st.St.pc <- target
    | Isa.Ret ->
        let sp = concretize st (g Isa.sp) "stack pointer" in
        let ret_addr =
          concretize st (Symmem.read_u32 st.St.mem sp) "return address"
        in
        s Isa.sp (Expr.word (sp + 4));
        st.St.pc <- ret_addr
    | Isa.Kcall n ->
        let name = kcall_name eng n in
        St.record st (Event.E_kcall { pc; name });
        (* Symbolic interrupt before the call: the fork resumes at this
           kcall instruction, so the interrupt precedes the kernel call. *)
        maybe_inject eng st ~site:pc ~phase:("before " ^ name);
        st.St.pc <- next;
        (match dispatch_kcall eng st name with
         | `Continue ->
             maybe_inject eng st ~site:next ~phase:("after " ^ name)
         | `Forked ->
             retire eng st (St.Discarded "replaced by fork successors")
               ~report:false)
    | Isa.Cli ->
        st.St.int_enabled <- false;
        st.St.pc <- next
    | Isa.Sti ->
        st.St.int_enabled <- true;
        st.St.pc <- next
  end

(* --- driving ------------------------------------------------------------ *)

let fork_of eng st = fork_state eng st

let start_timer_fire eng st ~timer_addr =
  match Intr.begin_timer st.St.ks timer_addr with
  | None -> ()
  | Some (call, saved_irql) ->
      st.St.entry_name <- "timer";
      Kstate.begin_invocation st.St.ks "timer";
      let ctx = save_ctx st in
      st.St.pending <- St.Pa_after_timer (ctx, saved_irql) :: st.St.pending;
      St.record st (Event.E_interrupt { site = "timer expiry"; phase = "timer" });
      setup_forced_call st ~addr:call.Intr.call_addr
        ~args:(List.map (fun a -> Expr.word a) call.Intr.call_args);
      add_state eng st

(* Fire one interrupt at top level (between invocations) — the timing a
   concrete stress tool exercises; it never lands inside the windows that
   symbolic injection reaches. *)
let start_interrupt_fire eng st =
  match Intr.begin_isr st.St.ks with
  | None -> ()
  | Some (call, saved_irql) ->
      st.St.entry_name <- "interrupt";
      Kstate.begin_invocation st.St.ks "interrupt";
      let ctx = save_ctx st in
      st.St.pending <- St.Pa_after_isr (ctx, saved_irql) :: st.St.pending;
      St.record st (Event.E_interrupt { site = "top-level"; phase = "isr" });
      setup_forced_call st ~addr:call.Intr.call_addr
        ~args:(List.map (fun a -> Expr.word a) call.Intr.call_args);
      add_state eng st

let start_invocation eng st ~name ~addr ~args =
  st.St.entry_name <- name;
  (* The symbolic-interrupt budget is per invocation. *)
  st.St.injections <- 0;
  st.St.pc <- addr;
  St.reg_set st Isa.sp (Expr.word Layout.stack_top);
  Kstate.begin_invocation st.St.ks name;
  St.record st (Event.E_entry { name; addr });
  (* Push symbolic or concrete args, then the sentinel. *)
  List.iter (fun a -> push_word st a) (List.rev args);
  push_word st (Expr.word Layout.return_sentinel);
  maybe_inject eng st ~site:addr ~phase:("entry " ^ name);
  add_state eng st

let step_quantum eng st =
  let budget = ref quantum in
  let wid = Domain.DLS.get worker_key in
  (* Snapshot this domain's solver exhaustion counters so a budget that
     runs dry during this quantum can be attributed to [st]. *)
  let exh0 = Solver.domain_exhaustions () in
  let unrec0 = Solver.domain_unrecovered () in
  (try
     while
       (not (St.terminated st))
       && !budget > 0
       && st.St.steps < eng.cfg.max_steps_per_state
     do
       (* Merge arrival: the state stands at its innermost token's
          reconvergence pc — park it in the pool (possibly folding the
          token right now) and stop executing it; the fold's survivor
          comes back through the frontier. *)
       (match st.St.tags with
        | { St.mt_pc; _ } :: _ when mt_pc = st.St.pc -> (
            match Merge.on_arrival eng.pool st with
            | Merge.A_continue -> ()
            | Merge.A_parked mo ->
                handle_merge_outcome eng mo;
                raise Parked)
        | _ -> ());
       decr budget;
       step eng st
     done;
     if St.terminated st then ()
     else if st.St.steps >= eng.cfg.max_steps_per_state then
       retire eng st St.Exhausted ~report:true
     else Frontier.requeue eng.frontier ~worker:wid st
   with
   | Parked ->
       (* The state now belongs to the merge pool: neither requeued nor
          retired here. The worker's task_done accounting is untouched —
          any fold triggered by the park already requeued its survivors
          while this in-flight slot was still held. *)
       ()
   | Discard_state why | Mach.Path_terminated why ->
       retire eng st (St.Discarded why) ~report:false
   | Vm_crash (code, msg) ->
       retire eng st
         (St.Crashed { c_code = code; c_msg = msg; c_pc = st.St.pc })
         ~report:true
   | Bugcheck.Bugcheck (code, msg) ->
       retire eng st
         (St.Crashed
            { c_code = Bugcheck.string_of_code code; c_msg = msg;
              c_pc = st.St.pc })
         ~report:true
   | exn when Guard.absorbable exn ->
       (* The fault boundary: an interpreter fault, stack overflow,
          out-of-memory, or any other exception escaping this state's
          execution quarantines the state — replayable script and all —
          instead of unwinding the worker and killing the session. *)
       Guard.record eng.guard_st
         {
           Guard.inc_kind = Guard.State_fault;
           inc_worker = wid;
           inc_state_id = st.St.id;
           inc_entry = st.St.entry_name;
           inc_pc = st.St.pc;
           inc_message = Guard.describe exn;
           inc_replay = safe_replay_script st;
         };
       retire eng st
         (St.Discarded ("quarantined: " ^ Guard.describe exn))
         ~report:false);
  let d_exh = Solver.domain_exhaustions () - exh0 in
  if d_exh > 0 && Guard.claim_solver_flag eng.guard_st st.St.id then begin
    let d_unrec = Solver.domain_unrecovered () - unrec0 in
    Guard.record eng.guard_st
      {
        Guard.inc_kind = Guard.Solver_exhaustion;
        inc_worker = wid;
        inc_state_id = st.St.id;
        inc_entry = st.St.entry_name;
        inc_pc = st.St.pc;
        inc_message =
          Printf.sprintf
            "%d solver budget exhaustion(s) during quantum (%d recovered \
             by escalated retry, %d left Unknown)"
            d_exh (d_exh - d_unrec) d_unrec;
        inc_replay = safe_replay_script st;
      }
  end

type stop_reason = Stop_budget | Stop_plateau

(* Graceful degradation under resource pressure: deterministically pick
   the [n] least-promising queued states (worst scheduler priority, then
   largest copy-on-write footprint, then highest id — youngest fork),
   concretize each one's pending symbolic inputs to its cached model so
   the discard reason records a concrete witness of the retired path,
   and retire them — well before the hard [max_states] cap would start
   dropping fresh forks silently. *)
let soft_retire eng n =
  let cands = ref [] in
  Frontier.iter eng.frontier (fun s ->
      cands :=
        (eng.priority_fn s, Symmem.live_words s.St.mem, s.St.id) :: !cands);
  let ranked =
    List.sort
      (fun (p1, w1, i1) (p2, w2, i2) ->
        match compare p2 p1 with
        | 0 -> ( match compare w2 w1 with 0 -> compare i2 i1 | c -> c)
        | c -> c)
      !cands
  in
  let vset = Hashtbl.create 8 in
  List.iteri
    (fun i (_, _, id) -> if i < n then Hashtbl.replace vset id ())
    ranked;
  let removed =
    Frontier.remove eng.frontier (fun s -> Hashtbl.mem vset s.St.id)
  in
  List.iter
    (fun s ->
      let witness =
        match Solver.check s.St.constraints with
        | Solver.Sat m ->
            s.St.sym_inputs
            |> List.filteri (fun i _ -> i < 4)
            |> List.map (fun ((v : Expr.var), _) ->
                   Printf.sprintf "%s=%d" v.Expr.name (m v))
            |> String.concat ","
        | Solver.Unsat | Solver.Unknown -> "-"
      in
      Atomic.incr eng.soft_retired;
      retire eng s
        (St.Discarded
           (Printf.sprintf "resource governor: soft cap (witness %s)" witness))
        ~report:false)
    removed

(* Sample the copy-on-write footprint for the E5 accounting, and show the
   resource governor (when installed) the same reading — one frontier
   sweep serves both, so governance adds nothing to the hot path. *)
let sample_live eng st =
  let live = ref (Symmem.live_words st.St.mem) in
  let depth = ref (Symmem.chain_depth st.St.mem) in
  Frontier.iter eng.frontier (fun s ->
      live := !live + Symmem.live_words s.St.mem;
      depth := max !depth (Symmem.chain_depth s.St.mem));
  amax eng.peak_live_words !live;
  match eng.governor with
  | None -> ()
  | Some gov ->
      let words = !live + Guard.pressure_boost eng.cfg.chaos in
      let n =
        gov
          {
            pr_live_states = Frontier.size eng.frontier;
            pr_cow_depth = !depth;
            pr_live_words = words;
          }
      in
      if n > 0 then soft_retire eng n

(* One explorer. Workers pull from their own deque, steal when it runs
   dry, and park (briefly sleeping, so co-scheduled domains on few cores
   get the CPU) until the frontier is quiescent — the idle-worker
   barrier: [Frontier.quiescent] can only hold once no state is queued or
   in motion anywhere, at which point every worker agrees exploration is
   complete. Any worker noticing the budget or plateau limit publishes
   the stop reason; the others exit at their next pick. *)
(* A worker-level fault was already quarantined against its in-flight
   state; the wrapper tells the supervisor not to record it twice. *)
exception Quarantined of exn

let worker_loop eng ~stop ~start ~max_total_steps ~plateau_steps ~alive wid =
  (* Dead-worker reaper: an idle worker that notices a permanently-dead
     sibling (supervisor gave up, or the domain body unwound) with work
     still queued re-homes that queue onto itself, so no path is stranded
     until [run]'s final drain. [alive] flips false only on domain exit;
     a merely-restarting worker is still alive. *)
  let reap () =
    Array.iteri
      (fun w a ->
        if
          w <> wid
          && (not (Atomic.get a))
          && Frontier.queue_length eng.frontier ~worker:w > 0
        then begin
          let moved = Frontier.rehome eng.frontier ~from_:w ~to_:wid in
          if moved > 0 then
            ignore (Atomic.fetch_and_add eng.rehomed moved)
        end)
      alive
  in
  let rec loop () =
    if Atomic.get stop = None then
      if Atomic.get eng.total_steps - start >= max_total_steps then
        ignore (Atomic.compare_and_set stop None (Some Stop_budget))
      else if
        Atomic.get eng.total_steps - Atomic.get eng.last_new_block_step
        >= plateau_steps
      then ignore (Atomic.compare_and_set stop None (Some Stop_plateau))
      else begin
        (* Pick boundary: with one worker nothing is inflight here, so
           this is a quiescent point — the only mid-run moment a
           checkpoint can capture every live path. *)
        (match eng.checkpoint_hook with
         | Some f when wid = 0 && eng.cfg.jobs <= 1 -> f ()
         | _ -> ());
        match Frontier.pick eng.frontier ~worker:wid with
        | Some st ->
            let picks = Atomic.fetch_and_add eng.picks 1 + 1 in
            (try
               Guard.maybe_crash eng.guard_st eng.cfg.chaos;
               if picks land 63 = 0 then sample_live eng st;
               step_quantum eng st
             with exn ->
               (* A fault that escaped the state-level boundary hit the
                  worker itself ([step_quantum] absorbs the state's own
                  faults), so [st] was not mid-execution and is intact:
                  quarantine a replayable snapshot, requeue the state so
                  no path is lost, fix the inflight accounting, and hand
                  the fault to the supervisor below. *)
               Frontier.task_done eng.frontier;
               Guard.record eng.guard_st
                 {
                   Guard.inc_kind = Guard.Worker_crash;
                   inc_worker = wid;
                   inc_state_id = st.St.id;
                   inc_entry = st.St.entry_name;
                   inc_pc = st.St.pc;
                   inc_message = Guard.describe exn;
                   inc_replay = safe_replay_script st;
                 };
               Frontier.requeue eng.frontier ~worker:wid st;
               raise (Quarantined exn));
            Frontier.task_done eng.frontier;
            loop ()
        | None ->
            if not (Frontier.quiescent eng.frontier) then begin
              reap ();
              Unix.sleepf 2e-4;
              loop ()
            end
      end
  in
  (* Worker supervision: a crashed loop is relaunched on a fresh stack
     after a short exponential backoff. The restart budget only burns
     when the worker wedges — crashing again before completing a single
     pick; any progress resets the counter, so sporadic faults never
     exhaust it. A worker that gives up leaves the frontier to the
     surviving workers (and [run]'s final drain). *)
  let rec supervised attempts last_picks =
    Domain.DLS.set worker_key wid;
    try loop () with
    | Stdlib.Exit -> ()
    | exn ->
        (match exn with
        | Quarantined _ -> ()
        | exn ->
            (* Fault outside any pick (scheduler, sampler): no state to
               attribute, but the crash itself is still an incident. *)
            Guard.record eng.guard_st
              {
                Guard.inc_kind = Guard.Worker_crash;
                inc_worker = wid;
                inc_state_id = 0;
                inc_entry = "";
                inc_pc = 0;
                inc_message = Guard.describe exn;
                inc_replay =
                  { Replay.rs_inputs = []; rs_choices = [];
                    rs_inject_sites = []; rs_entry = "" };
              });
        let picks_now = Atomic.get eng.picks in
        let attempts = if picks_now > last_picks then 0 else attempts in
        if attempts < max_worker_restarts then begin
          Guard.note_restart eng.guard_st;
          Guard.backoff attempts;
          supervised (attempts + 1) picks_now
        end
  in
  supervised 0 (Atomic.get eng.picks)

(* Drain the frontier to empty through merge folds: retiring a token
   carrier can fold its token and requeue the fold's survivors, so a
   single [drain_all] pass is not enough. Once the frontier is truly
   empty, any state still parked lost every sibling to caps or crashes
   without a fold firing — hand those to [f] as well. *)
let drain_retire eng f =
  let rec go () =
    match Frontier.drain_all eng.frontier with
    | _ :: _ as batch ->
        List.iter f batch;
        go ()
    | [] -> (
        match Merge.drain_parked eng.pool with
        | [] -> ()
        | parked ->
            List.iter f parked;
            go ())
  in
  go ()

let run eng ?(max_total_steps = 20_000_000) ?(plateau_steps = 150_000)
    ?start_steps () =
  let start =
    match start_steps with
    | Some s ->
        (* Resuming a checkpointed run: the budget baseline is the
           *original* run's entry point, and [last_new_block_step] was
           restored from the checkpoint — clobbering it would restart
           the plateau clock and diverge from the uninterrupted run. *)
        s
    | None ->
        let s = Atomic.get eng.total_steps in
        Atomic.set eng.last_new_block_step s;
        s
  in
  eng.run_start_steps <- start;
  let stop : stop_reason option Atomic.t = Atomic.make None in
  let jobs = max 1 eng.cfg.jobs in
  let alive = Array.init jobs (fun _ -> Atomic.make true) in
  let worker wid =
    Fun.protect
      ~finally:(fun () -> Atomic.set alive.(wid) false)
      (fun () ->
        worker_loop eng ~stop ~start ~max_total_steps ~plateau_steps ~alive
          wid)
  in
  if jobs = 1 then worker 0
  else begin
    let doms =
      List.init (jobs - 1) (fun i -> Domain.spawn (fun () -> worker (i + 1)))
    in
    worker 0;
    (* The supervisor absorbs every fault, so these joins cannot re-raise;
       the belt-and-suspenders handler still prevents a dead domain from
       taking the session down through the join. *)
    List.iter
      (fun d ->
        try Domain.join d
        with exn ->
          Guard.record eng.guard_st
            {
              Guard.inc_kind = Guard.Worker_crash;
              inc_worker = -1;
              inc_state_id = 0;
              inc_entry = "";
              inc_pc = 0;
              inc_message = "worker domain died: " ^ Guard.describe exn;
              inc_replay =
                { Replay.rs_inputs = []; rs_choices = [];
                  rs_inject_sites = []; rs_entry = "" };
            })
      doms;
    (* The caller's domain goes back to being worker 0 for the seeding of
       the next phase. *)
    Domain.DLS.set worker_key 0
  end;
  match Atomic.get stop with
  | None ->
      (* Every worker exhausted its restart budget with work remaining —
         only reachable after repeated wedges. Drain the leftovers quietly
         so the session still terminates cleanly and reports what was
         explored. *)
      if not (Frontier.quiescent eng.frontier) then
        drain_retire eng (fun st ->
            retire eng st
              (St.Discarded "workers exhausted restart budget")
              ~report:false)
      else
        (* Quiescent frontier can still leave parked states behind when
           every surviving sibling of a token was quarantined without
           reaching the pool; release them so no path is silently lost. *)
        drain_retire eng (fun st ->
            retire eng st (St.Discarded "merge token abandoned") ~report:false)
  | Some Stop_budget ->
      (* Session budget exhausted: the states left on the frontier were
         truncated by the *global* step budget, not by their own step
         cap — reporting them as hangs would make the bug report depend
         on frontier size (and so diverge between merged and unmerged
         exploration of the same driver). Genuine hangs are retired as
         [Exhausted] by the per-state cap above. *)
      drain_retire eng (fun st ->
          retire eng st (St.Discarded "session step budget exhausted")
            ~report:false)
  | Some Stop_plateau ->
      (* The paper's stopping rule: run until no new basic blocks are
         discovered for some amount of time (§5.2). Remaining states are
         redundant path siblings; drop them quietly. *)
      drain_retire eng (fun st ->
          retire eng st (St.Discarded "coverage plateau") ~report:false)

let execution_tree eng =
  Mutex.lock eng.glock;
  let lineage = eng.lineage in
  Mutex.unlock eng.glock;
  Ddt_trace.Tree.build lineage

(* A crash-dump of a state: concretized registers plus the pages its
   copy-on-write store touched, valued under the path condition's model
   (§3.5: "each execution state maintained by DDT is a complete snapshot
   of the system"). *)
let crashdump eng (st : St.t) ~note =
  let model =
    match Solver.check st.St.constraints with
    | Solver.Sat m -> m
    | Solver.Unsat | Solver.Unknown -> fun _ -> 0
  in
  let value e =
    let e = Simplify.simplify e in
    match Expr.to_const e with Some v -> v | None -> Expr.eval model e
  in
  let regs = Array.map value st.St.regs in
  (* Reconstruct the touched pages. *)
  let pages = Hashtbl.create 8 in
  let page_of addr = addr land lnot 0xFFF in
  List.iter
    (fun ev ->
      match ev with
      | Event.E_mem { addr; _ } -> (
          match Expr.to_const (Simplify.simplify addr) with
          | Some a ->
              (* Device pages are not dumpable: every read would mint a
                 fresh symbolic value (the device has no stable state). *)
              if not (Ddt_hw.Symdev.is_device_addr eng.symdev a) then
                Hashtbl.replace pages (page_of a) ()
          | None -> ())
      | _ -> ())
    st.St.trace;
  let dump_pages =
    Hashtbl.fold
      (fun base () acc ->
        let b = Bytes.create 4096 in
        for i = 0 to 4095 do
          Bytes.set_uint8 b i (value (Symmem.read_u8 st.St.mem (base + i)))
        done;
        (base, b) :: acc)
      pages []
  in
  {
    Ddt_trace.Crashdump.d_pc = st.St.pc;
    d_regs = regs;
    d_note = note;
    d_pages = List.sort compare dump_pages;
  }

let finished eng =
  Mutex.lock eng.glock;
  let r = eng.done_states in
  Mutex.unlock eng.glock;
  r

let drain_finished eng =
  Mutex.lock eng.glock;
  let r = eng.done_states in
  eng.done_states <- [];
  Mutex.unlock eng.glock;
  r

type stats = {
  st_total_steps : int;
  st_states_created : int;
  st_states_dropped : int;
  st_blocks_covered : int;
  st_max_cow_depth : int;
  st_live_words : int;
  st_steals : int;
  st_workers : int;
  st_rehomed : int;
  st_incidents : int;
  st_worker_restarts : int;
  st_soft_retired : int;
  st_solver : Solver.stats;
  st_merged_states : int;
  st_merge_ites : int;
  st_merge_forks_avoided : int;
  st_merge_refusals : int;
}

let steps_now eng = Atomic.get eng.total_steps
let steals eng = Frontier.steals eng.frontier

let block_coverage eng =
  let n = ref 0 in
  Array.iter (fun f -> if Atomic.get f <> 0 then incr n) eng.covered;
  !n

let covered_blocks eng =
  let acc = ref [] in
  for i = Array.length eng.block_addrs - 1 downto 0 do
    if Atomic.get eng.covered.(i) <> 0 then acc := eng.block_addrs.(i) :: !acc
  done;
  !acc

let stats eng =
  let live = ref 0 in
  Frontier.iter eng.frontier (fun st -> live := !live + Symmem.live_words st.St.mem);
  {
    st_total_steps = Atomic.get eng.total_steps;
    st_states_created = Atomic.get eng.states_created;
    st_states_dropped = Frontier.dropped eng.frontier;
    st_blocks_covered = block_coverage eng;
    st_max_cow_depth = Atomic.get eng.max_cow_depth;
    st_live_words = max !live (Atomic.get eng.peak_live_words);
    st_steals = Frontier.steals eng.frontier;
    st_workers = Frontier.n_workers eng.frontier;
    st_rehomed = Atomic.get eng.rehomed;
    st_incidents = Guard.incident_count eng.guard_st;
    st_worker_restarts = Guard.restarts eng.guard_st;
    st_soft_retired = Atomic.get eng.soft_retired;
    st_solver = Solver.diff_stats (Solver.stats ()) eng.solver_base;
    st_merged_states = (let m, _, _, _ = Merge.stats eng.pool in m);
    st_merge_ites = (let _, i, _, _ = Merge.stats eng.pool in i);
    st_merge_forks_avoided = (let _, _, f, _ = Merge.stats eng.pool in f);
    st_merge_refusals = (let _, _, _, r = Merge.stats eng.pool in r);
  }

(* --- checkpointing -------------------------------------------------------

   The engine's whole mutable universe as marshal-safe data. Only valid
   at quiescent points (no inflight states): the [jobs = 1] pick
   boundary where [set_checkpoint_hook] fires, or between workload
   phases. The immutable scaffolding — config, loaded image, base
   memory, hooks, the static maps the session installs — is *not* in
   the image; a resume rebuilds it by re-running session setup and then
   pouring the image into the fresh engine.

   Every [St.image] in one engine image must be marshalled in a single
   blob: sibling states share constraint-list tails and copy-on-write
   ancestors physically, the merge pool matches suffixes by [==], and
   Marshal only preserves sharing within one call. *)

type image = {
  ei_queues : ((St.image * int * int) list * int) array;
  (* per worker: scheduler entries (state, priority, seq) and the seq
     high-water mark, exactly as [Sched.dump_entries] reports them *)
  ei_steals : int;
  ei_dropped : int;
  ei_rr : int;
  ei_pool : St.image Merge.dump;
  ei_guard : Guard.dump;
  ei_done : St.image list;                  (* newest first *)
  ei_lineage : (int * int * string * int) list;
  ei_injected_sites : int list;
  ei_block_counts : (int * int) list;
  ei_covered : int array;
  ei_next_id : int;
  ei_total_steps : int;
  ei_states_created : int;
  ei_max_cow_depth : int;
  ei_peak_live_words : int;
  ei_picks : int;
  ei_last_new_block_step : int;
  ei_run_start : int;
  ei_soft_retired : int;
  ei_rehomed : int;
  ei_symdev_reads : (string * Expr.var) list;
}

let checkpoint_image eng =
  let jobs = Frontier.n_workers eng.frontier in
  let queues =
    Array.init jobs (fun w ->
        let entries, hseq = Frontier.dump_queue eng.frontier ~worker:w in
        (List.map (fun (st, p, s) -> (St.to_image st, p, s)) entries, hseq))
  in
  let block_counts = ref [] in
  for i = Array.length eng.block_addrs - 1 downto 0 do
    let c = Atomic.get eng.counts.(i) in
    if c > 0 then block_counts := (eng.block_addrs.(i), c) :: !block_counts
  done;
  Mutex.lock eng.glock;
  let injected =
    Hashtbl.fold (fun k () acc -> k :: acc) eng.injected_sites_global []
  in
  let done_states = eng.done_states in
  let lineage = eng.lineage in
  Mutex.unlock eng.glock;
  {
    ei_queues = queues;
    ei_steals = Frontier.steals eng.frontier;
    ei_dropped = Frontier.dropped eng.frontier;
    ei_rr = Frontier.rr_cursor eng.frontier;
    ei_pool = Merge.dump eng.pool ~f:St.to_image;
    ei_guard = Guard.dump eng.guard_st;
    ei_done = List.map St.to_image done_states;
    ei_lineage = lineage;
    ei_injected_sites = List.sort compare injected;
    ei_block_counts = !block_counts;
    ei_covered = Array.map Atomic.get eng.covered;
    ei_next_id = Atomic.get eng.next_id;
    ei_total_steps = Atomic.get eng.total_steps;
    ei_states_created = Atomic.get eng.states_created;
    ei_max_cow_depth = Atomic.get eng.max_cow_depth;
    ei_peak_live_words = Atomic.get eng.peak_live_words;
    ei_picks = Atomic.get eng.picks;
    ei_last_new_block_step = Atomic.get eng.last_new_block_step;
    ei_run_start = eng.run_start_steps;
    ei_soft_retired = Atomic.get eng.soft_retired;
    ei_rehomed = Atomic.get eng.rehomed;
    ei_symdev_reads = Ddt_hw.Symdev.reads_made eng.symdev;
  }

let revive_image eng imst =
  let st =
    St.of_image ~base:eng.base_mem
      ~symdev:(if eng.cfg.concrete_hardware then None else Some eng.symdev)
      imst
  in
  install_sym_hook eng st;
  st

let restore_image eng im =
  let jobs = Frontier.n_workers eng.frontier in
  let revive = revive_image eng in
  Array.iteri
    (fun w (entries, hseq) ->
      if w < jobs then
        Frontier.restore_queue eng.frontier ~worker:w
          (List.map (fun (imst, p, s) -> (revive imst, p, s)) entries)
          ~hseq)
    im.ei_queues;
  Frontier.restore_counters eng.frontier ~steals:im.ei_steals
    ~dropped:im.ei_dropped ~rr:im.ei_rr;
  Merge.restore eng.pool ~f:revive im.ei_pool;
  Guard.restore eng.guard_st im.ei_guard;
  Mutex.lock eng.glock;
  eng.done_states <- List.map revive im.ei_done;
  eng.lineage <- im.ei_lineage;
  Hashtbl.reset eng.injected_sites_global;
  List.iter
    (fun k -> Hashtbl.replace eng.injected_sites_global k ())
    im.ei_injected_sites;
  Mutex.unlock eng.glock;
  Array.iter (fun c -> Atomic.set c 0) eng.counts;
  List.iter
    (fun (pc, c) ->
      let id = block_id eng.img eng.leader_ids pc in
      if id >= 0 then Atomic.set eng.counts.(id) c)
    im.ei_block_counts;
  let n = min (Array.length eng.covered) (Array.length im.ei_covered) in
  for i = 0 to n - 1 do
    Atomic.set eng.covered.(i) im.ei_covered.(i)
  done;
  Atomic.set eng.next_id im.ei_next_id;
  Atomic.set eng.total_steps im.ei_total_steps;
  Atomic.set eng.states_created im.ei_states_created;
  Atomic.set eng.max_cow_depth im.ei_max_cow_depth;
  Atomic.set eng.peak_live_words im.ei_peak_live_words;
  Atomic.set eng.picks im.ei_picks;
  Atomic.set eng.last_new_block_step im.ei_last_new_block_step;
  eng.run_start_steps <- im.ei_run_start;
  Atomic.set eng.soft_retired im.ei_soft_retired;
  Atomic.set eng.rehomed im.ei_rehomed;
  Ddt_hw.Symdev.restore_reads eng.symdev im.ei_symdev_reads
