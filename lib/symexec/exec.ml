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

(* Instructions per scheduling slice. *)
let quantum = 2_000

(* Instructions a state may have run, counted from its root state,
   before it is retired as a hang ([Exhausted]). *)
let max_steps_per_state = 200_000

(* Stop a run once no new basic block has been covered for this many
   instructions — the paper's stopping rule (§5.2). *)
let plateau_steps = 250_000

(* Symbolic interrupts injected per path. *)
let max_injections = 1

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

type engine = {
  base_mem : Mem.t;
  img : Image.loaded;
  symdev : Ddt_hw.Symdev.t;
  mem_symdev : Ddt_hw.Symdev.t option;
  (* what a state's memory asks about device reads: [None] when base
     memory maps the device concretely, so its hooks answer them *)
  block_addrs : int array;                  (* dense id -> abs leader, sorted *)
  leader_ids : int array;
  (* text slot -> dense id of the block starting there, or -1; see
     [block_id]. Read-only after create. *)
  covered : bool array;                     (* by dense id: ever executed *)
  counts : int array;
  (* block-execution counts by dense id, the min-touch priorities *)
  injected_sites_global : (int, unit) Hashtbl.t;
  mutable done_states : St.t list;
  queue : Sched.queue;                      (* the states waiting to run *)
  mutable next_id : int;
  mutable total_steps : int;
  mutable states_created : int;
  mutable tree_depth : int;                 (* deepest state's [St.depth] *)
  mutable max_cow_depth : int;
  mutable peak_live_words : int;
  mutable picks : int;
  mutable last_new_block_step : int;
  mutable on_mem_access : mem_access -> unit;
  mutable on_state_done : St.t -> unit;
  mutable on_new_block : St.t -> int -> unit;
  mutable kcall_pre : St.t -> string -> Mach.t -> unit;
  mutable kcall_post : St.t -> string -> Mach.t -> unit;
  mutable replay : Replay.script option;
  pool : Merge.t;
  (* merge-token pool: parked arms, per-branch merge history, counters *)
  mutable merge_points : int -> int option;
  (* absolute block leader -> absolute reconvergence pc. The default maps
     nothing, so no token ever opens; the session installs the
     post-dominator map ({!Ddt_staticx.Pdom}) when merging is on and no
     replay runs. *)
  guard_st : Guard.t;
  solver_base : Solver.stats;
  (* snapshot at creation; [stats] reports the delta, i.e. the solver
     work attributable to this engine *)
}

exception Discard_state of string
exception Fork_alts of (string * (Mach.t -> unit)) list
exception Vm_crash of string * string

(* The state reached its innermost merge token's reconvergence pc and
   parked in the pool: it is no longer the loop's to requeue or
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

let create ~leaders img base_mem symdev =
  Ddt_kernel.Ndis.install ();
  Ddt_kernel.Portcls.install ();
  Ddt_kernel.Usb.install ();
  (* Every engine starts from a cold query cache, so in-process
     sessions never see each other's cached answers. *)
  Solver.clear_cache ();
  (* Keep the slot-aligned in-text leaders, the only pcs [fetch] serves
     from [Image.code]. *)
  let nslots = Array.length img.Image.code in
  let block_addrs =
    Array.of_list
      (List.filter_map
         (fun off ->
           if off >= 0 && off land (Isa.instr_size - 1) = 0
              && off / Isa.instr_size < nslots
           then Some (img.Image.text_start + off)
           else None)
         leaders)
  in
  let leader_ids = Array.make nslots (-1) in
  Array.iteri
    (fun i a -> leader_ids.((a - img.Image.text_start) / Isa.instr_size) <- i)
    block_addrs;
  let nblocks = max 1 (Array.length block_addrs) in
  let counts = Array.make nblocks 0 in
  (* A state is scheduled by its current block, and the block's priority
     is how often it has run (the EXE-style min-touch count), read afresh
     at every pick. *)
  let key st = if st.St.last_block <> 0 then st.St.last_block else st.St.pc in
  let priority block =
    let id = block_id img leader_ids block in
    if id < 0 then 0 else counts.(id)
  in
  (* The stress baseline maps a seeded concrete device into base memory;
     otherwise every device read mints a symbolic value. *)
  let mapped =
    List.exists
      (fun bar -> Mem.find_mmio base_mem bar <> None)
      (Ddt_hw.Symdev.device symdev).Ddt_kernel.Pci.bars
  in
  {
    base_mem;
    img;
    symdev;
    mem_symdev = (if mapped then None else Some symdev);
    block_addrs;
    leader_ids;
    covered = Array.make nblocks false;
    counts;
    injected_sites_global = Hashtbl.create 64;
    done_states = [];
    queue = Sched.create ~key ~priority;
    next_id = 0;
    total_steps = 0;
    states_created = 0;
    tree_depth = 0;
    max_cow_depth = 0;
    peak_live_words = 0;
    picks = 0;
    last_new_block_step = 0;
    on_mem_access = (fun _ -> ());
    on_state_done = (fun _ -> ());
    on_new_block = (fun _ _ -> ());
    kcall_pre = (fun _ _ _ -> ());
    kcall_post = (fun _ _ _ -> ());
    replay = None;
    pool = Merge.create ();
    merge_points = (fun _ -> None);
    guard_st = Guard.create ();
    solver_base = Solver.stats ();
  }

let set_on_mem_access eng f = eng.on_mem_access <- f
let set_on_state_done eng f = eng.on_state_done <- f
let set_on_new_block eng f = eng.on_new_block <- f

let set_kcall_hooks eng ~pre ~post =
  eng.kcall_pre <- pre;
  eng.kcall_post <- post

let set_replay eng script = eng.replay <- Some script
let set_merge_points eng f = eng.merge_points <- f
let incidents eng = Guard.incidents eng.guard_st

(* --- state management -------------------------------------------------- *)

(* In replay mode, pin a freshly created symbolic value to the recorded
   concrete value when the head of the state's input queue matches. *)
let replay_pin eng st name e =
  match eng.replay with
  | None -> ()
  | Some _ -> (
      match st.St.replay_inputs with
      | (n, v) :: rest when n = name ->
          st.St.replay_inputs <- rest;
          St.add_constraint st
            (Expr.cmp Expr.Eq e (Expr.const (Expr.width_of e) v))
      | _ -> ())

let install_sym_hook eng st =
  Symmem.set_sym_read_hook st.St.mem (fun name var ->
      st.St.sym_inputs <- (var, "device read") :: st.St.sym_inputs;
      St.record st (Event.E_sym_create { name; origin = "device read"; var });
      replay_pin eng st name (Expr.var var))

let next_state_id eng =
  eng.next_id <- eng.next_id + 1;
  eng.states_created <- eng.states_created + 1;
  eng.next_id

let new_root_state eng ks =
  let id = next_state_id eng in
  let mem = Symmem.create ~base:eng.base_mem ~symdev:eng.mem_symdev in
  let st = St.create ~id ~mem ~ks in
  eng.tree_depth <- max eng.tree_depth st.St.depth;
  (match eng.replay with
   | Some script ->
       st.St.replay_inputs <- script.Replay.rs_inputs;
       st.St.replay_choices <- script.Replay.rs_choices
   | None -> ());
  install_sym_hook eng st;
  st

let fork_state eng st =
  let child = St.fork st ~id:(next_state_id eng) in
  eng.tree_depth <- max eng.tree_depth child.St.depth;
  install_sym_hook eng child;
  install_sym_hook eng st;
  (* Forking moved the parent to a fresh COW leaf too; re-binding the hook
     keeps symbolic-read events attributed to the right state. *)
  eng.max_cow_depth <- max eng.max_cow_depth (Symmem.chain_depth child.St.mem);
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

(* Record an engine incident against [st]. Its script must never raise:
   this runs while a fault is already being handled. *)
let record_incident eng kind st message =
  let replay =
    try replay_script st
    with _ ->
      { Replay.rs_inputs = []; rs_choices = []; rs_inject_sites = [];
        rs_entry = st.St.entry_name }
  in
  Guard.record eng.guard_st
    { Guard.inc_kind = kind; inc_state_id = st.St.id;
      inc_entry = st.St.entry_name; inc_pc = st.St.pc; inc_message = message;
      inc_replay = replay }

let rec retire eng st status ~report =
  (* A dying carrier releases every merge token it holds; the last
     carrier out triggers the fold, whose survivors go back to the
     queue and whose absorbed states retire (recursively) below. The
     pool call is a no-op while merging has never been used. *)
  handle_merge_outcome eng (Merge.note_dead eng.pool st);
  st.St.status <- Some status;
  if report then eng.done_states <- st :: eng.done_states;
  (* A checker exception is an engine fault, not a driver finding: it
     is quarantined as an incident (with the state's script) instead of
     unwinding the run. *)
  if report then
    try eng.on_state_done st
    with exn ->
      record_incident eng Guard.State_fault st
        ("checker exception: " ^ Guard.describe exn)

(* Apply a fold's results: absorbed states are gone (their paths live
   on as the ite-lifted survivor), survivors go back to the queue. *)
and handle_merge_outcome eng mo =
  List.iter
    (fun s ->
      retire eng s (St.Discarded "fused into merged sibling") ~report:false)
    mo.Merge.mo_absorbed;
  List.iter (Sched.push eng.queue) mo.Merge.mo_requeue

let add_state eng st = Sched.push eng.queue st

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
      (* Only the relevant slice can influence the value — see
         {!Ddt_solver.Solver.concretize_relevant}. *)
      match Solver.concretize_relevant st.St.constraints e with
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
let feasible st extra = Solver.feasible st.St.constraints extra

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
  (* The access goes ahead: count it, and keep its page for the crash
     dump when the address is a constant of its own (not one the path
     condition pinned). Device pages are not dumpable: every read would
     mint a fresh symbolic value (the device has no stable state). *)
  st.St.mem_accesses <- st.St.mem_accesses + 1;
  let const_addr =
    match addr_expr with
    | Expr.Const (_, a) -> Some a
    | e -> Expr.to_const (Simplify.simplify e)
  in
  (match const_addr with
   | Some a when not (Ddt_hw.Symdev.is_device_addr eng.symdev a) ->
       st.St.touched_pages <-
         St.Pages.add (a land lnot 0xFFF) st.St.touched_pages
   | _ -> ());
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
    kstate = (fun () -> st.St.ks);
  }

(* --- forced driver calls (interrupts, entry points) --------------------- *)

let push_word st v =
  let sp = concretize st (St.reg_get st Isa.sp) "stack pointer" - 4 in
  if sp < Layout.stack_limit then
    raise (Vm_crash ("DRIVER_FAULT", "stack overflow"));
  St.reg_set st Isa.sp (Expr.word sp);
  Symmem.write_u32 st.St.mem sp v

let save_ctx st =
  { St.s_regs = Array.copy st.St.regs; s_pc = st.St.pc;
    s_int = st.St.int_enabled }

let restore_ctx st (ctx : St.saved_ctx) =
  Array.blit ctx.St.s_regs 0 st.St.regs 0 (Array.length ctx.St.s_regs);
  st.St.pc <- ctx.St.s_pc;
  st.St.int_enabled <- ctx.St.s_int

(* Enter a forced handler (ISR, DPC or timer routine) from the state's
   current context: push the continuation [cont] that runs when the
   handler returns to the sentinel, record the entry, push the
   arguments and the sentinel return address, and jump. *)
let enter_handler st cont ~site ~phase (call : Intr.call) =
  st.St.pending <- cont :: st.St.pending;
  St.record st (Event.E_interrupt { site; phase });
  List.iter
    (fun a -> push_word st (Expr.word a))
    (List.rev call.Intr.call_args);
  push_word st (Expr.word Layout.return_sentinel);
  st.St.pc <- call.Intr.call_addr

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
     keep the state count linear in the number of crossings. *)
  let claim_site () =
    let fresh = not (Hashtbl.mem eng.injected_sites_global site) in
    if fresh then Hashtbl.replace eng.injected_sites_global site ();
    fresh
  in
  if
    site_allowed
    && eng.mem_symdev <> None
    && Kstate.isr_registered st.St.ks
    && st.St.int_enabled
    && (not (Kstate.in_isr st.St.ks))
    && Kstate.irql st.St.ks < Kstate.device_level
    && st.St.injections < max_injections
    && claim_site ()
  then begin
    st.St.injected_sites <- site :: st.St.injected_sites;
    let child = fork_state eng st in
    child.St.injections <- child.St.injections + 1;
    match Intr.begin_isr child.St.ks with
    | None -> ()
    | Some (call, saved_irql) ->
        enter_handler child
          (St.Pa_after_isr (save_ctx child, saved_irql))
          ~site:phase ~phase:"isr" call;
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
    eng.kcall_pre target_st name mach;
    Kapi.call target_st.St.ks mach name;
    eng.kcall_post target_st name mach
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
     is served from the decode-once [Image.code] array — read-only, the
     analog of QEMU's translation cache (§4.1.2). Off-text or misaligned
     pcs (a wild indirect jump) fall back to decoding from memory. *)
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

(* Count a basic-block execution; the plateau clock and the
   on_new_block hook see each block's first execution exactly once. *)
let note_block eng st pc =
  let id = block_id eng.img eng.leader_ids pc in
  if id >= 0 then begin
    st.St.last_block <- pc;
    eng.counts.(id) <- eng.counts.(id) + 1;
    if not eng.covered.(id) then begin
      eng.covered.(id) <- true;
      eng.last_new_block_step <- eng.total_steps;
      eng.on_new_block st pc
    end
  end

(* Handle reaching the return sentinel: either an interrupt continuation
   finishes, or the whole entry-point invocation is complete. *)
let handle_sentinel eng st =
  match st.St.pending with
  | [] ->
      let ret = concretize st (St.reg_get st 0) "entry return value" in
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
               restore_ctx s ctx;
               enter_handler s (St.Pa_after_dpc (ctx, saved_irql))
                 ~site:"isr-completion" ~phase:"dpc" call
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
    eng.total_steps <- eng.total_steps + 1;
    let instr = fetch eng pc in
    let next = pc + Isa.instr_size in
    let g r = St.reg_get st r in
    let s r e = St.reg_set st r e in
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
        s rd v;
        st.St.pc <- next
    | Isa.Ldb (rd, rs1, off) ->
        let addr_expr = Expr.binop Expr.Add (g rs1) (Expr.word off) in
        let a = checked_access eng st ~pc ~write:false ~addr_expr ~width:1 in
        let v = Symmem.read_u8 st.St.mem a in
        s rd (Expr.zext v);
        st.St.pc <- next
    | Isa.Stw (rs1, off, rs2) ->
        let addr_expr = Expr.binop Expr.Add (g rs1) (Expr.word off) in
        let a = checked_access eng st ~pc ~write:true ~addr_expr ~width:4 in
        Symmem.write_u32 st.St.mem a (g rs2);
        st.St.pc <- next
    | Isa.Stb (rs1, off, rs2) ->
        let addr_expr = Expr.binop Expr.Add (g rs1) (Expr.word off) in
        let a = checked_access eng st ~pc ~write:true ~addr_expr ~width:1 in
        let byte_v = Expr.extract (g rs2) 0 in
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
        (* Captured before [fork_bool] conses either arm's constraint:
           the physical sync point suffix extraction walks back to when
           the arms are fused at the merge point. *)
        let cs_before = st.St.constraints in
        let successors = fork_bool eng st taken_cond in
        let forked = List.length successors > 1 in
        (* Two feasible arms that reconverge: open a merge token before
           either arm is queued. *)
        (if forked then
           match successors with
           | [ (a, _); (b, _) ] -> (
               match eng.merge_points st.St.last_block with
               | Some mpc when mpc <> pc ->
                   Merge.open_token eng.pool ~merge_pc:mpc ~base:cs_before a b
               | _ -> ())
           | _ -> ());
        List.iter
          (fun (sx, taken) ->
            St.record sx
              (Event.E_branch
                 { pc; taken; forked; cond = taken_cond });
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
      Kstate.begin_invocation st.St.ks;
      enter_handler st (St.Pa_after_timer (save_ctx st, saved_irql))
        ~site:"timer expiry" ~phase:"timer" call;
      add_state eng st

(* Fire one interrupt at top level (between invocations) — the timing a
   concrete stress tool exercises; it never lands inside the windows that
   symbolic injection reaches. *)
let start_interrupt_fire eng st =
  match Intr.begin_isr st.St.ks with
  | None -> ()
  | Some (call, saved_irql) ->
      st.St.entry_name <- "interrupt";
      Kstate.begin_invocation st.St.ks;
      enter_handler st (St.Pa_after_isr (save_ctx st, saved_irql))
        ~site:"top-level" ~phase:"isr" call;
      add_state eng st

let start_invocation eng st ~name ~addr ~args =
  st.St.entry_name <- name;
  (* The symbolic-interrupt budget is per invocation. *)
  st.St.injections <- 0;
  st.St.pc <- addr;
  St.reg_set st Isa.sp (Expr.word Layout.stack_top);
  Kstate.begin_invocation st.St.ks;
  St.record st (Event.E_entry { name; addr });
  (* Push symbolic or concrete args, then the sentinel. *)
  List.iter (fun a -> push_word st a) (List.rev args);
  push_word st (Expr.word Layout.return_sentinel);
  maybe_inject eng st ~site:addr ~phase:("entry " ^ name);
  add_state eng st

let step_quantum eng st =
  let budget = ref quantum in
  (* Snapshot the Unknown count so a verdict left Unknown during this
     quantum can be attributed to [st]. *)
  let unknowns () = (Solver.stats ()).Solver.s_unknowns in
  let unknown0 = unknowns () in
  (try
     while
       (not (St.terminated st))
       && !budget > 0
       && st.St.steps < max_steps_per_state
     do
       (* Merge arrival: the state stands at its innermost token's
          reconvergence pc — park it in the pool (possibly folding the
          token right now) and stop executing it; the fold's survivor
          comes back through the queue. *)
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
     else if st.St.steps >= max_steps_per_state then
       retire eng st St.Exhausted ~report:true
     else add_state eng st
   with
   | Parked ->
       (* The state now belongs to the merge pool: neither requeued nor
          retired here; any fold the park triggered already requeued its
          survivors. *)
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
   | exn ->
       (* The fault boundary: an interpreter fault, stack overflow,
          out-of-memory, a hook's exception or any other exception
          escaping this state's execution quarantines the state —
          replayable script and all — instead of unwinding the run and
          killing the session. *)
       record_incident eng Guard.State_fault st (Guard.describe exn);
       retire eng st
         (St.Discarded ("quarantined: " ^ Guard.describe exn))
         ~report:false);
  let left = unknowns () - unknown0 in
  if left > 0 && Guard.claim_solver_flag eng.guard_st st.St.id then
    record_incident eng Guard.Solver_exhaustion st
      (Printf.sprintf "%d solver verdict(s) left Unknown during quantum"
         left)

(* Sample the copy-on-write footprint for the E5 peak-live-words
   accounting: one queue sweep every 64 picks. *)
let sample_live eng st =
  let live = ref (Symmem.live_words st.St.mem) in
  Sched.iter eng.queue (fun s -> live := !live + Symmem.live_words s.St.mem);
  eng.peak_live_words <- max eng.peak_live_words !live

(* Drain the queue to empty through merge folds: retiring a token
   carrier can fold its token and requeue the fold's survivors, so a
   single [Sched.drain] pass is not enough. Once the queue is truly
   empty, any state still parked lost every sibling to crashes without
   a fold firing — hand those to [f] as well. *)
let drain_retire eng f =
  let rec go () =
    match Sched.drain eng.queue with
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

(* Pick a state, run its quantum, repeat; the result says why the loop
   stopped, as the status of the states it leaves behind. An exception
   outside every state's fault boundary is an engine bug: it propagates
   and ends the session. *)
let run eng ~max_total_steps =
  let start = eng.total_steps in
  eng.last_new_block_step <- start;
  let rec loop () =
    if eng.total_steps - start >= max_total_steps then
      (* Session budget exhausted: the states left in the queue were
         truncated by the *global* step budget, not by their own step
         cap — reporting them as hangs would make the bug report depend
         on queue size (and so diverge between merged and unmerged
         exploration of the same driver). Genuine hangs are retired as
         [Exhausted] by the per-state cap above. *)
      "session step budget exhausted"
    else if eng.total_steps - eng.last_new_block_step >= plateau_steps then
      (* The paper's stopping rule: run until no new basic blocks are
         discovered for some amount of time (§5.2). Remaining states are
         redundant path siblings; drop them quietly. *)
      "coverage plateau"
    else
      match Sched.pop eng.queue with
      | Some st ->
          eng.picks <- eng.picks + 1;
          if eng.picks land 63 = 0 then sample_live eng st;
          step_quantum eng st;
          loop ()
      | None ->
          (* The queue is empty, but a token can still hold parked
             states when every surviving sibling was quarantined without
             reaching the pool; release them so no path is silently
             lost. *)
          "merge token abandoned"
  in
  let why = loop () in
  drain_retire eng (fun st -> retire eng st (St.Discarded why) ~report:false)

(* A crash-dump of a state: concretized registers plus the pages its
   loads and stores touched ([St.touched_pages]), valued under the path
   condition's model (§3.5: "each execution state maintained by DDT is a
   complete snapshot of the system"). *)
let crashdump (st : St.t) ~note =
  let model =
    match Solver.check st.St.constraints with
    | Solver.Sat m -> m
    | Solver.Unsat | Solver.Unknown -> fun _ -> 0
  in
  let value e =
    let e = Simplify.simplify e in
    match Expr.to_const e with Some v -> v | None -> Expr.eval model e
  in
  let page base =
    let b = Bytes.create 4096 in
    for i = 0 to 4095 do
      Bytes.set_uint8 b i (value (Symmem.read_u8 st.St.mem (base + i)))
    done;
    (base, b)
  in
  {
    Ddt_trace.Crashdump.d_pc = st.St.pc;
    d_regs = Array.map value st.St.regs;
    d_note = note;
    d_pages = List.map page (St.Pages.elements st.St.touched_pages);
  }

let finished eng = eng.done_states

let drain_finished eng =
  let r = eng.done_states in
  eng.done_states <- [];
  r

type stats = {
  st_total_steps : int;
  st_states_created : int;
  st_tree_depth : int;
  st_blocks_covered : int;
  st_max_cow_depth : int;
  st_live_words : int;
  st_solver : Solver.stats;
  st_merged_states : int;
  st_merge_ites : int;
  st_merge_forks_avoided : int;
  st_merge_refusals : int;
}

let steps_now eng = eng.total_steps

let block_coverage eng =
  Array.fold_left (fun n c -> if c then n + 1 else n) 0 eng.covered

let blocks_where eng covered =
  let acc = ref [] in
  for i = Array.length eng.block_addrs - 1 downto 0 do
    if eng.covered.(i) = covered then
      acc := eng.block_addrs.(i) :: !acc
  done;
  !acc

let covered_blocks eng = blocks_where eng true
let uncovered_blocks eng = blocks_where eng false

let stats eng =
  let live = ref 0 in
  Sched.iter eng.queue (fun st -> live := !live + Symmem.live_words st.St.mem);
  {
    st_total_steps = eng.total_steps;
    st_states_created = eng.states_created;
    st_tree_depth = eng.tree_depth;
    st_blocks_covered = block_coverage eng;
    st_max_cow_depth = eng.max_cow_depth;
    st_live_words = max !live eng.peak_live_words;
    st_solver = Solver.diff_stats (Solver.stats ()) eng.solver_base;
    st_merged_states = (let m, _, _, _ = Merge.stats eng.pool in m);
    st_merge_ites = (let _, i, _, _ = Merge.stats eng.pool in i);
    st_merge_forks_avoided = (let _, _, f, _ = Merge.stats eng.pool in f);
    st_merge_refusals = (let _, _, _, r = Merge.stats eng.pool in r);
  }
