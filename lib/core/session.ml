module Mem = Ddt_dvm.Mem
module Image = Ddt_dvm.Image
module Layout = Ddt_dvm.Layout
module Kstate = Ddt_kernel.Kstate
module Pci = Ddt_kernel.Pci
module Exec = Ddt_symexec.Exec
module St = Ddt_symexec.Symstate
module Report = Ddt_checkers.Report
module Icfg = Ddt_staticx.Icfg
module Distmap = Ddt_staticx.Distmap
module Sfind = Ddt_staticx.Sfind
module Blob = Ddt_solver.Blob
module Qcache = Ddt_solver.Qcache
module Expr = Ddt_solver.Expr
module Solver = Ddt_solver.Solver

type coverage_point = {
  cp_time : float;
  cp_steps : int;
  cp_blocks : int;
}

type result = {
  r_driver : string;
  r_bugs : Report.bug list;
  r_coverage : coverage_point list;
  r_total_blocks : int;
  r_stats : Exec.stats;
  r_wall_time : float;
  r_invocations : int;
  r_finished_states : int;
  r_kcalls : int;
  r_tree : Ddt_trace.Tree.t;
  r_crashdumps : (int * Ddt_trace.Crashdump.t) list;
  (** state id -> dump, for crashed states (when enabled) *)
  r_reachable_blocks : int;
  (** statically reachable block universe (ICFG), the sound denominator *)
  r_covered_reachable : int;
  (** covered blocks that lie inside the reachable universe *)
  r_never_reached : int list;
  (** sorted image-relative leaders of reachable blocks never executed *)
  r_static : Report.static_finding list;
  r_paths_to_first_bug : int option;
  (** completed paths when the first bug surfaced; [None] if bug-free *)
  r_incidents : Report.incident list;
  (** quarantined engine incidents (worker crashes, state faults, solver
      exhaustions), each with a replayable script *)
  r_governor_trips : int;
  (** times the resource governor asked for retirements (0 with no
      governor configured) *)
  r_checkpoint_failures : int;
}

(* Returned states that can seed the next workload phase, clean
   successes first. With [clean_only] (after [initialize]) only clean
   successes qualify: NDIS never calls a miniport again after a failed
   MiniportInitialize, so a failed initialize must not seed query, set,
   send or halt. Otherwise any completed invocation is a fallback. *)
let pick_bases ?(clean_only = false) states limit =
  let returned =
    List.filter
      (fun st -> match st.St.status with Some (St.Returned _) -> true | _ -> false)
      states
  in
  let ok, failed =
    List.partition
      (fun st -> st.St.status = Some (St.Returned 0))
      returned
  in
  let rec take n = function
    | [] -> []
    | x :: rest -> if n = 0 then [] else x :: take (n - 1) rest
  in
  take limit (if clean_only then ok else ok @ failed)

(* The session's live moving parts, factored out of [run] so that
   [resume] can rebuild exactly the same wiring over a restored engine.
   Everything here is either derived deterministically from the config
   (engine, checkers, static analysis) or a piece of session-owned
   mutable progress (the refs) that a checkpoint must carry. *)
type ctx = {
  x_cfg : Config.t;
  x_t0 : float;
  x_loaded : Image.loaded;
  x_device : Pci.assigned;
  x_exec_config : Exec.config;
  x_eng : Exec.engine;
  x_governor : Governor.t option;
  x_sink : Report.sink;
  x_icfg : Icfg.t;
  x_distmap : Distmap.t option;
  x_hmu : Mutex.t;
  x_finished_count : int ref;
  x_crashdumps : (int * Ddt_trace.Crashdump.t) list ref;
  x_first_bug_paths : int option ref;
  x_coverage : coverage_point list ref;
  x_blocks_seen : int ref;
  x_invocations : int ref;
  x_bases : St.t list ref;
  x_phase : int ref;
  (* phase currently being explored: 0 = driver load, i >= 1 = workload
     item [i - 1]; a checkpoint taken mid-run records this index *)
  x_ckpt_failures : int ref;
  (* failed checkpoint writes; not checkpointed, so a resumed run counts
     only its own *)
}

(* Everything that happens before the root state is seeded: VM + kernel
   setup, engine creation, static pre-analysis, and checker and hook
   wiring. Shared verbatim by [run] and [resume] — determinism of this
   prefix is what makes a restored checkpoint meaningful. *)
let setup (cfg : Config.t) =
  let t0 = Unix.gettimeofday () in
  let base_mem = Mem.create () in
  let loaded = Image.load cfg.Config.image base_mem ~base:Layout.image_base in
  let device =
    Pci.assign_resources cfg.Config.descriptor ~mmio_base:Layout.mmio_base
  in
  let symdev = Ddt_hw.Symdev.create device in
  let exec_config =
    match cfg.Config.concrete_device with
    | None -> cfg.Config.exec_config
    | Some seed ->
        List.iter (Mem.add_mmio base_mem)
          (Ddt_hw.Symdev.concrete_mmio symdev (Ddt_hw.Symdev.Random seed));
        { cfg.Config.exec_config with Exec.concrete_hardware = true }
  in
  let eng = Exec.create ~config:exec_config loaded base_mem symdev in
  Option.iter (Exec.set_replay eng) cfg.Config.replay;
  (* Resource governance: policy from the config's soft limits, enforced
     by the engine's deterministic concretize-and-retire path. *)
  let governor =
    match cfg.Config.governor with
    | None -> None
    | Some limits ->
        let gov = Governor.create limits in
        Exec.set_governor eng (Governor.decide gov);
        Some gov
  in
  let sink = Report.create_sink () in
  let driver = cfg.Config.driver_name in
  (* Static pre-analysis: always built (it is cheap and pure) for the
     reachable-universe coverage denominator and the static findings;
     when [static_guidance] is on it additionally feeds the scheduler a
     distance-to-uncovered oracle. *)
  let icfg = Icfg.build cfg.Config.image in
  let contracts, model =
    match cfg.Config.driver_class with
    | Config.Network ->
        (Ddt_annot.Ndis_annotations.contracts,
         Ddt_annot.Ndis_annotations.model)
    | Config.Audio ->
        (Ddt_annot.Portcls_annotations.contracts,
         Ddt_annot.Portcls_annotations.model)
  in
  (* Rules with a dynamic witness class start [Unconfirmed] and are
     promoted by the post-run confirmation pass; purely structural rules
     have nothing to witness. *)
  let confirmable rule =
    List.exists
      (fun p -> String.starts_with ~prefix:p rule)
      [ "lock-"; "irql-"; "race-" ]
  in
  let statics =
    List.map
      (fun (f : Sfind.finding) ->
        { Report.sf_rule = f.Sfind.f_rule; sf_func = f.Sfind.f_func;
          sf_pos = f.Sfind.f_pos; sf_message = f.Sfind.f_msg;
          sf_confirm =
            (if confirmable f.Sfind.f_rule then Report.Unconfirmed
             else Report.Not_applicable) })
      (Sfind.analyze ~contracts ~model icfg)
  in
  List.iter (Report.report_static sink) statics;
  let distmap =
    if exec_config.Exec.static_guidance then begin
      (* Directed confirmation: static-warning positions become
         permanent distance goals, so the Min_dist scheduler keeps
         pulling states toward the flagged code even after plain
         coverage has visited it once. *)
      let goals =
        List.filter_map
          (fun sf ->
            if sf.Report.sf_confirm = Report.Unconfirmed then
              Some sf.Report.sf_pos
            else None)
          statics
      in
      let dm = Distmap.create ~goals icfg in
      Exec.set_distance_fn eng (fun pc ->
          Distmap.dist dm (pc - loaded.Image.base));
      Some dm
    end
    else None
  in
  (* State merging: hand the engine the immediate-post-dominator map so
     it knows, per branch block, where diverging siblings reconverge.
     Never installed for replay runs — a script follows exactly one
     concrete path, and merging would fold it into its siblings. *)
  if exec_config.Exec.state_merging && cfg.Config.replay = None then begin
    let pd = Ddt_staticx.Pdom.compute icfg in
    Exec.set_merge_points eng (fun abs ->
        Option.map
          (fun rel -> rel + loaded.Image.base)
          (Ddt_staticx.Pdom.merge_point pd (abs - loaded.Image.base)))
  end;
  (* Wire the checkers. *)
  let memcheck =
    Ddt_checkers.Memcheck.create ~sink ~driver ~loaded ~symdev
  in
  let leakcheck = Ddt_checkers.Leakcheck.create ~sink ~driver in
  let lockcheck = Ddt_checkers.Lockcheck.create ~sink ~driver in
  let apicheck = Ddt_checkers.Apicheck.create ~sink ~driver in
  let crashcheck = Ddt_checkers.Crashcheck.create ~sink ~driver in
  let loopcheck = Ddt_checkers.Loopcheck.create ~sink ~driver in
  Exec.set_on_mem_access eng (Ddt_checkers.Memcheck.on_mem_access memcheck);
  (* The engine fires these hooks from every frontier worker; the refs
     below are the session's only hook-shared state, so one small lock
     covers them (the checkers only touch the state and the sink, which
     has its own lock). *)
  let hmu = Mutex.create () in
  let finished_count = ref 0 in
  let crashdumps = ref [] in
  let first_bug_paths = ref None in
  Exec.set_on_state_done eng (fun st ->
      Mutex.lock hmu;
      incr finished_count;
      (match st.St.status with
       | Some (St.Crashed c) when cfg.Config.collect_crashdumps ->
           crashdumps :=
             (st.St.id,
              Exec.crashdump eng st
                ~note:(Printf.sprintf "%s: %s" c.St.c_code c.St.c_msg))
             :: !crashdumps
       | _ -> ());
      Mutex.unlock hmu;
      Ddt_checkers.Leakcheck.on_state_done leakcheck st;
      Ddt_checkers.Lockcheck.on_state_done lockcheck st;
      Ddt_checkers.Crashcheck.on_state_done crashcheck st;
      Ddt_checkers.Loopcheck.on_state_done loopcheck st;
      Mutex.lock hmu;
      if !first_bug_paths = None && Report.count sink > 0 then
        first_bug_paths := Some !finished_count;
      Mutex.unlock hmu);
  Exec.set_kcall_hooks eng
    ~enter:(fun st name mach ->
      Ddt_checkers.Lockcheck.on_kcall_enter lockcheck st name mach;
      Ddt_checkers.Apicheck.on_kcall_enter apicheck st name mach)
    ~leave:(fun _ _ _ -> ());
  (* Annotations (§3.4): off for the ablation experiment. *)
  if cfg.Config.use_annotations then begin
    let set = cfg.Config.annotations in
    Exec.set_annotations eng
      ~pre:(fun name ks mach -> Ddt_annot.Annot.run_pre set name ks mach)
      ~post:(fun name ks mach -> Ddt_annot.Annot.run_post set name ks mach)
  end;
  (* Coverage sampling. *)
  let coverage = ref [] in
  let blocks_seen = ref 0 in
  Exec.set_on_new_block eng (fun _st pc ->
      (match distmap with
       | Some dm -> Distmap.note_covered dm (pc - loaded.Image.base)
       | None -> ());
      Mutex.lock hmu;
      incr blocks_seen;
      coverage :=
        { cp_time = Unix.gettimeofday () -. t0;
          cp_steps = Exec.steps_now eng;
          cp_blocks = !blocks_seen }
        :: !coverage;
      Mutex.unlock hmu);
  {
    x_cfg = cfg; x_t0 = t0; x_loaded = loaded; x_device = device;
    x_exec_config = exec_config;
    x_eng = eng; x_governor = governor; x_sink = sink; x_icfg = icfg;
    x_distmap = distmap; x_hmu = hmu;
    x_finished_count = finished_count; x_crashdumps = crashdumps;
    x_first_bug_paths = first_bug_paths; x_coverage = coverage;
    x_blocks_seen = blocks_seen; x_invocations = ref 0;
    x_bases = ref []; x_phase = ref 0; x_ckpt_failures = ref 0;
  }

(* {2 Checkpointing} *)

(* 7: cache entries no longer carry a persisted flag. *)
let checkpoint_version = 7

(* A checkpoint is one self-contained marshal image of every piece of
   session progress: the engine image (queues, merge pool, guard,
   counters), the surviving phase bases, the report sink, the session
   refs, the expression-variable counter, and the full query cache. One
   blob means [Marshal] preserves every physical-sharing relationship
   (sibling constraint tails, cache-entry aliasing) that the live heap
   had. Derived structures such as dedup tables are deliberately absent:
   they are caches, rebuilt from scratch on restore. *)
type checkpoint = {
  ck_version : int;
  ck_driver : string;
  ck_phase : int;
  ck_invocations : int;
  ck_finished_count : int;
  ck_blocks_seen : int;
  ck_coverage : coverage_point list;       (* newest first *)
  ck_crashdumps : (int * Ddt_trace.Crashdump.t) list;
  ck_first_bug_paths : int option;
  ck_sink : Report.sink_dump;
  ck_bases : St.image list;
  ck_engine : Exec.image;
  ck_var_counter : int;
  ck_qcache : Qcache.Sharded.dump;
}

let default_checkpoint_path (cfg : Config.t) =
  match cfg.Config.checkpoint_path with
  | Some p -> p
  | None -> cfg.Config.driver_name ^ ".ckpt"

let write_checkpoint ctx path =
  let ck =
    {
      ck_version = checkpoint_version;
      ck_driver = ctx.x_cfg.Config.driver_name;
      ck_phase = !(ctx.x_phase);
      ck_invocations = !(ctx.x_invocations);
      ck_finished_count = !(ctx.x_finished_count);
      ck_blocks_seen = !(ctx.x_blocks_seen);
      ck_coverage = !(ctx.x_coverage);
      ck_crashdumps = !(ctx.x_crashdumps);
      ck_first_bug_paths = !(ctx.x_first_bug_paths);
      ck_sink = Report.dump_sink ctx.x_sink;
      ck_bases = List.map St.to_image !(ctx.x_bases);
      ck_engine = Exec.checkpoint_image ctx.x_eng;
      ck_var_counter = Expr.var_counter_value ();
      ck_qcache = Qcache.Sharded.dump (Solver.current_cache ());
    }
  in
  Blob.write_file path ck

(* Checkpointing is only sound where the engine image is: a single
   worker (the pick boundary is quiescent), fully symbolic hardware (a
   concretized device installs closures in base memory), and no replay
   script (scripts carry their own position). *)
let checkpointable ctx =
  ctx.x_cfg.Config.checkpoint_every > 0
  && ctx.x_exec_config.Exec.jobs <= 1
  && ctx.x_cfg.Config.concrete_device = None
  && ctx.x_cfg.Config.replay = None

let install_checkpointing ctx =
  if checkpointable ctx then begin
    let cadence = Governor.cadence ctx.x_cfg.Config.checkpoint_every in
    let path = default_checkpoint_path ctx.x_cfg in
    Exec.set_checkpoint_hook ctx.x_eng (fun () ->
        if Governor.checkpoint_due cadence ~now:(Exec.steps_now ctx.x_eng)
        then
          (* Durability is best-effort: a full disk or unwritable path
             costs the checkpoint, never the run. [Blob.write_file]
             already guarantees the previous checkpoint survives a
             failed write. *)
          match write_checkpoint ctx path with
          | Ok () -> ()
          | Error e ->
              incr ctx.x_ckpt_failures;
              if !(ctx.x_ckpt_failures) = 1 then
                Printf.eprintf
                  "checkpoint: cannot write %s: %s (later failures are \
                   counted, not printed)\n%!"
                  path e)
  end

(* {2 Phases} *)

let run_engine ?start_steps ctx =
  Exec.run ctx.x_eng ~max_total_steps:ctx.x_cfg.Config.max_total_steps
    ~plateau_steps:ctx.x_cfg.Config.plateau_steps ?start_steps ()

(* Phase 0: the kernel invokes the image entry point, which registers
   the miniport. *)
let start_load_phase ctx =
  ctx.x_phase := 0;
  let ks =
    Kstate.create ~registry:ctx.x_cfg.Config.registry ~device:ctx.x_device ()
  in
  let root = Exec.new_root_state ctx.x_eng ks in
  Exec.start_invocation ctx.x_eng root ~name:"load"
    ~addr:(ctx.x_loaded.Image.base + ctx.x_cfg.Config.image.Image.entry)
    ~args:[];
  incr ctx.x_invocations

let finish_load_phase ctx =
  ctx.x_bases := pick_bases (Exec.drain_finished ctx.x_eng) 1

let finish_workload_phase ctx item =
  let finished = Exec.drain_finished ctx.x_eng in
  let limit = ctx.x_cfg.Config.max_bases_per_phase in
  match item with
  | Config.W_initialize ->
      (* Only adapters that initialized go on; if every initialize
         failed, no later phase runs. *)
      ctx.x_bases := pick_bases ~clean_only:true finished limit
  | _ ->
      (* If every invocation crashed or failed, keep the previous bases
         so later phases still run (e.g. halt after a crashing send). *)
      let next = pick_bases finished limit in
      if next <> [] then ctx.x_bases := next

(* Workload phase [idx] (1-based; item = workload position [idx - 1]). *)
let run_workload_phase ctx idx item =
  ctx.x_phase := idx;
  let queued =
    List.fold_left
      (fun n base -> n + Exerciser.queue ctx.x_eng ctx.x_cfg base item)
      0
      !(ctx.x_bases)
  in
  ctx.x_invocations := !(ctx.x_invocations) + queued;
  if queued > 0 then begin
    run_engine ctx;
    finish_workload_phase ctx item
  end

(* Drop the first [n] elements. *)
let rec drop n = function
  | l when n <= 0 -> l
  | [] -> []
  | _ :: rest -> drop (n - 1) rest

let finalize ctx =
  let cfg = ctx.x_cfg in
  let eng = ctx.x_eng in
  let loaded = ctx.x_loaded in
  let icfg = ctx.x_icfg in
  let sink = ctx.x_sink in
  let stats = Exec.stats eng in
  let kcalls =
    List.fold_left
      (fun acc st -> acc + Kstate.kcall_count st.St.ks)
      0
      !(ctx.x_bases)
  in
  (* With several frontier workers the sink's insertion order depends
     on scheduling; sort by key so the report is reproducible. A
     single-worker run keeps discovery order. *)
  let bugs =
    if ctx.x_exec_config.Exec.jobs > 1 then
      List.sort
        (fun a b -> compare a.Report.b_key b.Report.b_key)
        (Report.bugs sink)
    else Report.bugs sink
  in
  (* Confirmation pass: a static warning is witnessed by a dynamic bug
     of a compatible kind whose pc falls in the warned function.  The
     position is matched at function granularity — the crash site of a
     race or deadlock is rarely the exact flagged instruction. *)
  let func_of_relpc rel =
    match Hashtbl.find_opt icfg.Icfg.leader_of rel with
    | Some l ->
        Option.map (fun f -> f.Icfg.fn_name) (Icfg.func_of_block icfg l)
    | None -> None
  in
  let kind_compatible rule (k : Report.kind) =
    if String.starts_with ~prefix:"race-" rule then
      match k with
      | Report.Race_condition | Report.Segfault | Report.Memory_error
      | Report.Kernel_crash -> true
      | _ -> false
    else
      match k with
      | Report.Lock_misuse | Report.Kernel_crash -> true
      | _ -> false
  in
  Report.confirm_statics sink (fun sf ->
      match sf.Report.sf_confirm with
      | Report.Not_applicable -> Report.Not_applicable
      | Report.Unconfirmed | Report.Confirmed _ -> (
          match
            List.find_opt
              (fun (b : Report.bug) ->
                kind_compatible sf.Report.sf_rule b.Report.b_kind
                && func_of_relpc (b.Report.b_pc - loaded.Image.base)
                   = Some sf.Report.sf_func)
              bugs
          with
          | Some b -> Report.Confirmed b.Report.b_key
          | None -> Report.Unconfirmed));
  let statics = Report.static_findings sink in
  (* Reachable-universe coverage: intersect the covered block set with the
     static universe (both image-relative leaders). *)
  let covered_rel = Hashtbl.create 256 in
  List.iter
    (fun pc -> Hashtbl.replace covered_rel (pc - loaded.Image.base) ())
    (Exec.covered_blocks eng);
  let never_reached =
    List.filter (fun b -> not (Hashtbl.mem covered_rel b)) icfg.Icfg.universe
  in
  let covered_reachable =
    List.length icfg.Icfg.universe - List.length never_reached
  in
  {
    r_driver = cfg.Config.driver_name;
    r_bugs = bugs;
    r_coverage = List.rev !(ctx.x_coverage);
    r_total_blocks =
      List.length (Ddt_dvm.Disasm.basic_block_starts cfg.Config.image);
    r_stats = stats;
    r_wall_time = Unix.gettimeofday () -. ctx.x_t0;
    r_invocations = !(ctx.x_invocations);
    r_finished_states = !(ctx.x_finished_count);
    r_kcalls = kcalls;
    r_tree = Exec.execution_tree eng;
    r_crashdumps =
      (if ctx.x_exec_config.Exec.jobs > 1 then
         List.sort (fun (a, _) (b, _) -> compare a b) !(ctx.x_crashdumps)
       else List.rev !(ctx.x_crashdumps));
    r_reachable_blocks = List.length icfg.Icfg.universe;
    r_covered_reachable = covered_reachable;
    r_never_reached = never_reached;
    r_static = statics;
    r_paths_to_first_bug = !(ctx.x_first_bug_paths);
    r_incidents = Exec.incidents eng;
    r_governor_trips =
      (match ctx.x_governor with Some g -> Governor.trips g | None -> 0);
    r_checkpoint_failures = !(ctx.x_ckpt_failures);
  }

let run (cfg : Config.t) =
  let ctx = setup cfg in
  install_checkpointing ctx;
  start_load_phase ctx;
  run_engine ctx;
  finish_load_phase ctx;
  List.iteri
    (fun i item -> run_workload_phase ctx (i + 1) item)
    cfg.Config.workload;
  finalize ctx

(* {2 Resume} *)

let read_checkpoint path : (checkpoint, string) Stdlib.result =
  match Blob.read_file path with
  | Error e -> Error e
  | Ok (ck : checkpoint) ->
      if ck.ck_version <> checkpoint_version then
        Error
          (Printf.sprintf "checkpoint version %d, expected %d" ck.ck_version
             checkpoint_version)
      else Ok ck

let checkpoint_driver path =
  Result.map (fun ck -> ck.ck_driver) (read_checkpoint path)

let resume (cfg : Config.t) ~path : (result, string) Stdlib.result =
  match read_checkpoint path with
  | Error e -> Error e
  | Ok ck ->
      if ck.ck_driver <> cfg.Config.driver_name then
        Error
          (Printf.sprintf "checkpoint is for driver %S, config is for %S"
             ck.ck_driver cfg.Config.driver_name)
      else if ck.ck_phase > List.length cfg.Config.workload then
        Error
          (Printf.sprintf "checkpoint phase %d is past the config's %d-item \
                           workload"
             ck.ck_phase (List.length cfg.Config.workload))
      else begin
        let ctx = setup cfg in
        (* Fresh symbolic variables must never collide with checkpointed
           ones; the counter only moves forward. *)
        Expr.set_var_counter
          (max (Expr.var_counter_value ()) ck.ck_var_counter);
        Exec.restore_image ctx.x_eng ck.ck_engine;
        (* The checkpoint's cache dump reproduces the exact hit/miss
           sequence the uninterrupted run would have seen. *)
        ignore (Qcache.Sharded.import (Solver.current_cache ()) ck.ck_qcache);
        Report.restore_sink ctx.x_sink ck.ck_sink;
        ctx.x_invocations := ck.ck_invocations;
        ctx.x_finished_count := ck.ck_finished_count;
        ctx.x_blocks_seen := ck.ck_blocks_seen;
        ctx.x_coverage := ck.ck_coverage;
        ctx.x_crashdumps := ck.ck_crashdumps;
        ctx.x_first_bug_paths := ck.ck_first_bug_paths;
        ctx.x_bases := List.map (Exec.revive_image ctx.x_eng) ck.ck_bases;
        ctx.x_phase := ck.ck_phase;
        (* Guided scheduling: the distance oracle's covered set is
           derived state; rebuild it from the engine's covered blocks so
           goal distances match the uninterrupted run. *)
        (match ctx.x_distmap with
         | Some dm ->
             List.iter
               (fun pc ->
                 Distmap.note_covered dm (pc - ctx.x_loaded.Image.base))
               (Exec.covered_blocks ctx.x_eng)
         | None -> ());
        install_checkpointing ctx;
        (* Finish the interrupted phase: the restored engine continues
           from the recorded budget window, so plateau detection and the
           step ceiling behave as if the kill never happened. *)
        run_engine ctx ~start_steps:(Exec.run_start ctx.x_eng);
        if ck.ck_phase = 0 then finish_load_phase ctx
        else
          finish_workload_phase ctx
            (List.nth cfg.Config.workload (ck.ck_phase - 1));
        (* Remaining phases, numbered as the uninterrupted run numbers
           them. *)
        List.iteri
          (fun j item -> run_workload_phase ctx (ck.ck_phase + 1 + j) item)
          (drop ck.ck_phase cfg.Config.workload);
        Ok (finalize ctx)
      end

let coverage_percent r =
  if r.r_total_blocks = 0 then 0.0
  else
    match List.rev r.r_coverage with
    | [] -> 0.0
    | last :: _ ->
        100.0 *. float_of_int last.cp_blocks /. float_of_int r.r_total_blocks

let reachable_coverage_percent r =
  if r.r_reachable_blocks = 0 then 0.0
  else
    100.0 *. float_of_int r.r_covered_reachable
    /. float_of_int r.r_reachable_blocks
