module Mem = Ddt_dvm.Mem
module Image = Ddt_dvm.Image
module Layout = Ddt_dvm.Layout
module Kstate = Ddt_kernel.Kstate
module Pci = Ddt_kernel.Pci
module Exec = Ddt_symexec.Exec
module St = Ddt_symexec.Symstate
module Report = Ddt_checkers.Report
module Icfg = Ddt_staticx.Icfg

type coverage_point = {
  cp_time : float;
  cp_steps : int;
  cp_blocks : int;
}

type result = {
  r_driver : string;
  r_bugs : Report.bug list;
  r_coverage : coverage_point list;
  r_stats : Exec.stats;
  r_wall_time : float;
  r_invocations : int;
  r_finished_states : int;
  r_crashdumps : (int * Ddt_trace.Crashdump.t) list;
  (** state id -> dump, for crashed states (when enabled) *)
  r_reachable_blocks : int;
  (** statically reachable block universe (ICFG), the sound denominator *)
  r_covered_reachable : int;
  (** blocks of that universe executed *)
  r_never_reached : int list;
  (** sorted image-relative leaders of reachable blocks never executed *)
  r_paths_to_first_bug : int option;
  (** completed paths when the first bug surfaced; [None] if bug-free *)
  r_incidents : Report.incident list;
  (** quarantined engine incidents (state faults, verdicts left
      Unknown), each with a replayable script *)
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

(* How many completed states seed the next workload phase. *)
let max_bases_per_phase = 3

let run (cfg : Config.t) =
  let t0 = Unix.gettimeofday () in
  let base_mem = Mem.create () in
  let loaded = Image.load cfg.Config.image base_mem ~base:Layout.image_base in
  let device =
    Pci.assign_resources cfg.Config.descriptor ~mmio_base:Layout.mmio_base
  in
  let symdev = Ddt_hw.Symdev.create device in
  (* A concrete device mapped into base memory answers every device
     read; the engine then mints no symbolic hardware values. *)
  Option.iter
    (fun seed ->
      List.iter (Mem.add_mmio base_mem)
        (Ddt_hw.Symdev.concrete_mmio symdev (Ddt_hw.Symdev.Random seed)))
    cfg.Config.concrete_device;
  (* The ICFG's reachable leaders are the engine's block universe (the
     coverage denominator and the min-touch keys) and, through [Pdom],
     give the merge points. *)
  let icfg = Icfg.build cfg.Config.image in
  let eng =
    Exec.create ~leaders:icfg.Icfg.universe loaded base_mem symdev
  in
  Option.iter (Exec.set_replay eng) cfg.Config.replay;
  let sink = Report.create_sink ~driver:cfg.Config.driver_name in
  (* State merging: hand the engine the immediate-post-dominator map so
     it knows, per branch block, where diverging siblings reconverge.
     Never installed for replay runs — a script follows exactly one
     concrete path, and merging would fold it into its siblings. *)
  if cfg.Config.state_merging && cfg.Config.replay = None then begin
    let pd = Ddt_staticx.Pdom.compute icfg in
    Exec.set_merge_points eng (fun abs ->
        Option.map
          (fun rel -> rel + loaded.Image.base)
          (Ddt_staticx.Pdom.merge_point pd (abs - loaded.Image.base)))
  end;
  (* Wire the checkers. *)
  Exec.set_on_mem_access eng
    (Ddt_checkers.Memcheck.on_mem_access sink ~loaded ~symdev);
  let finished_count = ref 0 in
  let crashdumps = ref [] in
  let first_bug_paths = ref None in
  Exec.set_on_state_done eng (fun st ->
      incr finished_count;
      (match st.St.status with
       | Some (St.Crashed c) when cfg.Config.collect_crashdumps ->
           crashdumps :=
             (st.St.id,
              Exec.crashdump st
                ~note:(Printf.sprintf "%s: %s" c.St.c_code c.St.c_msg))
             :: !crashdumps
       | _ -> ());
      Ddt_checkers.Leakcheck.on_state_done sink st;
      Ddt_checkers.Lockcheck.on_state_done sink st;
      Ddt_checkers.Crashcheck.on_state_done sink st;
      Ddt_checkers.Loopcheck.on_state_done sink st;
      if !first_bug_paths = None && Report.count sink > 0 then
        first_bug_paths := Some !finished_count);
  (* Around each kernel call: the checkers' taps, then the annotations
     (§3.4; none in the ablation experiment), the implementation, and
     the annotations' post hooks. *)
  let annotations =
    if cfg.Config.use_annotations then cfg.Config.annotations
    else Ddt_annot.Annot.empty
  in
  Exec.set_kcall_hooks eng
    ~pre:(fun st name mach ->
      Ddt_checkers.Lockcheck.on_kcall_enter sink st name mach;
      Ddt_checkers.Apicheck.on_kcall_enter sink st name mach;
      Ddt_annot.Annot.run_pre annotations name st.St.ks mach)
    ~post:(fun st name mach ->
      Ddt_annot.Annot.run_post annotations name st.St.ks mach);
  (* Coverage sampling. *)
  let coverage = ref [] in
  let blocks_seen = ref 0 in
  Exec.set_on_new_block eng (fun _st _pc ->
      incr blocks_seen;
      coverage :=
        { cp_time = Unix.gettimeofday () -. t0;
          cp_steps = Exec.steps_now eng;
          cp_blocks = !blocks_seen }
        :: !coverage);
  let invocations = ref 0 in
  let run_engine () =
    Exec.run eng ~max_total_steps:cfg.Config.max_total_steps
  in
  (* Phase 0: the kernel invokes the image entry point, which registers
     the miniport. *)
  let ks = Kstate.create ~registry:cfg.Config.registry ~device () in
  let root = Exec.new_root_state eng ks in
  Exec.start_invocation eng root ~name:"load"
    ~addr:(loaded.Image.base + cfg.Config.image.Image.entry)
    ~args:[];
  incr invocations;
  run_engine ();
  let bases = ref (pick_bases (Exec.drain_finished eng) 1) in
  (* Then each workload item in turn, invoked on the surviving bases. *)
  List.iter
    (fun item ->
      let queued =
        List.fold_left
          (fun n base -> n + Exerciser.queue eng cfg base item)
          0 !bases
      in
      invocations := !invocations + queued;
      if queued > 0 then begin
        run_engine ();
        let finished = Exec.drain_finished eng in
        match item with
        | Config.W_initialize ->
            (* Only adapters that initialized go on; if every initialize
               failed, no later phase runs. *)
            bases := pick_bases ~clean_only:true finished max_bases_per_phase
        | _ ->
            (* If every invocation crashed or failed, keep the previous
               bases so later phases still run (e.g. halt after a crashing
               send). *)
            let next = pick_bases finished max_bases_per_phase in
            if next <> [] then bases := next
      end)
    cfg.Config.workload;
  let stats = Exec.stats eng in
  {
    r_driver = cfg.Config.driver_name;
    r_bugs = Report.bugs sink;
    r_coverage = List.rev !coverage;
    r_stats = stats;
    r_wall_time = Unix.gettimeofday () -. t0;
    r_invocations = !invocations;
    r_finished_states = !finished_count;
    r_crashdumps = List.rev !crashdumps;
    r_reachable_blocks = List.length icfg.Icfg.universe;
    r_covered_reachable = stats.Exec.st_blocks_covered;
    r_never_reached =
      List.map (fun pc -> pc - loaded.Image.base) (Exec.uncovered_blocks eng);
    r_paths_to_first_bug = !first_bug_paths;
    r_incidents = Exec.incidents eng;
  }

let reachable_coverage_percent r =
  if r.r_reachable_blocks = 0 then 0.0
  else
    100.0 *. float_of_int r.r_covered_reachable
    /. float_of_int r.r_reachable_blocks
