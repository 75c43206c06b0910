(* ddt — test closed-source binary device drivers from the command line.

   Subcommands:
     list                      show the bundled driver corpus
     test <driver>             run DDT on a corpus driver (buggy variant)
     test --fixed <driver>     ... on the repaired variant
     resume <ckpt>             resume an interrupted test session
     static <driver>           run the static-analysis baseline
     analyze <driver>          run the DXE static pre-analysis (ICFG)
     stress <driver>           run the concrete stress baseline
     disasm <driver>           print the driver binary's disassembly
     info <driver>             Table 1 style image statistics *)

open Cmdliner
module Corpus = Ddt_drivers.Corpus
module Report = Ddt_checkers.Report

let driver_arg =
  let doc = "Corpus driver short name (see `ddt_cli list')." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"DRIVER" ~doc)

let fixed_flag =
  let doc = "Use the repaired variant of the driver." in
  Arg.(value & flag & info [ "fixed" ] ~doc)

let no_annot_flag =
  let doc = "Disable API annotations (the paper's ablation mode)." in
  Arg.(value & flag & info [ "no-annotations" ] ~doc)

let traces_flag =
  let doc = "Print the trace digest and replay script for each bug." in
  Arg.(value & flag & info [ "traces" ] ~doc)

let jobs_arg =
  let doc =
    "Explore the session's fork tree with $(docv) cooperating worker \
     domains (shared work-stealing frontier)."
  in
  Arg.(value & opt int 1 & info [ "j"; "jobs" ] ~docv:"N" ~doc)

let find_entry short =
  match Corpus.find short with
  | e -> Ok e
  | exception Not_found ->
      Error
        (Printf.sprintf "unknown driver %S; try: %s" short
           (String.concat ", " (List.map (fun e -> e.Corpus.short) Corpus.all)))

let list_cmd =
  let run () =
    Format.printf "%-10s %-22s %-8s %s@." "SHORT" "NAME" "CLASS" "SEEDED BUGS";
    List.iter
      (fun e ->
        Format.printf "%-10s %-22s %-8s %d@." e.Corpus.short e.Corpus.name
          (match e.Corpus.driver_class with
           | Ddt_core.Config.Network -> "network"
           | Ddt_core.Config.Audio -> "audio")
          (List.length e.Corpus.expected_bugs))
      Corpus.all;
    0
  in
  Cmd.v (Cmd.info "list" ~doc:"List the bundled driver corpus")
    Term.(const run $ const ())

let guided_flag =
  let doc =
    "Steer exploration with the static pre-analysis: distance-to-uncovered \
     oracle plus the min-dist scheduling strategy."
  in
  Arg.(value & flag & info [ "guided" ] ~doc)

let chaos_flag =
  let doc =
    "Run under deterministic fault injection (worker crashes every 25th \
     pick, every 3rd uncached solve budget-exhausted, simulated memory \
     pressure with the resource governor). The session must survive and \
     report the same bugs; the injected faults appear as quarantined \
     engine incidents."
  in
  Arg.(value & flag & info [ "chaos" ] ~doc)

let no_merge_flag =
  let doc =
    "Disable dynamic state merging at branch post-dominators and fork on \
     every symbolic branch (the differential oracle the merging path is \
     validated against). Bug reports are identical either way; merging \
     only collapses the number of states explored."
  in
  Arg.(value & flag & info [ "no-merge" ] ~doc)

let checkpoint_every_arg =
  let doc =
    "Write a session checkpoint every $(docv) engine steps (0 disables). \
     Only effective with a single worker, fully symbolic hardware and no \
     replay script; a SIGKILL'd run restarted with $(b,resume) produces \
     the same report as an uninterrupted one."
  in
  Arg.(value & opt int 0 & info [ "checkpoint-every" ] ~docv:"STEPS" ~doc)

let checkpoint_path_arg =
  let doc = "Checkpoint file path (default $(i,<driver>.ckpt))." in
  Arg.(value & opt (some string) None & info [ "checkpoint" ] ~docv:"PATH" ~doc)

let json_out_arg =
  let doc =
    "Also write the machine-readable session report (JSON, schema v6) to \
     $(docv), atomically (tmp + rename)."
  in
  Arg.(value & opt (some string) None & info [ "json-out" ] ~docv:"PATH" ~doc)

(* Flag application shared by `test' and `resume': for a resumed run to
   converge with the uninterrupted one, both must build their config the
   same way from the same flags. *)
let apply_session_flags cfg ~jobs ~guided ~chaos ~no_merge
    ~checkpoint_every ~checkpoint_path =
  let cfg =
    { cfg with
      Ddt_core.Config.exec_config =
        { cfg.Ddt_core.Config.exec_config with
          Ddt_symexec.Exec.jobs = max 1 jobs;
          state_merging = not no_merge };
      checkpoint_every;
      checkpoint_path }
  in
  let cfg =
    if guided then
      { cfg with
        Ddt_core.Config.exec_config =
          { cfg.Ddt_core.Config.exec_config with
            Ddt_symexec.Exec.static_guidance = true;
            strategy = Ddt_symexec.Sched.Min_dist } }
    else cfg
  in
  if chaos then
    { cfg with
      Ddt_core.Config.governor =
        Some
          { Ddt_core.Governor.default_limits with
            Ddt_core.Governor.soft_live_words = 1;
            min_states = 8; max_retire_per_trip = 1 };
      exec_config =
        { cfg.Ddt_core.Config.exec_config with
          Ddt_symexec.Exec.chaos =
            Some
              { Ddt_symexec.Guard.chaos_worker_crash_period = 25;
                chaos_solver_exhaust_period = 3;
                chaos_pressure_words = 50_000_000 } } }
  else cfg

let report_result ~traces ~json_out r =
  Format.printf "%a" Ddt_core.Ddt.pp_report r;
  if traces then
    List.iter
      (fun b ->
        Format.printf "@.%a@.%a%a" Ddt_core.Ddt.pp_bug_detail b
          Ddt_trace.Replay.pp b.Report.b_replay
          Ddt_checkers.Diagnose.pp
          (Ddt_checkers.Diagnose.analyze b))
      r.Ddt_core.Session.r_bugs;
  (* A report that was asked for but not written fails the run: a caller
     must never read success with no report on disk. *)
  let written =
    match json_out with
    | None -> true
    | Some path -> (
        match
          Ddt_core.Report_json.write_file path
            (Ddt_core.Report_json.of_result r)
        with
        | Ok () -> true
        | Error e -> Printf.eprintf "json-out: %s\n" e; false)
  in
  if not written then 1
  else if r.Ddt_core.Session.r_bugs = [] then 0
  else 2

let test_cmd =
  let run short fixed no_annot traces jobs guided chaos no_merge
      checkpoint_every checkpoint_path json_out =
    match find_entry short with
    | Error e -> prerr_endline e; 1
    | Ok entry ->
        let cfg =
          Corpus.config ~fixed ~use_annotations:(not no_annot) entry
        in
        let cfg =
          apply_session_flags cfg ~jobs ~guided ~chaos ~no_merge
            ~checkpoint_every ~checkpoint_path
        in
        report_result ~traces ~json_out (Ddt_core.Ddt.test_driver cfg)
  in
  Cmd.v
    (Cmd.info "test" ~doc:"Test a driver binary with DDT")
    Term.(
      const run $ driver_arg $ fixed_flag $ no_annot_flag $ traces_flag
      $ jobs_arg $ guided_flag $ chaos_flag $ no_merge_flag
      $ checkpoint_every_arg $ checkpoint_path_arg $ json_out_arg)

let resume_cmd =
  let ckpt_arg =
    let doc =
      "Checkpoint file written by $(b,test --checkpoint-every). The \
       resumed session must be given the same flags (e.g. $(b,--fixed), \
       $(b,--no-annotations)) as the run that wrote it."
    in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"CKPT" ~doc)
  in
  let run ckpt fixed no_annot traces jobs guided chaos no_merge
      checkpoint_every checkpoint_path json_out =
    match Ddt_core.Session.checkpoint_driver ckpt with
    | Error e -> Printf.eprintf "cannot read checkpoint: %s\n" e; 1
    | Ok name -> (
        match
          List.find_opt (fun e -> e.Corpus.name = name) Corpus.all
        with
        | None ->
            Printf.eprintf "checkpoint driver %S is not in the corpus\n"
              name;
            1
        | Some entry ->
            let cfg =
              Corpus.config ~fixed ~use_annotations:(not no_annot) entry
            in
            let cfg =
              apply_session_flags cfg ~jobs ~guided ~chaos ~no_merge
                ~checkpoint_every
                (* keep checkpointing into the file being resumed unless
                   told otherwise *)
                ~checkpoint_path:
                  (Some (Option.value checkpoint_path ~default:ckpt))
            in
            (match Ddt_core.Session.resume cfg ~path:ckpt with
             | Error e -> Printf.eprintf "resume: %s\n" e; 1
             | Ok r -> report_result ~traces ~json_out r))
  in
  Cmd.v
    (Cmd.info "resume"
       ~doc:
         "Resume an interrupted (e.g. SIGKILL'd) test session from its \
          checkpoint and run it to completion")
    Term.(
      const run $ ckpt_arg $ fixed_flag $ no_annot_flag $ traces_flag
      $ jobs_arg $ guided_flag $ chaos_flag $ no_merge_flag
      $ checkpoint_every_arg $ checkpoint_path_arg $ json_out_arg)

let static_cmd =
  let run short fixed =
    match find_entry short with
    | Error e -> prerr_endline e; 1
    | Ok entry ->
        let image =
          if fixed then entry.Corpus.fixed_image () else entry.Corpus.image ()
        in
        let r = Ddt_baseline.Static.analyze ~name:entry.Corpus.name image in
        Format.printf "%a" Ddt_baseline.Static.pp r;
        0
  in
  Cmd.v
    (Cmd.info "static" ~doc:"Run the static-analysis baseline on a driver")
    Term.(const run $ driver_arg $ fixed_flag)

let analyze_cmd =
  let expect_clean_flag =
    let doc =
      "Exit nonzero unless the analysis finds a nonempty block universe \
       and zero static findings (CI smoke for known-clean drivers)."
    in
    Arg.(value & flag & info [ "expect-clean" ] ~doc)
  in
  let json_flag =
    let doc =
      "Emit the findings as a machine-readable JSON document (same static \
       row schema as the full session report) instead of the listing."
    in
    Arg.(value & flag & info [ "json" ] ~doc)
  in
  let rules_arg =
    let doc =
      Printf.sprintf
        "Comma-separated rule filter; a name selects the rule or, as a \
         prefix, a whole family (e.g. $(b,lock) selects every lock-* \
         rule). Known rules: %s."
        (String.concat ", " Ddt_staticx.Sfind.all_rules)
    in
    Arg.(value & opt (some string) None & info [ "rules" ] ~docv:"LIST" ~doc)
  in
  let run short fixed expect_clean json rules_opt =
    match find_entry short with
    | Error e -> prerr_endline e; 1
    | Ok entry ->
        let rules =
          Option.map
            (fun s ->
              String.split_on_char ',' s
              |> List.map String.trim
              |> List.filter (fun r -> r <> ""))
            rules_opt
        in
        let bad =
          match rules with
          | None -> []
          | Some rs ->
              List.filter
                (fun r ->
                  not
                    (List.exists
                       (fun known ->
                         known = r || String.starts_with ~prefix:r known)
                       Ddt_staticx.Sfind.all_rules))
                rs
        in
        if bad <> [] then begin
          Printf.eprintf "unknown rule(s): %s; known: %s\n"
            (String.concat ", " bad)
            (String.concat ", " Ddt_staticx.Sfind.all_rules);
          1
        end
        else begin
          let image =
            if fixed then entry.Corpus.fixed_image ()
            else entry.Corpus.image ()
          in
          let icfg = Ddt_staticx.Icfg.build image in
          let contracts, model =
            match entry.Corpus.driver_class with
            | Ddt_core.Config.Network ->
                ( Ddt_annot.Ndis_annotations.contracts,
                  Ddt_annot.Ndis_annotations.model )
            | Ddt_core.Config.Audio ->
                ( Ddt_annot.Portcls_annotations.contracts,
                  Ddt_annot.Portcls_annotations.model )
          in
          let findings =
            Ddt_staticx.Sfind.analyze ~contracts ~model ?rules icfg
          in
          if json then
            print_string
              (Ddt_core.Report_json.statics_to_string
                 ~driver:entry.Corpus.name
                 (List.map
                    (fun f ->
                      { Report.sf_rule = f.Ddt_staticx.Sfind.f_rule;
                        sf_func = f.Ddt_staticx.Sfind.f_func;
                        sf_pos = f.Ddt_staticx.Sfind.f_pos;
                        sf_message = f.Ddt_staticx.Sfind.f_msg;
                        sf_confirm = Report.Not_applicable })
                    findings))
          else begin
            Format.printf "%a" Ddt_staticx.Icfg.pp icfg;
            if findings = [] then Format.printf "no static findings@."
            else begin
              Format.printf "%d static finding(s):@." (List.length findings);
              List.iter
                (fun f -> Format.printf "  %a@." Ddt_staticx.Sfind.pp f)
                findings
            end
          end;
          if expect_clean then
            if icfg.Ddt_staticx.Icfg.universe = [] then begin
              prerr_endline "expect-clean: empty block universe";
              3
            end
            else if findings <> [] then begin
              prerr_endline "expect-clean: static findings present";
              3
            end
            else 0
          else 0
        end
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:"Run the interprocedural static pre-analysis on a driver")
    Term.(
      const run $ driver_arg $ fixed_flag $ expect_clean_flag $ json_flag
      $ rules_arg)

let stress_cmd =
  let runs_arg =
    Arg.(value & opt int 10 & info [ "runs" ] ~doc:"Stress iterations.")
  in
  let run short fixed runs =
    match find_entry short with
    | Error e -> prerr_endline e; 1
    | Ok entry ->
        let cfg = Corpus.config ~fixed entry in
        let r = Ddt_baseline.Stress.run ~runs cfg in
        Format.printf
          "stress (%d concrete runs, %.2fs): %d bug(s) found@."
          r.Ddt_baseline.Stress.s_runs r.Ddt_baseline.Stress.s_wall_time
          (List.length r.Ddt_baseline.Stress.s_bugs);
        List.iter
          (fun b -> Format.printf "  %a@." Report.pp_bug b)
          r.Ddt_baseline.Stress.s_bugs;
        0
  in
  Cmd.v
    (Cmd.info "stress" ~doc:"Run the Driver-Verifier-style stress baseline")
    Term.(const run $ driver_arg $ fixed_flag $ runs_arg)

let disasm_cmd =
  let run short fixed =
    match find_entry short with
    | Error e -> prerr_endline e; 1
    | Ok entry ->
        let image =
          if fixed then entry.Corpus.fixed_image () else entry.Corpus.image ()
        in
        Format.printf "%a" Ddt_dvm.Disasm.pp_listing image;
        0
  in
  Cmd.v
    (Cmd.info "disasm" ~doc:"Disassemble a driver binary")
    Term.(const run $ driver_arg $ fixed_flag)

let info_cmd =
  let run short fixed =
    match find_entry short with
    | Error e -> prerr_endline e; 1
    | Ok entry ->
        let image =
          if fixed then entry.Corpus.fixed_image () else entry.Corpus.image ()
        in
        let s = Ddt_dvm.Image.stats image in
        Format.printf
          "%s@.  binary size: %d bytes@.  code segment: %d bytes@.  \
           functions: %d@.  kernel imports: %d@."
          entry.Corpus.name s.Ddt_dvm.Image.binary_size
          s.Ddt_dvm.Image.code_size s.Ddt_dvm.Image.num_functions
          s.Ddt_dvm.Image.num_kernel_imports;
        0
  in
  Cmd.v
    (Cmd.info "info" ~doc:"Print Table 1 style image statistics")
    Term.(const run $ driver_arg $ fixed_flag)

(* Save each bug's replay script (and optional crash dumps) to a
   directory, then verify one can be re-executed. *)
let evidence_cmd =
  let dir_arg =
    Arg.(value & opt string "ddt-evidence"
         & info [ "out" ] ~doc:"Output directory for evidence files.")
  in
  let run short fixed dir =
    match find_entry short with
    | Error e -> prerr_endline e; 1
    | Ok entry ->
        let cfg =
          { (Corpus.config ~fixed entry) with
            Ddt_core.Config.collect_crashdumps = true }
        in
        let r = Ddt_core.Ddt.test_driver cfg in
        (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
        List.iteri
          (fun i b ->
            let path = Printf.sprintf "%s/%s-bug%d.replay" dir short (i + 1) in
            let oc = open_out path in
            output_string oc (Ddt_trace.Replay.to_string b.Report.b_replay);
            close_out oc;
            Format.printf "wrote %s (%s)@." path
              (Ddt_checkers.Report.string_of_kind b.Report.b_kind))
          r.Ddt_core.Session.r_bugs;
        List.iter
          (fun (state_id, dump) ->
            let path = Printf.sprintf "%s/%s-state%d.dmp" dir short state_id in
            let oc = open_out_bin path in
            output_bytes oc (Ddt_trace.Crashdump.to_bytes dump);
            close_out oc;
            Format.printf "wrote %s@." path)
          r.Ddt_core.Session.r_crashdumps;
        Format.printf "execution tree: %d states, depth %d@."
          (Ddt_trace.Tree.size r.Ddt_core.Session.r_tree)
          (Ddt_trace.Tree.depth r.Ddt_core.Session.r_tree);
        0
  in
  Cmd.v
    (Cmd.info "evidence"
       ~doc:"Run DDT and save replay scripts + crash dumps to disk")
    Term.(const run $ driver_arg $ fixed_flag $ dir_arg)

let replay_cmd =
  let script_arg =
    Arg.(required & pos 1 (some string) None
         & info [] ~docv:"SCRIPT" ~doc:"Replay script file (.replay).")
  in
  (* An unreadable or malformed script is a one-line error, like a bad
     checkpoint for `resume'. *)
  let read_script path =
    match
      Ddt_trace.Replay.of_string
        (In_channel.with_open_bin path In_channel.input_all)
    with
    | { Ddt_trace.Replay.rs_entry = ""; _ } -> Error "no entry line"
    | script -> Ok script
    | exception (Sys_error e | Failure e) -> Error e
  in
  let run short script_path =
    match find_entry short with
    | Error e -> prerr_endline e; 1
    | Ok entry -> (
        match read_script script_path with
        | Error e -> Printf.eprintf "cannot read replay script: %s\n" e; 1
        | Ok script ->
            Format.printf "%a@." Ddt_trace.Replay.pp script;
            let cfg =
              { (Corpus.config entry) with
                Ddt_core.Config.replay = Some script }
            in
            let r = Ddt_core.Ddt.test_driver cfg in
            Format.printf "%a" Ddt_core.Ddt.pp_report r;
            if r.Ddt_core.Session.r_bugs = [] then begin
              Format.printf "replay did NOT reproduce any bug@.";
              1
            end
            else 0)
  in
  Cmd.v
    (Cmd.info "replay"
       ~doc:"Re-execute a recorded failing path from its replay script")
    Term.(const run $ driver_arg $ script_arg)

let () =
  let doc = "DDT: testing closed-source binary device drivers" in
  exit
    (Cmd.eval'
       (Cmd.group (Cmd.info "ddt_cli" ~doc)
          [ list_cmd; test_cmd; resume_cmd;
            static_cmd; analyze_cmd; stress_cmd; disasm_cmd; info_cmd;
            evidence_cmd; replay_cmd ]))
