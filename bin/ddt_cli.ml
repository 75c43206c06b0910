(* ddt — test closed-source binary device drivers from the command line.

   Subcommands:
     list                      show the bundled driver corpus
     test <driver>             run DDT on a corpus driver (buggy variant)
     test --fixed <driver>     ... on the repaired variant
     static <driver>           run the static-analysis baseline
     stress <driver>           run the concrete stress baseline
     disasm <driver>           print the driver binary's disassembly
     info <driver>             Table 1 style image statistics
     evidence <driver>         run DDT and save each bug's replay script
                               (and crash dumps) to a directory
     replay <driver> <script>  re-execute a recorded failing path *)

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

let no_merge_flag =
  let doc =
    "Disable dynamic state merging at branch post-dominators and fork on \
     every symbolic branch (the differential oracle the merging path is \
     validated against). Bug reports are identical either way; merging \
     only collapses the number of states explored."
  in
  Arg.(value & flag & info [ "no-merge" ] ~doc)

let json_out_arg =
  let doc =
    Printf.sprintf
      "Also write the machine-readable session report (JSON, schema v%d) \
       to $(docv), atomically (tmp + rename)."
      Ddt_core.Report_json.schema_version
  in
  Arg.(value & opt (some string) None & info [ "json-out" ] ~docv:"PATH" ~doc)

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
  let run short fixed no_annot traces no_merge json_out =
    match find_entry short with
    | Error e -> prerr_endline e; 1
    | Ok entry ->
        let cfg =
          Corpus.config ~fixed ~use_annotations:(not no_annot) entry
        in
        let cfg = { cfg with Ddt_core.Config.state_merging = not no_merge } in
        report_result ~traces ~json_out (Ddt_core.Ddt.test_driver cfg)
  in
  Cmd.v
    (Cmd.info "test" ~doc:"Test a driver binary with DDT")
    Term.(
      const run $ driver_arg $ fixed_flag $ no_annot_flag $ traces_flag
      $ no_merge_flag $ json_out_arg)

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

(* [dir] as a writable directory, created if it does not exist. *)
let output_dir dir =
  match Unix.mkdir dir 0o755 with
  | () -> Ok ()
  | exception Unix.Unix_error (Unix.EEXIST, _, _)
    when (try Sys.is_directory dir with Sys_error _ -> false) -> (
      match Unix.access dir [ Unix.W_OK; Unix.X_OK ] with
      | () -> Ok ()
      | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e))
  | exception Unix.Unix_error (Unix.EEXIST, _, _) -> Error "not a directory"
  | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)

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
        (* The directory is made ready before the session, so an
           unusable one costs no exploration. *)
        match output_dir dir with
        | Error e -> Printf.eprintf "evidence: cannot use %s: %s\n" dir e; 1
        | Ok () -> (
            let cfg =
              { (Corpus.config ~fixed entry) with
                Ddt_core.Config.collect_crashdumps = true }
            in
            let r = Ddt_core.Ddt.test_driver cfg in
            try
              List.iteri
                (fun i b ->
                  let path =
                    Printf.sprintf "%s/%s-bug%d.replay" dir short (i + 1)
                  in
                  Out_channel.with_open_bin path (fun oc ->
                      Out_channel.output_string oc
                        (Ddt_trace.Replay.to_string b.Report.b_replay));
                  Format.printf "wrote %s (%s)@." path
                    (Ddt_checkers.Report.string_of_kind b.Report.b_kind))
                r.Ddt_core.Session.r_bugs;
              List.iter
                (fun (state_id, dump) ->
                  let path =
                    Printf.sprintf "%s/%s-state%d.dmp" dir short state_id
                  in
                  Out_channel.with_open_bin path (fun oc ->
                      Out_channel.output_bytes oc
                        (Ddt_trace.Crashdump.to_bytes dump));
                  Format.printf "wrote %s@." path)
                r.Ddt_core.Session.r_crashdumps;
              let s = r.Ddt_core.Session.r_stats in
              Format.printf "execution tree: %d states, depth %d@."
                s.Ddt_symexec.Exec.st_states_created
                s.Ddt_symexec.Exec.st_tree_depth;
              0
            with Sys_error e -> Printf.eprintf "evidence: %s\n" e; 1)
  in
  Cmd.v
    (Cmd.info "evidence"
       ~doc:"Run DDT and save replay scripts + crash dumps to disk")
    Term.(const run $ driver_arg $ fixed_flag $ dir_arg)

(* Recorded scripts are a few kilobytes; 1 MiB leaves room to spare. *)
let max_script_bytes = 1 lsl 20

let replay_cmd =
  let script_arg =
    Arg.(required & pos 1 (some string) None
         & info [] ~docv:"SCRIPT" ~doc:"Replay script file (.replay).")
  in
  (* An unreadable, oversized or malformed script is a one-line error.
     The read stops one byte past the bound, so an endless input such as
     /dev/zero is refused too. *)
  let read_bounded path =
    In_channel.with_open_bin path (fun ic ->
        let buf = Bytes.create (max_script_bytes + 1) in
        let rec fill n =
          if n > max_script_bytes then n
          else
            match In_channel.input ic buf n (max_script_bytes + 1 - n) with
            | 0 -> n
            | k -> fill (n + k)
        in
        let n = fill 0 in
        if n > max_script_bytes then
          failwith (Printf.sprintf "longer than %d bytes" max_script_bytes)
        else Bytes.sub_string buf 0 n)
  in
  let read_script path =
    match Ddt_trace.Replay.of_string (read_bounded path) with
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
          [ list_cmd; test_cmd; static_cmd; stress_cmd;
            disasm_cmd; info_cmd; evidence_cmd; replay_cmd ]))
