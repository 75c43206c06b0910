(* Symbolic interrupts in action (§3.3 of the paper).

   The Ensoniq AudioPCI-alike driver has two windows in which a device
   interrupt crashes the machine: during initialization (before its DMA
   buffer exists) and while starting playback (before the current-buffer
   pointer is published). Classic stress testing never fires an interrupt
   at exactly those instants; symbolic interrupts fork execution at every
   kernel/driver boundary crossing and land in both windows.

   The stress baseline ([Ddt_baseline.Stress], `ddt_cli stress`) drives
   the same binary with a concrete device and interrupts between
   operations; DDT makes device reads symbolic, which also turns on
   symbolic interrupt injection.

     dune exec examples/find_races.exe *)

module Report = Ddt_checkers.Report

let races bugs =
  List.filter (fun b -> b.Report.b_kind = Report.Race_condition) bugs

let () =
  let cfg =
    Ddt_drivers.Corpus.config (Ddt_drivers.Corpus.find "audiopci")
  in
  Format.printf "--- classic stress testing ---@.";
  let stress = Ddt_baseline.Stress.run cfg in
  Format.printf "%d concrete runs: %d bug(s), %d race condition(s)@.@."
    stress.Ddt_baseline.Stress.s_runs
    (List.length stress.Ddt_baseline.Stress.s_bugs)
    (List.length (races stress.Ddt_baseline.Stress.s_bugs));

  Format.printf "--- DDT with symbolic interrupts ---@.";
  let rs = races (Ddt_core.Ddt.test_driver cfg).Ddt_core.Session.r_bugs in
  Format.printf "race conditions found: %d@." (List.length rs);
  List.iter (fun b -> Format.printf "  %a@." Report.pp_bug b) rs;

  (* Show where the interrupt was injected on the first racing path. *)
  match rs with
  | [] -> ()
  | b :: _ ->
      Format.printf "@.injection points on the failing path:@.";
      List.iter
        (fun e ->
          match e with
          | Ddt_trace.Event.E_interrupt { site; phase } ->
              Format.printf "  interrupt at %s (%s)@." site phase
          | _ -> ())
        (List.rev b.Report.b_events)
