module Config = Ddt_core.Config
module Session = Ddt_core.Session
module Report = Ddt_checkers.Report

type result = {
  s_driver : string;
  s_bugs : Report.bug list;
  s_runs : int;
  s_wall_time : float;
}

(* Stress tools pound I/O with periodic interrupts between operations;
   they do not cleanly unload the driver between iterations, so Halt-time
   accounting is not part of the loop. *)
let stress_workload items =
  List.concat_map
    (fun item ->
      match item with
      | Config.W_initialize | Config.W_send | Config.W_play ->
          [ item; Config.W_interrupt ]
      | Config.W_halt -> []
      | _ -> [ item ])
    items

let run ?(runs = 10) ?(seed = 42) (cfg : Config.t) =
  let t0 = Unix.gettimeofday () in
  let bugs = ref [] in
  let seen = Hashtbl.create 16 in
  for i = 1 to runs do
    (* Fully concrete execution: seeded random hardware, real registry
       values, no annotations, and so no symbolic interrupts (the
       engine injects them only when device reads are symbolic). Nothing
       is symbolic, so no forking occurs and each run is one concrete
       path — exactly what a stress tool executes. *)
    let stress_cfg =
      {
        cfg with
        Config.use_annotations = false;
        concrete_device = Some (seed + (1000 * i));
        workload = stress_workload cfg.Config.workload;
        max_total_steps = 400_000;
      }
    in
    let r = Session.run stress_cfg in
    List.iter
      (fun b ->
        if not (Hashtbl.mem seen b.Report.b_key) then begin
          Hashtbl.add seen b.Report.b_key ();
          bugs := b :: !bugs
        end)
      r.Session.r_bugs
  done;
  {
    s_driver = cfg.Config.driver_name;
    s_bugs = List.rev !bugs;
    s_runs = runs;
    s_wall_time = Unix.gettimeofday () -. t0;
  }
