type driver_class = Network | Audio

type workload_item =
  | W_initialize
  | W_query
  | W_set
  | W_send
  | W_play
  | W_stop
  | W_timers
  | W_interrupt
  | W_reset
  | W_halt

type t = {
  driver_name : string;
  image : Ddt_dvm.Image.t;
  driver_class : driver_class;
  descriptor : Ddt_kernel.Pci.descriptor;
  registry : (string * int) list;
  workload : workload_item list;
  use_annotations : bool;
  annotations : Ddt_annot.Annot.set;
  state_merging : bool;
  max_total_steps : int;
  concrete_device : int option;
  replay : Ddt_trace.Replay.script option;
  collect_crashdumps : bool;
}

let default_network_workload =
  [ W_initialize; W_timers; W_query; W_set; W_send; W_reset; W_timers; W_halt ]

let default_audio_workload =
  [ W_initialize; W_play; W_timers; W_stop; W_halt ]

let default_descriptor =
  { Ddt_kernel.Pci.vendor_id = 0x10EC; device_id = 0x8029; revision = 1;
    bar_sizes = [ 0x1000 ]; irq_line = 9 }

let make ~driver_name ~image ~driver_class ?(descriptor = default_descriptor)
    ?(registry = []) ?workload ?(use_annotations = true)
    ?annotations ?concrete_device ?replay ?(collect_crashdumps = false) () =
  let workload =
    match workload with
    | Some w -> w
    | None -> (
        match driver_class with
        | Network -> default_network_workload
        | Audio -> default_audio_workload)
  in
  let annotations =
    match annotations with
    | Some a -> a
    | None -> (
        match driver_class with
        | Network -> Ddt_annot.Ndis_annotations.set
        | Audio -> Ddt_annot.Portcls_annotations.set)
  in
  {
    driver_name; image; driver_class; descriptor; registry; workload;
    use_annotations; annotations; state_merging = true;
    max_total_steps = 3_000_000; concrete_device; replay;
    collect_crashdumps;
  }
