(** Test-session configuration: the driver binary under test, its fake
    device, the registry it will read, the workload to exercise it with,
    and the knobs of the exploration engine. *)

type driver_class = Network | Audio

type workload_item =
  | W_initialize
  | W_query          (** OID query sweep (symbolic OID under annotations) *)
  | W_set
  | W_send           (** one packet (symbolic contents under annotations) *)
  | W_play
  | W_stop
  | W_timers         (** fire every timer the driver armed *)
  | W_interrupt      (** one top-level interrupt (stress-style timing) *)
  | W_reset          (** the miniport Reset handler, if registered *)
  | W_halt

type t = {
  driver_name : string;
  image : Ddt_dvm.Image.t;
  driver_class : driver_class;
  descriptor : Ddt_kernel.Pci.descriptor;
  registry : (string * int) list;
  workload : workload_item list;
  use_annotations : bool;
  (** master switch for the §5.1 ablation: disables both the API
      annotation set and the concrete-to-symbolic workload hints *)
  annotations : Ddt_annot.Annot.set;
  state_merging : bool;
  (** fuse sibling states at branch post-dominators (on by default;
      [ddt_cli test --no-merge] turns it off, replays never merge) *)
  max_total_steps : int;
  (** instructions each workload phase may run (3 000 000 by default;
      the stress baseline lowers it) *)
  concrete_device : int option;
  (** [Some seed]: hardware reads return seeded pseudo-random concrete
      bytes instead of symbolic values (stress-baseline mode) *)
  replay : Ddt_trace.Replay.script option;
  (** re-execute a recorded failing path deterministically (§3.5) *)
  collect_crashdumps : bool;
  (** snapshot every crashed state as a WinDbg-style crash dump *)
}

val default_network_workload : workload_item list
val default_audio_workload : workload_item list

val make :
  driver_name:string ->
  image:Ddt_dvm.Image.t ->
  driver_class:driver_class ->
  ?descriptor:Ddt_kernel.Pci.descriptor ->
  ?registry:(string * int) list ->
  ?workload:workload_item list ->
  ?use_annotations:bool ->
  ?annotations:Ddt_annot.Annot.set ->
  ?concrete_device:int ->
  ?replay:Ddt_trace.Replay.script ->
  ?collect_crashdumps:bool ->
  unit -> t
