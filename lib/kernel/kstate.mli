(** Minikernel state.

    Everything the kernel knows about the driver under test: resource
    allocations, granted memory regions, spinlocks and the current IRQL,
    timers, registered entry points, the registry, the assigned PCI
    device, and pending deferred work. The whole record is deep-copyable
    because the symbolic engine forks complete system states (§4.1.2 of
    the paper — "each execution state consists conceptually of a complete
    system snapshot"). Dynamic checkers observe the driver at the
    kernel-API boundary (the engine's kcall hooks); per-path checker
    bookkeeping lives inside this record so it forks with the path. *)

(** {1 IRQLs} *)

val passive_level : int
val dispatch_level : int
val device_level : int

(** {1 Resources} *)

type alloc_kind =
  | Pool
  | Packet
  | Buffer
  | Packet_pool
  | Buffer_pool
  | Config_handle
  | Mapped_io
  | Interrupt_sync

val string_of_alloc_kind : alloc_kind -> string

type alloc = {
  a_id : int;
  a_addr : int;                 (** 0 for handle-only resources *)
  a_size : int;
  a_kind : alloc_kind;
  a_tag : int;
  a_invocation : int;           (** entry-point invocation that made it *)
  mutable a_freed : bool;
}

type region = {
  r_start : int;
  r_size : int;
  r_writable : bool;
  r_note : string;
}

type lock = {
  mutable l_held : bool;
  mutable l_old_irql : int;     (** IRQL saved by the acquiring call *)
  mutable l_dpr : bool;         (** acquired with the Dpr variant *)
  mutable l_seq : int;          (** acquisition order stamp *)
}

type timer = {
  mutable t_func : int;
  mutable t_ctx : int;
  mutable t_armed : bool;
  mutable t_periodic : bool;
}

type t

(** {1 Construction and forking} *)

val create :
  ?registry:(string * int) list -> device:Pci.assigned -> unit -> t

val copy : t -> t
(** Deep copy. *)

(** {1 Accessors used across the kernel and the engines} *)

val device : t -> Pci.assigned
val registry_find : t -> string -> int option
val irql : t -> int
val set_irql : t -> int -> unit
val in_dpc : t -> bool
val set_in_dpc : t -> bool -> unit
val in_isr : t -> bool
val set_in_isr : t -> bool -> unit

val entry_point : t -> string -> int option
val set_entry_point : t -> string -> int -> unit
val driver_ctx : t -> int
val set_driver_ctx : t -> int -> unit
val isr_registered : t -> bool
val set_isr_registered : t -> bool -> unit
val begin_invocation : t -> unit
(** Start the next entry-point invocation (see {!alloc}'s
    [a_invocation]). *)

val invocation : t -> int

(** {1 Allocation and region tracking} *)

val heap_alloc : t -> size:int -> kind:alloc_kind -> tag:int -> alloc
(** Bump-allocates driver-accessible memory, grants the region and
    records the resource. *)

val scratch_alloc : t -> size:int -> note:string -> int
(** Bump-allocate and grant a region {e without} recording a driver-owned
    resource — used by the exerciser for buffers it passes to entry points
    (they belong to the kernel, not the driver, so they must not count as
    driver leaks). *)

val handle_alloc : t -> kind:alloc_kind -> tag:int -> alloc
(** A resource with no memory behind it (config handles etc.); the handle
    value is [kernel_base + id * 16]. *)

val alloc_of_handle : t -> int -> alloc option
val alloc_of_addr : t -> int -> alloc option
val free_alloc : t -> alloc -> unit
val live_allocs : t -> alloc list
val live_allocs_of_invocation : t -> int -> alloc list

val grant : t -> region -> unit
val revoke_at : t -> int -> unit
val region_containing : t -> int -> region option

(** {1 Spinlocks} *)

val lock_at : t -> int -> lock option
val init_lock : t -> int -> unit
val destroy_lock : t -> int -> unit
val acquire_lock : t -> int -> dpr:bool -> unit
val release_lock : t -> int -> dpr:bool -> unit
val held_locks : t -> (int * lock) list
(** In reverse acquisition order (most recent first). *)

(** {1 Timers and deferred work} *)

val timer_at : t -> int -> timer option
val init_timer : t -> addr:int -> func:int -> ctx:int -> unit
val set_timer : t -> addr:int -> periodic:bool -> unit
(** @raise Bugcheck.Bugcheck if the timer object was never initialized —
    the paper's RTL8029 interrupt-before-timer-init crash. *)

val cancel_timer : t -> addr:int -> unit
val due_timers : t -> (int * timer) list
val disarm_timer : t -> int -> unit

(** {1 Statistics} *)

val kcall_count : t -> int
val bump_kcall : t -> unit
