(** Spinlock and IRQL discipline checking — the guest-OS-level verifier
    analog (Driver Verifier's lock rules, §3.1.2).

    Detected violations:
    - releasing with the wrong variant for the context: plain
      [NdisReleaseSpinLock] from a DPC (the Intel Pro/100 bug), or the
      [Dpr] variant for a lock acquired with the plain one;
    - releasing locks out of acquisition (LIFO) order;
    - returning from an entry point with locks still held;
    - calling [Dpr]-acquire outside DPC context.

    Acquiring a spinlock already held on the path and releasing one that
    is not held are not rules here: the kernel bugchecks on both
    ({!Ddt_kernel.Kstate.acquire_lock}, {!Ddt_kernel.Kstate.release_lock}),
    and {!Crashcheck} reports the crash once. *)

val on_kcall_enter :
  Report.sink -> Ddt_symexec.Symstate.t -> string -> Ddt_kernel.Mach.t -> unit

val on_state_done : Report.sink -> Ddt_symexec.Symstate.t -> unit
