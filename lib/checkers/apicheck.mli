(** Kernel API usage-contract checking — the "incorrect uses of kernel
    APIs" bug class of §2, beyond what the lock checker covers.

    Rules:
    - [NdisFreeMemory] must pass the same length that was allocated
      (the kernel trusts the caller's length for pool bookkeeping);
    - [NdisMRegisterInterrupt] requires the miniport context to be set
      ([NdisMSetAttributes]) first — otherwise the ISR receives a null
      context;
    - allocation sizes must be non-zero. *)

val on_kcall_enter :
  Report.sink -> Ddt_symexec.Symstate.t -> string -> Ddt_kernel.Mach.t -> unit
