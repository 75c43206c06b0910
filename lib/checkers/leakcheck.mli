(** Resource-leak detection.

    Driver contract (the one Driver Verifier enforces and the paper's
    Table 2 leaks violate): when an entry point fails — most notably
    Initialize returning a non-success status — every resource acquired
    during that invocation must have been released; and when the driver is
    halted, nothing may remain allocated at all. Runs on each terminated
    state, inspecting the per-invocation allocation ledger the kernel
    keeps. *)

val on_state_done : Report.sink -> Ddt_symexec.Symstate.t -> unit
