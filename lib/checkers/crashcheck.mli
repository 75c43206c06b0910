(** Kernel-crash interception (§3.1, §3.4.1).

    Converts crashed execution states — VM faults in driver code, kernel
    bugchecks, Driver-Verifier-style violations — into bug reports. Crashes
    that happen in interrupt context (in an ISR or DPC reached through a
    symbolic interrupt) are classified as race conditions, matching how
    the paper attributes its Table 2 findings. *)

val on_state_done : Report.sink -> Ddt_symexec.Symstate.t -> unit
