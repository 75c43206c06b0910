(** Hang / infinite-loop detection ([34] in the paper).

    A state that exhausts its per-path instruction budget without
    terminating is flagged: driver code that never returns to the kernel
    hangs the machine at raised IRQL. The coverage heuristic already
    starves polling loops, so a state only reaches its full budget when
    every schedule keeps it spinning. *)

val on_state_done : Report.sink -> Ddt_symexec.Symstate.t -> unit
