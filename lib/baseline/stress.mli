(** The concrete stress-testing baseline — the Microsoft Driver Verifier
    analog of §5.1.

    Runs the driver {e concretely}: hardware reads return pseudo-random
    values, registry reads return the actual registry contents, kernel
    calls never fail, and an interrupt fires after each initialize, send
    and play operation.
    The same dynamic checkers watch the execution. The paper's finding —
    that this setup reproduces none of the 14 bugs DDT finds — comes from
    exactly what is missing here: no forking over allocation failure, no
    symbolic registry values, no OID sweep beyond the standard ones, and
    no interrupt at the precise boundary that exposes a race.

    Implemented over the symbolic engine with symbolic features disabled
    (no annotations) plus randomized concrete device values, which also
    turn off injected interrupts (the engine injects them only when
    device reads are symbolic), so the comparison isolates the
    technique, not the infrastructure. *)

type result = {
  s_driver : string;
  s_bugs : Ddt_checkers.Report.bug list;
  s_runs : int;
  s_wall_time : float;
}

val run :
  ?runs:int -> ?seed:int -> Ddt_core.Config.t -> result
(** [run cfg] executes [runs] (default 10) concrete stress iterations of
    the configured workload with different random seeds. *)
