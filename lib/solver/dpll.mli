(** A DPLL SAT solver with two-watched-literal unit propagation.

    Decisions follow a static occurrence-count order; conflicts trigger
    chronological backtracking over the decision trail. Sufficient for the
    circuit formulas produced by {!Bitblast} (driver path conditions are
    dominated by comparisons, masks and additions). *)

type result =
  | Sat of bool array
      (** [a.(v)] is the value of variable [v]; index 0 is unused. *)
  | Unsat

val solve : ?max_conflicts:int -> ?deadline:float -> Cnf.t -> result option
(** [None] when the conflict budget is exhausted (treat as unknown).
    [deadline] is an absolute [Unix.gettimeofday] instant; when given,
    the search also answers [None] once the clock passes it (polled
    every 256 conflicts), so one adversarial query cannot stall the
    engine indefinitely. *)
