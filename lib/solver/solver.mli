(** The constraint solver used by the symbolic execution engine.

    Decides satisfiability of a conjunction of width-1 expressions (path
    constraints) through a layered pipeline:

    + algebraic simplification — trivially true constraints are dropped,
      a trivially false one answers Unsat immediately;
    + constraint-independence slicing ({!Indep}) — the set is split into
      variable-disjoint groups solved separately, with the per-group
      models unioned;
    + per-group query cache ({!Qcache}) — a recently stored Sat model
      that satisfies the group answers it (the counterexample cache's
      superset rule);
    + interval inference — sound contradiction detection and cheap
      candidate models verified by concrete evaluation;
    + bit-blasting to CNF and DPLL search.

    Every Sat answer carries a model that has been {e verified} by
    evaluating all constraints under it (per variable-disjoint group).

    The engine's two questions about a path condition, {!feasible} and
    {!concretize_relevant}, query only the slice that can matter: the
    independence groups of the branch condition or value, read off the
    path condition's partition. That partition is memoized by the
    physical identity of the constraint list and extended one
    constraint at a time ({!Indep.add}) as states fork, so a query no
    longer re-partitions or re-looks-up every group of the path.

    Every layer is always on. The query cache is one process-wide
    {!Qcache.t}. *)

type model = Expr.var -> int

type result =
  | Sat of model
  | Unsat
  | Unknown

val check : Expr.t list -> result
(** Decide the conjunction. A constraint whose simplified form has no
    variables is decided by {!Expr.eval}; the rest are solved one
    independence group of {!partition_of} at a time. *)

val feasible : Expr.t list -> Expr.t -> bool
(** [feasible constraints extra] is whether [extra] can hold on the path
    [constraints], i.e. whether [check (extra :: constraints)] is not
    [Unsat]. Unknown is treated as feasible (the engine must never drop
    a path that might be real; over-approximation can only cost false
    positives, which the replay step weeds out).

    It solves only the groups holding [extra]'s variables. That is exact
    under the engine's invariant: a live path condition is never proven
    Unsat, because every constraint on it was checked feasible before it
    was added — fork conditions, assumptions and concretization pins —
    or is a replay pin, which fixes a variable minted in the same step
    to a constant of its width and so is satisfiable and shares no
    variable with the path when added; and a merged state's [or(ga, gb)]
    head joins two satisfiable paths over a shared base. *)

val concretize : Expr.t list -> Expr.t -> int option
(** [concretize constraints e] returns a feasible concrete value of [e]
    under the constraints, or [None] if they are unsatisfiable. On an
    Unknown verdict the zero valuation is tried and returned only when it
    {e verifiably} satisfies the constraints. *)

val concretize_relevant : Expr.t list -> Expr.t -> int option
(** [concretize_relevant constraints e] picks a feasible concrete value
    of [e] by querying only the {!Indep.slice} of the memoized partition
    over [e]'s variables. Values agree with {!concretize} on the full
    set: the slice contains every independence group that can influence
    [e] (a replay pin sits in its variable's group), and groups resolve
    through the same shared cache. The slice drops ground constraints,
    so unlike {!concretize} a constant-false constraint does not answer
    [None] here. *)

type prepared
(** A constraint prepared for the solver once: its simplified form and
    that form's variables. *)

val original : prepared -> Expr.t
(** The constraint as the path condition holds it. *)

val partition_of : Expr.t list -> prepared Indep.t
(** The memoized independence partition of a path condition, over the
    simplified constraints' variables (ground constraints belong to no
    group). Memoized by the physical identity of the list: a
    miss walks down to the nearest memoized tail, adds the constraints
    above it, and memoizes every tail it passed. Exposed for tests. *)

(** {1 The query cache} *)

val clear_cache : unit -> unit
(** Swap in a fresh, empty cache. *)

val current_cache : unit -> Qcache.t
(** The live cache instance; its one caller is perfbench's layer
    trace. {!clear_cache} swaps in a fresh instance, so re-fetch the
    handle after it. *)

(** {1 Solve budget}

    Each uncached group is solved once, with DPLL capped at 2M conflicts
    and 5 s of wall-clock time; a group that runs out of either is
    Unknown, is not cached, and is counted in [s_unknowns]. Callers treat
    Unknown conservatively ({!feasible}, {!concretize}). *)

val set_force_unknown : (unit -> bool) option -> unit
(** Test hook: when set, the hook is consulted once per uncached group
    solve, and [true] makes that solve answer Unknown without running.
    [None] (the default) disables it. *)

(** {1 Statistics}

    Counters are process-global, like the cache; a session's statistics
    are the difference of two {!stats} snapshots (see
    [Ddt_symexec.Exec]). *)

type stats = {
  mutable s_queries : int;          (** [check] calls *)
  mutable s_group_solves : int;
  (** per-group solves after slicing; a {!feasible} query counts only
      the groups of its slice *)
  mutable s_cache_model_reuse_hits : int;
  (** Sat via a re-checked cached model *)
  mutable s_cache_misses : int;
  mutable s_interval_solves : int;  (** groups settled by interval layer *)
  mutable s_bitblast_solves : int;  (** groups that reached CNF + DPLL *)
  mutable s_unknowns : int;
  (** uncached group solves left Unknown (conflict budget or deadline
      ran out, or forced by {!set_force_unknown}) *)
}
(** The solver keeps one such record of live counters; each field is
    bumped in place on the query path. *)

val stats : unit -> stats
(** A snapshot: a copy of the live counters, which later queries leave
    unchanged. *)
val diff_stats : stats -> stats -> stats
(** [diff_stats after before] — field-wise difference. *)

val cache_hits : stats -> int
(** Model-reuse hits, the cache's one rule. *)

val cache_hit_rate : stats -> float
(** Hits / (hits + misses), 0 when no cached lookups happened. *)
