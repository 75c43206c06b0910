(** Constraint-independence slicing (Klee's first query optimization).

    Two constraints are dependent when they share a symbolic variable,
    directly or transitively through other constraints. {!partition}
    splits a constraint set into the equivalence classes of that relation
    (computed by union-find over {!Expr.vars}); the classes touch
    pairwise-disjoint variable sets, so each can be solved separately and
    the per-class models unioned into a model of the whole conjunction.

    Path conditions produced by driver exploration are dominated by many
    small independent facts (a registry parameter bound here, a status
    register bit there), so slicing turns one big query into several tiny
    ones — and keeps the {!Qcache} keys stable when a new constraint only
    touches one group. *)

val partition : Expr.t list -> Expr.t list list
(** Variable-disjoint groups, ordered by first appearance; constraints
    keep their relative order inside each group. Constraints with no
    variables (not folded away upstream) are gathered into one group. *)

val partition_vars :
  (Expr.t * Expr.var list) list -> (Expr.t * Expr.var list) list list
(** {!partition} for constraints already paired with their {!Expr.vars},
    which the groups keep. *)

val relevant : Expr.t list -> Expr.t -> Expr.t list
(** [relevant constraints e] keeps only the constraints in groups sharing
    a variable (transitively) with [e] — the slice that can influence the
    value of [e]. Order is preserved. *)
