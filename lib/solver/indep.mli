(** Constraint-independence slicing (Klee's first query optimization).

    Two constraints are dependent when they share a symbolic variable,
    directly or transitively through other constraints. A partition
    holds the equivalence classes of that relation over {!Expr.vars};
    the classes touch pairwise-disjoint variable sets, so each can be
    solved separately and the per-class models unioned into a model of
    the whole conjunction.

    Path conditions produced by driver exploration are dominated by many
    small independent facts (a registry parameter bound here, a status
    register bit there), so slicing turns one big query into several tiny
    ones — and keeps the {!Qcache} keys stable when a new constraint only
    touches one group. *)

(** {1 Persistent partitions}

    The partition of a path condition, kept as the list grows at its
    head: {!add} extends a partition by one constraint in time
    proportional to the smaller groups it joins, and the old value stays
    valid, so forked path conditions share their common tail's
    partition. Members are of any type ['a] standing for a constraint:
    the solver keeps each constraint's prepared form (simplified term
    and variables) there, so a query built from a slice prepares
    nothing again. *)

type 'a t

val empty : 'a t
(** The partition of the empty path condition. *)

val add : 'a t -> 'a -> Expr.var list -> 'a t
(** [add t c vs] is [t] with [c], whose variables are [vs], pushed on
    the head of the path condition. A constraint without variables is
    not kept: ground constraints belong to no group. *)

val slice : 'a t -> Expr.var list -> 'a list
(** [slice t vs] is the union of the groups holding any of [vs] — every
    constraint that can influence a value over [vs] — in path-condition
    order (newest first). Variables no constraint mentions contribute
    nothing. *)

val groups : 'a t -> 'a list list
(** Every group, each in path-condition order; the order of the groups
    is unspecified. *)
