(** Algebraic simplification of symbolic expressions.

    Rebuilds an expression bottom-up through the smart constructors of
    {!Expr} and applies a set of rewrite rules that the smart constructors
    do not: constant re-association, comparison shifting, boolean
    round-trip elimination ([zext b != 0] back to [b]), and range-based
    folding of comparisons against zero-extended narrow values.

    Simplification is semantics-preserving: for every environment [env],
    [Expr.eval env (simplify e) = Expr.eval env e]. The property test suite
    checks exactly this. *)

val simplify : Expr.t -> Expr.t

val simplify_bool : Expr.t -> Expr.t
(** [simplify_bool e] simplifies a width-1 expression used as a path
    condition. Same as {!simplify} but asserts the result width. *)

val prune : under:Expr.t list -> Expr.t -> Expr.t
(** [prune ~under e] simplifies [e] assuming every constraint in [under]
    holds: boolean subterms occurring verbatim in [under] become true
    (their verbatim negations false), collapsing [ite]s whose guards the
    path condition has since decided — the merged-state analog of branch
    folding. Semantics-preserving under all models of [under]. Linear in
    [List.length under] plus the distinct nodes of [e]; intended for the
    solver-bound slow path, not per-instruction use. *)
