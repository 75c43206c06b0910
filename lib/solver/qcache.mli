(** Counterexample cache (Klee's second query optimization), reduced to
    its superset rule: a stored {e Sat} model that satisfies a query
    answers it, checked by concrete evaluation — a cheap [Expr.eval]
    pass instead of a bit-blast.

    A query is a group's terms plus their variables, numbered by first
    occurrence. A stored model is an array of values indexed by that
    number, so a model found for one group applies to any later group
    whose variables line up with it, whatever their names. The cache
    holds the 12 most recent models; a lookup re-checks them newest
    first. Unsat and Unknown answers are not stored. *)

type t

type model = Expr.var -> int

type outcome =
  | Hit of model
      (** a stored model satisfies every term (verified by evaluation);
          each value is masked to its variable's width, and variables
          outside the model read 0 *)
  | Miss

val create : unit -> t
(** An empty cache. *)

type query
(** A group's terms and their variables, numbered once, so a lookup and
    the store after a miss share the work. *)

val query : (Expr.t * Expr.var list) list -> query
(** Each term with its variables ({!Expr.vars}), in the group's order. *)

val lookup : t -> query -> outcome
(** A miss also records the query's terms for {!export_entries}. *)

val store : t -> query -> model -> unit
(** Record a verified model of the query, valued at its variables, as
    the newest of the 12. *)

(** {1 Export} *)

type pentry = { pe_orig : Expr.t list  (** a missed group's terms *) }

val export_entries : t -> pentry list
(** Every group this cache missed on, oldest first. *)

(** An alias kept for perfbench/layer_trace.ml, its one caller. *)
module Sharded : sig
  type sharded = t

  val export_entries : sharded -> pentry list
end
