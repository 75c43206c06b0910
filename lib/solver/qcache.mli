(** Counterexample-style query cache over canonicalized constraint sets
    (Klee's second query optimization).

    Keys are constraint sets canonicalized ({!normalize}d, sorted by
    {!Expr.compare} and deduped) and then {e normalized up to variable renaming}: variables are
    renumbered in first-occurrence order with names erased, so
    structurally identical queries from different states or workers share
    one entry; stored models are translated back through the rename.
    Beyond exact hits, the cache applies the superset rule of
    counterexample caching: a cached {e Sat} model is re-checked against
    the renamed query by concrete evaluation — a cheap [Expr.eval] pass
    instead of a bit-blast — and reused on success. The subset rule (a
    cached Unsat set inside the query proves it Unsat) is left out: it
    never hit on the driver corpus.

    The store is bounded: past 4096 entries the least recently used
    quarter is evicted. A lookup re-tries the 12 most recent models. One
    mutex guards the whole cache, so one instance serves every worker
    domain. *)

type t

type model = Expr.var -> int
(** A hit's model builds its lookup tables the first time it is
    applied, so a caller that only needs the verdict pays nothing for
    them. *)

type outcome =
  | Exact_sat of model
      (** same canonical set (up to renaming) seen before *)
  | Exact_unsat
  | Reuse_sat of model
      (** a cached model satisfies the query (verified by evaluation);
          variables outside the model read as 0 *)
  | Miss

type info = {
  i_renamed : bool;
      (** the hit's stored original key differs from the query's — the
          entry came from a structurally identical but differently-named
          twin (only set for exact hits) *)
  i_owner : int;
      (** domain id that stored the winning entry or model; [-1] when
          unknown or on a miss *)
}

val create : unit -> t
(** An empty cache. *)

val normalize : Expr.t -> Expr.t
(** Put the operands of commutative operators, and the arms of an [ite]
    under a negated guard, in a canonical order stable under variable
    renaming. Not idempotent: apply it once, to an original term. *)

type query
(** A constraint set canonicalized and renamed once, so a lookup and
    the store after a miss share the work. *)

val query : Expr.t list -> query

val query_of_normalized : Expr.t list -> query
(** [query_of_normalized (List.map normalize cs)] is [query cs], for
    callers that keep each constraint's normalization. *)

val lookup : t -> query -> outcome * info
(** The query's outcome, and where a hit's entry or model came from. *)

val store_sat : t -> query -> (Expr.var -> int) -> unit
(** Record a verified model for the set (restricted to its variables). *)

val store_unsat : t -> query -> unit

val size : t -> int
val evictions : t -> int

(** {1 Entry export} *)

type verdict = V_sat of (Expr.var * int) list | V_unsat
(** A stored answer as plain data; [V_sat] pairs are in renamed space. *)

type pentry = {
  pe_key : Expr.t list;   (** renamed canonical key (process-independent) *)
  pe_orig : Expr.t list;  (** the first storer's original-space key *)
  pe_verdict : verdict;
}
(** The process-independent projection of a cache entry. Contains no
    closures and no process-local ids. *)

val export_entries : t -> pentry list
(** Every cache entry, in unspecified order. *)

(** An alias kept for perfbench/layer_trace.ml, its one caller. *)
module Sharded : sig
  type sharded = t

  val export_entries : sharded -> pentry list
end
