(** Counterexample-style query cache over canonicalized constraint sets
    (Klee's second query optimization).

    Keys are constraint sets canonicalized by {!canon} (sorted, deduped)
    and then {e normalized up to variable renaming}: variables are
    renumbered in first-occurrence order with names erased, so
    structurally identical queries from different states or workers share
    one entry; stored models are translated back through the rename.
    Beyond exact hits, the cache applies the two subset/superset rules of
    counterexample caching:

    - a cached {e Unsat} set that is a subset of the query (in original,
      un-renamed space — a renamed subset generally renumbers differently
      than the same subset inside a larger query) proves the query Unsat;
    - a cached {e Sat} model is re-checked against the renamed query by
      concrete evaluation — a cheap [Expr.eval] pass instead of a
      bit-blast — and reused on success.

    The store is bounded: when it exceeds its capacity the least recently
    used quarter is evicted. One plain cache instance is {e not}
    thread-safe; the process-wide shared instance is {!Sharded}. *)

type t

type model = Expr.var -> int
(** A hit's model builds its lookup tables the first time it is
    applied, so a caller that only needs the verdict pays nothing for
    them. *)

type outcome =
  | Exact_sat of model
      (** same canonical set (up to renaming) seen before *)
  | Exact_unsat
  | Subset_unsat  (** a cached Unsat set is a subset of the query *)
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

val no_info : info

val create : ?capacity:int -> ?model_reuse:int -> unit -> t
(** [capacity] bounds the number of entries (default 4096);
    [model_reuse] bounds how many recent models are tried per lookup
    (default 12). *)

val normalize : Expr.t -> Expr.t
(** Put the operands of commutative operators, and the arms of an [ite]
    under a negated guard, in a canonical order stable under variable
    renaming. Not idempotent: apply it once, to an original term. *)

val canon : Expr.t list -> Expr.t list
(** {!normalize} each constraint, sort by {!Expr.compare} and drop
    duplicates — the canonical key. *)

type query
(** A constraint set canonicalized and renamed once, so a lookup and
    the store after a miss share the work. *)

val query : Expr.t list -> query

val query_of_normalized : Expr.t list -> query
(** [query_of_normalized (List.map normalize cs)] is [query cs], for
    callers that keep each constraint's normalization. *)

val lookup : t -> Expr.t list -> outcome
val lookup_info : t -> Expr.t list -> outcome * info

val store_sat : t -> Expr.t list -> (Expr.var -> int) -> unit
(** Record a verified model for the set (restricted to its variables). *)

val store_unsat : t -> Expr.t list -> unit

val size : t -> int
val evictions : t -> int
val clear : t -> unit

(** {1 Entry export} *)

type verdict = V_sat of (Expr.var * int) list | V_unsat
(** A stored answer as plain data; [V_sat] pairs are in renamed space. *)

type pentry = {
  pe_key : Expr.t list;   (** renamed canonical key (process-independent) *)
  pe_orig : Expr.t list;  (** original-space key, feeds the subset index *)
  pe_verdict : verdict;
}
(** The process-independent projection of a cache entry. Contains no
    closures and no process-local ids. *)

(** A process-wide cache shared by all worker domains: shard by the hash
    of the renamed canonical key, one mutex per shard, atomics for the
    statistics. Exact/renamed hits always land in the right shard (same
    renamed key, same shard); model reuse only consults the query's home
    shard. Subset-Unsat proofs are recovered cross-shard: a shared Bloom
    filter over the constraints of every stored Unsat core gates, on a
    home-shard miss, a probe of the remaining shards' subset indexes (one
    shard lock at a time — the locks are never widened). *)
module Sharded : sig
  type sharded

  val create :
    ?shards:int -> ?capacity:int -> ?model_reuse:int -> unit -> sharded
  (** [capacity] is the total bound, split evenly across [shards]
      (default 8 shards); [model_reuse] applies per shard. *)

  val lookup : sharded -> query -> outcome * info

  val store_sat : sharded -> query -> (Expr.var -> int) -> unit
  val store_unsat : sharded -> query -> unit
  val size : sharded -> int
  val evictions : sharded -> int
  val clear : sharded -> unit
  val n_shards : sharded -> int

  type counts = {
    sc_lookups : int;
    sc_hits : int;
    sc_misses : int;
    sc_renamed_hits : int;
        (** exact hits whose stored original key differed from the query *)
    sc_cross_hits : int;
        (** hits on entries or models stored by a different domain *)
    sc_bloom_hits : int;
        (** subset-Unsat hits recovered from a non-home shard via the
            Bloom-gated cross-shard probe *)
  }

  val counts : sharded -> counts
  (** Always satisfies [sc_hits + sc_misses = sc_lookups]. *)

  val bloom_recoveries : sharded -> int

  (** {1 Entry export} *)

  val export_entries : sharded -> pentry list
  (** Every cache entry, in unspecified order. *)

  (** {1 Checkpointing} *)

  type dump
  (** The complete cache state as marshal-safe data — entries, subset
      indexes, model-reuse lists in order, LRU ticks, Bloom bits and
      statistics — so a resumed run replays the killed run's lookup
      outcomes exactly. The dump aliases live tables: serialize it
      before any further solver activity. *)

  val dump : sharded -> dump

  val import : sharded -> dump -> bool
  (** Load a dump into a freshly created cache of the same geometry.
      [false] (nothing imported) on a shard/Bloom geometry mismatch;
      the caller proceeds cold. *)
end
