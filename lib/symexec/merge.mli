(** Dynamic state merging at post-dominators (veritesting-style).

    The pool tracks *merge tokens*: a symbolic fork whose arms
    reconverge (per the static merge-point map) tags both children;
    tagged states park here when they reach the token's merge pc, and
    when the last live carrier parks or dies the token *folds* —
    compatible arrivals are fused into one state whose registers and
    copy-on-write memory are lifted to [ite(cond_b, v_b, v_a)] over the
    disjoined path-condition suffixes.

    Every compatible pair fuses; there is no cost policy, no cap on the
    store divergence or on nesting, and every reconverging fork opens a
    token. Fusion refuses only states whose kernel context, pending
    actions or checker-visible streams differ (replay runs open no
    tokens). On the corpus at
    default settings the failed fusion attempts are differing
    symbolic-input streams, kernel calls made inside an arm and differing
    injected fault sites: pro1000 403, 17 and 0; pro100 249, 285 and 66;
    rtl8029 0, 34 and 0.

    Folds hand their effects back as an {!outcome}, so the caller
    retires absorbed states and requeues survivors. *)

type t

(** What a fold decided; apply with the engine's own retire/requeue. *)
type outcome = {
  mo_requeue : Symstate.t list;   (** fold survivors, tag popped *)
  mo_absorbed : Symstate.t list;  (** fused away: retire unreported *)
}

type arrival =
  | A_continue  (** stale tag dropped — keep executing *)
  | A_parked of outcome
      (** the state now belongs to the pool; stop executing it *)

val create : unit -> t

val open_token :
  t ->
  merge_pc:int ->
  base:Ddt_solver.Expr.t list ->
  Symstate.t ->
  Symstate.t ->
  unit
(** Open a token for a fresh two-way fork whose arms reconverge at
    [merge_pc] and tag both states with it. [base] is the parent's
    constraint list captured before the fork consed either arm's
    constraint. Whether the arms later fuse is decided at the fold by
    the compatibility checks alone. *)

val note_fork : t -> Symstate.t -> Symstate.t -> unit
(** [note_fork t parent child]: the child inherited the parent's tags —
    each open token gains a carrier — and the parent's merge weight
    (forks by a state that absorbed siblings are forks avoided). *)

val on_arrival : t -> Symstate.t -> arrival
(** The state stands at its innermost token's merge pc; park it. The
    last carrier in triggers the fold. *)

val note_dead : t -> Symstate.t -> outcome
(** A carrier terminated without reaching its merge points: release
    every token it holds; the last release folds the parked siblings. *)

val drain_parked : t -> Symstate.t list
(** End-of-run safety valve: every still-parked state (sorted by state
    id), tags cleared and tokens dropped, for the engine's final drain
    to retire. *)

val stats : t -> int * int * int * int
(** (states merged, ites introduced, forks avoided, merges refused). *)
