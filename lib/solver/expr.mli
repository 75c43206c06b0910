(** Symbolic bitvector expressions.

    Expressions are the currency of the whole symbolic engine: machine words
    ({!W32}), memory bytes ({!W8}) and path-condition booleans ({!W1}).
    Constants are stored as non-negative OCaml ints masked to their width.
    Smart constructors perform constant folding and cheap algebraic
    rewriting, so an expression built only from constants is itself a
    constant. *)

type width = W1 | W8 | W32

type var = private { id : int; name : string; var_width : width }

type binop =
  | Add | Sub | Mul | Divu | Remu
  | And | Or | Xor
  | Shl | Lshr | Ashr

type cmpop = Eq | Ne | Ltu | Leu | Lts | Les

type t =
  | Const of width * int
  | Var of var
  | Binop of binop * t * t
  | Cmp of cmpop * t * t          (** result has width {!W1} *)
  | Ite of t * t * t              (** condition has width {!W1} *)
  | Extract of t * int            (** byte [i] (0 = LSB) of a {!W32} value *)
  | Concat4 of t * t * t * t      (** [Concat4 (b3, b2, b1, b0)]: b0 is LSB *)
  | Zext of t                     (** zero-extend {!W1}/{!W8} to {!W32} *)
  | Not of t                      (** boolean negation, width {!W1} *)

val bits_of_width : width -> int
val mask_of_width : width -> int
val width_of : t -> width

(** {1 Variables} *)

val fresh_var : ?name:string -> width -> var

(** {1 Smart constructors} *)

val const : width -> int -> t
val word : int -> t                 (** [const W32] *)
val byte : int -> t                 (** [const W8] *)
val tru : t
val fls : t
val var : var -> t
val binop : binop -> t -> t -> t
val cmp : cmpop -> t -> t -> t
val ite : t -> t -> t -> t
val extract : t -> int -> t
val concat4 : t -> t -> t -> t -> t
val zext : t -> t
val not_ : t -> t
val and1 : t -> t -> t              (** boolean conjunction on {!W1} *)
val or1 : t -> t -> t               (** boolean disjunction on {!W1} *)

(** {1 Queries} *)

val is_const : t -> bool
val to_const : t -> int option
val vars : t -> var list            (** distinct variables, in id order *)

(** A table keyed by variable id for walks that usually meet few
    distinct variables: it scans its entries while they are few and
    indexes them past a small threshold. *)
module Idtbl : sig
  type 'a t

  val create : unit -> 'a t
  val length : 'a t -> int
  val find_opt : 'a t -> int -> 'a option

  val add : 'a t -> int -> 'a -> unit
  (** The id must not be present yet. *)

  val values : 'a t -> 'a list
  (** In insertion order. *)
end


(** {1 Concrete evaluation} *)

val eval : (var -> int) -> t -> int
(** [eval env e] computes the concrete value of [e], masked to its width.
    The environment must be total on the variables of [e], and [eval] may
    call it more than once per variable. *)

(** {1 Concrete arithmetic helpers (32-bit semantics)} *)

val eval_binop : binop -> width -> int -> int -> int
val eval_cmp : cmpop -> width -> int -> int -> int
val to_signed : width -> int -> int

(** {1 Printing} *)

val pp : Format.formatter -> t -> unit
(** Infix notation. A term whose tree unfolding outgrows the walk budget
    (see below) prints as a DAG: a compound subterm referenced more than
    once is written [$k=...] at its first occurrence and [$k] after it. *)

val to_string : t -> string
val pp_var : Format.formatter -> var -> unit

(** {1 Equality} *)

val equal : t -> t -> bool
(** Structural equality. *)

(** {1 Sharing-aware traversal}

    Expressions are DAGs. A merged state lifts values to
    [ite(g, f x, h x)] whose arms share [x], so k nested merges unfold to
    a tree exponential in k over only O(k) distinct nodes. Every walk in
    this library (including {!equal}, {!vars} and {!eval}) walks plainly,
    as a tree, within a small node budget, and past it restarts memoized
    by physical identity, in time linear in the distinct nodes. Both
    modes compute the same value. *)

type 'a memo
(** The memo of one walk, in plain or memoized mode. *)

val memo : 'a memo -> (t -> 'a) -> t -> 'a
(** [memo m f e] is [f e]; in memoized mode it is computed once per
    physically distinct node. [f] recurses through [memo m], and its
    result may depend only on the node and on state created by the
    enclosing {!run} body. *)

val run : ('a memo -> 'r) -> 'r
(** [run body] is [body m] with [m] in plain mode. When the walk outgrows
    the budget, [body] is called again from the start in memoized mode,
    so [body] must create all of its mutable state itself. *)
