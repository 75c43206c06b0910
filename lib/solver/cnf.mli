(** CNF formula construction with Tseitin gates.

    Literals are non-zero ints: [v] for a positive occurrence of variable
    [v >= 1], [-v] for a negative one. Variable 1 is reserved as the
    constant TRUE (asserted as a unit clause on creation), so [lit_true]
    and [lit_false] are ordinary literals. *)

type t

val create : unit -> t
val fresh : t -> int                    (** a new variable, as a positive literal *)
val num_vars : t -> int
val clauses : t -> int array list       (** in insertion order *)
val add_clause : t -> int list -> unit

val lit_true : int
val lit_false : int

(** {1 Gates} — each returns a literal constrained to equal the gate output. *)

val g_and : t -> int -> int -> int
val g_or : t -> int -> int -> int
val g_xor : t -> int -> int -> int
val g_ite : t -> int -> int -> int -> int   (** [g_ite c a b] = if c then a else b *)
val g_maj : t -> int -> int -> int -> int   (** majority of three, for adder carries *)

val assert_lit : t -> int -> unit
val assert_implies : t -> int -> int -> unit   (** add clause [(-a) \/ b] *)
