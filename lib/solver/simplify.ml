open Expr

(* One top-level rewrite step applied to an already-recursively-simplified
   node. Returns [None] when no rule fires. *)
let step e =
  match e with
  (* ((x + c1) + c2)  -->  x + (c1 + c2); same with mixed add/sub. *)
  | Binop (Add, Binop (Add, x, Const (w, c1)), Const (_, c2)) ->
      Some (binop Add x (const w (c1 + c2)))
  | Binop (Add, Binop (Sub, x, Const (w, c1)), Const (_, c2)) ->
      Some (binop Add x (const w (c2 - c1)))
  | Binop (Sub, Binop (Add, x, Const (w, c1)), Const (_, c2)) ->
      Some (binop Add x (const w (c1 - c2)))
  | Binop (Sub, Binop (Sub, x, Const (w, c1)), Const (_, c2)) ->
      Some (binop Sub x (const w (c1 + c2)))
  (* Constant on the left of a commutative op: move right. *)
  | Binop (((Add | Mul | And | Or | Xor) as op), (Const _ as c), x)
    when not (is_const x) ->
      Some (binop op x c)
  (* (x + c == d)  -->  (x == d - c), and friends; addition on W32 is a
     bijection so equality/disequality transfer exactly. *)
  | Cmp ((Eq | Ne) as op, Binop (Add, x, Const (w, c)), Const (_, d)) ->
      Some (cmp op x (const w (d - c)))
  | Cmp ((Eq | Ne) as op, Binop (Sub, x, Const (w, c)), Const (_, d)) ->
      Some (cmp op x (const w (d + c)))
  (* zext b != 0  -->  b ; zext b == 0  -->  !b   (b of width 1). *)
  | Cmp (Ne, Zext b, Const (_, 0)) when width_of b = W1 -> Some b
  | Cmp (Eq, Zext b, Const (_, 0)) when width_of b = W1 -> Some (not_ b)
  | Cmp (Eq, Zext b, Const (_, 1)) when width_of b = W1 -> Some b
  | Cmp (Ne, Zext b, Const (_, 1)) when width_of b = W1 -> Some (not_ b)
  (* Comparisons of a zero-extended byte against out-of-range constants. *)
  | Cmp (Eq, Zext b, Const (_, c)) when width_of b = W8 ->
      if c > 0xFF then Some fls else Some (cmp Eq b (byte c))
  | Cmp (Ne, Zext b, Const (_, c)) when width_of b = W8 ->
      if c > 0xFF then Some tru else Some (cmp Ne b (byte c))
  | Cmp (Ltu, Zext b, Const (_, c)) when width_of b = W8 && c > 0xFF ->
      Some tru
  | Cmp (Leu, Zext b, Const (_, c)) when width_of b = W8 && c >= 0xFF ->
      Some tru
  | Cmp (Ltu, Const (_, c), Zext b) when width_of b = W8 && c >= 0xFF ->
      Some fls
  (* Unsigned division of a zero-extended byte by a byte-sized non-zero
     constant stays within the byte: do it at W8, where the divider
     circuit is a quarter the width. (Division by 0 is all-ones at each
     width, so that case does not commute with the extension.) *)
  | Binop (((Divu | Remu) as op), Zext x, Const (_, c))
    when width_of x = W8 && c > 0 && c <= 0xFF ->
      Some (zext (binop op x (byte c)))
  (* An unsigned value is never below zero and always >= 0. *)
  | Cmp (Ltu, _, Const (_, 0)) -> Some fls
  | Cmp (Leu, Const (_, 0), _) -> Some tru
  (* if c then 1 else 0 (width 1 arms) is just c. *)
  | Ite (c, Const (W1, 1), Const (W1, 0)) -> Some c
  | Ite (c, Const (W1, 0), Const (W1, 1)) -> Some (not_ c)
  (* zext (if c then a else b) --> if c then zext a else zext b when the
     arms are constants: lets comparisons above it fold. *)
  | Cmp (op, Ite (c, (Const _ as a), (Const _ as b)), (Const _ as d)) ->
      Some (ite c (cmp op a d) (cmp op b d))
  | Cmp (op, (Const _ as d), Ite (c, (Const _ as a), (Const _ as b))) ->
      Some (ite c (cmp op d a) (cmp op d b))
  (* Ite pushdown through operators when both arms are constants: the
     merged-state pattern ite(g, k1, k2) op k folds to ite(g, k1', k2'),
     keeping lifted values as cheap as the constants they replaced. *)
  | Binop (op, Ite (c, (Const _ as a), (Const _ as b)), (Const _ as d)) ->
      Some (ite c (binop op a d) (binop op b d))
  | Binop (op, (Const _ as d), Ite (c, (Const _ as a), (Const _ as b))) ->
      Some (ite c (binop op d a) (binop op d b))
  | Extract (Ite (c, (Const _ as a), (Const _ as b)), i) ->
      Some (ite c (extract a i) (extract b i))
  | Zext (Ite (c, (Const _ as a), (Const _ as b))) ->
      Some (ite c (zext a) (zext b))
  (* Nested ite on the same guard: the inner decision is already made. *)
  | Ite (c, Ite (c', a, _), b) when equal c c' -> Some (ite c a b)
  | Ite (c, a, Ite (c', _, b)) when equal c c' -> Some (ite c a b)
  (* Negated guard: swap arms so structurally-equal lifts (one built from
     the taken arm, one from the fallthrough) normalize to one shape. *)
  | Ite (Not c, a, b) -> Some (ite c b a)
  | Binop (And, Binop (And, x, Const (w, c1)), Const (_, c2)) ->
      Some (binop And x (const w (c1 land c2)))
  | Binop (Or, Binop (Or, x, Const (w, c1)), Const (_, c2)) ->
      Some (binop Or x (const w (c1 lor c2)))
  | _ -> None

let rec fixpoint n e =
  if n = 0 then e
  else
    match step e with
    | None -> e
    | Some e' -> fixpoint (n - 1) e'

(* [e'] was rebuilt from [e] over the same child objects and nothing
   rewrote the node itself. *)
let unchanged e e' =
  match e, e' with
  | Binop (o, a, b), Binop (o', a', b') -> o == o' && a == a' && b == b'
  | Cmp (o, a, b), Cmp (o', a', b') -> o == o' && a == a' && b == b'
  | Ite (c, a, b), Ite (c', a', b') -> c == c' && a == a' && b == b'
  | Extract (x, i), Extract (x', i') -> x == x' && i = i'
  | Concat4 (b3, b2, b1, b0), Concat4 (b3', b2', b1', b0') ->
      b3 == b3' && b2 == b2' && b1 == b1' && b0 == b0'
  | Zext x, Zext x' | Not x, Not x' -> x == x'
  | _ -> false

(* The result shares every subterm the rules left alone with the input
   (an already simplified term comes back as the same object), and,
   memoized, a subterm shared in the input stays shared in the output:
   the walks downstream of the simplifier stay linear, and path
   conditions and their simplified forms share memory. *)
let simplify e =
  run (fun m ->
      let rec go e = memo m rebuild e
      and rebuild e =
        let e' =
          match e with
          | Const _ | Var _ -> e
          | Binop (op, a, b) -> binop op (go a) (go b)
          | Cmp (op, a, b) -> cmp op (go a) (go b)
          | Ite (c, a, b) -> ite (go c) (go a) (go b)
          | Extract (x, i) -> extract (go x) i
          | Concat4 (b3, b2, b1, b0) -> concat4 (go b3) (go b2) (go b1) (go b0)
          | Zext x -> zext (go x)
          | Not x -> not_ (go x)
        in
        let e' = fixpoint 8 e' in
        if unchanged e e' then e else e'
      in
      go e)

let simplify_bool e =
  let e' = simplify e in
  assert (width_of e' = W1);
  e'

(* --- pruning under known path conditions -------------------------------- *)

module EH = Hashtbl.Make (struct
  type t = Expr.t

  let equal = Expr.equal
  let hash = Hashtbl.hash
end)

(* Rewrite [e] assuming every constraint in [under] holds: boolean
   subterms that occur verbatim in the path condition become true (their
   verbatim negations false), which collapses [Ite]s whose guards a
   merged state has since re-decided. Substituting a truth value for a
   subterm equivalent to it under ALL models of the path condition is
   sound in any position, including under [Not]. Meant for the slow
   path: callers about to hand [e] to the solver anyway. *)
let prune ~under e =
  let known = EH.create (2 * List.length under) in
  List.iter
    (fun c ->
      EH.replace known c true;
      match c with
      | Not c' -> EH.replace known c' false
      | Cmp (Eq, a, b) -> EH.replace known (Cmp (Ne, a, b)) false
      | Cmp (Ne, a, b) -> EH.replace known (Cmp (Eq, a, b)) false
      | _ -> ())
    under;
  let pruned =
    run (fun m ->
        let rec go e = memo m decide e
        and decide e =
          match EH.find_opt known e with
          | Some true when width_of e = W1 -> tru
          | Some false when width_of e = W1 -> fls
          | _ -> (
              match e with
              | Const _ | Var _ -> e
              | Ite (c, a, b) -> (
                  let c' = go c in
                  match to_const c' with
                  | Some 1 -> go a
                  | Some 0 -> go b
                  | _ -> ite c' (go a) (go b))
              | Binop (op, a, b) -> binop op (go a) (go b)
              | Cmp (op, a, b) -> cmp op (go a) (go b)
              | Extract (x, i) -> extract (go x) i
              | Concat4 (b3, b2, b1, b0) ->
                  concat4 (go b3) (go b2) (go b1) (go b0)
              | Zext x -> zext (go x)
              | Not x -> not_ (go x))
        in
        go e)
  in
  simplify pruned
