type width = W1 | W8 | W32

type var = { id : int; name : string; var_width : width }

type binop =
  | Add | Sub | Mul | Divu | Remu
  | And | Or | Xor
  | Shl | Lshr | Ashr

type cmpop = Eq | Ne | Ltu | Leu | Lts | Les

type t =
  | Const of width * int
  | Var of var
  | Binop of binop * t * t
  | Cmp of cmpop * t * t
  | Ite of t * t * t
  | Extract of t * int
  | Concat4 of t * t * t * t
  | Zext of t
  | Not of t

let bits_of_width = function W1 -> 1 | W8 -> 8 | W32 -> 32
let mask_of_width = function W1 -> 1 | W8 -> 0xFF | W32 -> 0xFFFFFFFF

let rec width_of = function
  | Const (w, _) -> w
  | Var v -> v.var_width
  | Binop (_, a, _) -> width_of a
  | Cmp _ -> W1
  | Ite (_, a, _) -> width_of a
  | Extract _ -> W8
  | Concat4 _ -> W32
  | Zext _ -> W32
  | Not _ -> W1

let var_counter = ref 0

let fresh_var ?(name = "v") w =
  incr var_counter;
  { id = !var_counter; name; var_width = w }

let const w v = Const (w, v land mask_of_width w)
let word v = const W32 v
let byte v = const W8 v
let tru = Const (W1, 1)
let fls = Const (W1, 0)
let var v = Var v

let to_signed w v =
  let bits = bits_of_width w in
  let sign_bit = 1 lsl (bits - 1) in
  if v land sign_bit <> 0 then v - (1 lsl bits) else v

let eval_binop op w a b =
  let mask = mask_of_width w in
  let bits = bits_of_width w in
  let r =
    match op with
    | Add -> a + b
    | Sub -> a - b
    | Mul -> a * b
    | Divu -> if b = 0 then mask else a / b
    | Remu -> if b = 0 then a else a mod b
    | And -> a land b
    | Or -> a lor b
    | Xor -> a lxor b
    | Shl -> a lsl (b land (bits - 1))
    | Lshr -> a lsr (b land (bits - 1))
    | Ashr -> to_signed w a asr (b land (bits - 1))
  in
  r land mask

let eval_cmp op w a b =
  let sa = to_signed w a and sb = to_signed w b in
  let holds =
    match op with
    | Eq -> a = b
    | Ne -> a <> b
    | Ltu -> a < b
    | Leu -> a <= b
    | Lts -> sa < sb
    | Les -> sa <= sb
  in
  if holds then 1 else 0

let is_const = function Const _ -> true | _ -> false
let to_const = function Const (_, v) -> Some v | _ -> None

(* --- sharing-aware traversal ----------------------------------------------- *)
(* Expressions are DAGs: a merged state lifts values to [ite(g, f x, h x)]
   whose arms share [x], so a chain of k merges has an exponential tree
   unfolding but only O(k) distinct nodes. Every recursive walk therefore
   runs in two modes. It first walks plainly, as a tree, within a node
   budget that ordinary path-condition terms never reach. If the budget
   runs out, it restarts with one memo entry per physically distinct node
   and costs time linear in the DAG. The two modes compute the same value;
   only the sharing of rebuilt results differs. *)

module Phys = Hashtbl.Make (struct
  type nonrec t = t

  let equal = ( == )
  let hash = Hashtbl.hash
end)

exception Unshared

let plain_budget = 1024

type 'a memo = { mutable left : int; table : 'a Phys.t option }

let memo m f e =
  match m.table with
  | None ->
      m.left <- m.left - 1;
      if m.left < 0 then raise_notrace Unshared;
      f e
  | Some tbl -> (
      match e with
      | Const _ | Var _ -> f e
      | _ -> (
          match Phys.find_opt tbl e with
          | Some r -> r
          | None ->
              let r = f e in
              Phys.add tbl e r;
              r))

let run body =
  try body { left = plain_budget; table = None }
  with Unshared -> body { left = 0; table = Some (Phys.create 64) }

(* Pairs of nodes, by physical identity, already proven to compare equal. *)
module Pairs = Hashtbl.Make (struct
  type nonrec t = t * t

  let equal (a, b) (c, d) = a == c && b == d
  let hash (a, b) = (Hashtbl.hash a * 65599) + Hashtbl.hash b
end)

(* Results of the lockstep walk: the budget left (>= 0) while the
   operands are equal so far, otherwise one of these. *)
let unequal = -1
let exhausted = -2

(* Equality walks [a] and [b] in lockstep and stops at the first unequal
   pair, so every pair it finishes is equal: in memo mode [proven]
   remembers those, which bounds the walk by the distinct pairs. *)
let rec eq proven left a b =
  if a == b || left < 0 then left
  else if match proven with Some p -> Pairs.mem p (a, b) | None -> false then
    left
  else if left = 0 then exhausted
  else begin
    let left = left - 1 in
    let left =
      match a, b with
      | Const (w1, v1), Const (w2, v2) -> if w1 == w2 && v1 = v2 then left else unequal
      | Var v1, Var v2 -> if v1 == v2 || v1 = v2 then left else unequal
      | Binop (o1, x1, y1), Binop (o2, x2, y2) ->
          if o1 == o2 then eq proven (eq proven left x1 x2) y1 y2 else unequal
      | Cmp (o1, x1, y1), Cmp (o2, x2, y2) ->
          if o1 == o2 then eq proven (eq proven left x1 x2) y1 y2 else unequal
      | Ite (c1, x1, y1), Ite (c2, x2, y2) ->
          eq proven (eq proven (eq proven left c1 c2) x1 x2) y1 y2
      | Extract (x1, i1), Extract (x2, i2) ->
          if i1 = i2 then eq proven left x1 x2 else unequal
      | Concat4 (a3, a2, a1, a0), Concat4 (b3, b2, b1, b0) ->
          let left = eq proven (eq proven left a3 b3) a2 b2 in
          eq proven (eq proven left a1 b1) a0 b0
      | Zext x1, Zext x2 | Not x1, Not x2 -> eq proven left x1 x2
      | _ -> unequal
    in
    (match proven with Some p when left >= 0 -> Pairs.add p (a, b) () | _ -> ());
    left
  end

let equal (a : t) (b : t) =
  a == b
  ||
  let r = eq None plain_budget a b in
  (if r = exhausted then eq (Some (Pairs.create 64)) max_int a b else r) >= 0

let binop op a b =
  let w = width_of a in
  match a, b, op with
  | Const (_, x), Const (_, y), _ -> const w (eval_binop op w x y)
  | x, Const (_, 0), (Add | Sub | Or | Xor | Shl | Lshr | Ashr) -> x
  | Const (_, 0), x, (Add | Or | Xor) -> x
  | _, Const (_, 0), (Mul | And) -> const w 0
  (* not [Divu]: 0 /u 0 is all ones *)
  | Const (_, 0), _, (Mul | And | Remu | Shl | Lshr | Ashr) -> const w 0
  | x, Const (_, 1), (Mul | Divu) -> x
  | Const (_, 1), x, Mul -> x
  | x, Const (_, m), And when m = mask_of_width w -> x
  | Const (_, m), x, And when m = mask_of_width w -> x
  | _, Const (_, m), Or when m = mask_of_width w -> const w m
  | x, y, (And | Or) when equal x y -> x
  | x, y, (Xor | Sub) when equal x y -> const w 0
  | x, y, Remu when equal x y -> const w 0
  | _ -> Binop (op, a, b)

let cmp op a b =
  let w = width_of a in
  match a, b with
  | Const (_, x), Const (_, y) -> Const (W1, eval_cmp op w x y)
  | x, y when equal x y -> (
      match op with
      | Eq | Leu | Les -> tru
      | Ne | Ltu | Lts -> fls)
  | _ -> Cmp (op, a, b)

let not_ e =
  match e with
  | Const (W1, v) -> Const (W1, 1 - v)
  | Not x -> x
  | Cmp (Eq, a, b) -> cmp Ne a b
  | Cmp (Ne, a, b) -> cmp Eq a b
  | Cmp (Ltu, a, b) -> cmp Leu b a
  | Cmp (Leu, a, b) -> cmp Ltu b a
  | Cmp (Lts, a, b) -> cmp Les b a
  | Cmp (Les, a, b) -> cmp Lts b a
  | _ -> Not e

let ite c a b =
  match c with
  | Const (W1, 1) -> a
  | Const (W1, 0) -> b
  | _ -> if equal a b then a else Ite (c, a, b)

let zext e =
  match e with
  | Const (W1, v) | Const (W8, v) -> Const (W32, v)
  | _ when width_of e = W32 -> e
  | _ -> Zext e

let extract e i =
  assert (i >= 0 && i < 4);
  match e with
  | Const (_, v) -> byte ((v lsr (8 * i)) land 0xFF)
  | Concat4 (b3, b2, b1, b0) -> (
      match i with 0 -> b0 | 1 -> b1 | 2 -> b2 | _ -> b3)
  | Zext inner when width_of inner = W8 ->
      if i = 0 then inner else byte 0
  | Zext inner when width_of inner = W1 ->
      if i = 0 then Ite (inner, byte 1, byte 0) else byte 0
  | _ -> Extract (e, i)

let concat4 b3 b2 b1 b0 =
  match b3, b2, b1, b0 with
  | Const (_, v3), Const (_, v2), Const (_, v1), Const (_, v0) ->
      word ((v3 lsl 24) lor (v2 lsl 16) lor (v1 lsl 8) lor v0)
  | Extract (e3, 3), Extract (e2, 2), Extract (e1, 1), Extract (e0, 0)
    when equal e3 e2 && equal e2 e1 && equal e1 e0 ->
      e0
  | _ -> Concat4 (b3, b2, b1, b0)

let and1 a b =
  match a, b with
  | Const (W1, 0), _ | _, Const (W1, 0) -> fls
  | Const (W1, 1), x | x, Const (W1, 1) -> x
  | x, y when equal x y -> x
  | _ -> Binop (And, a, b)

let or1 a b =
  match a, b with
  | Const (W1, 1), _ | _, Const (W1, 1) -> tru
  | Const (W1, 0), x | x, Const (W1, 0) -> x
  | x, y when equal x y -> x
  | _ -> Binop (Or, a, b)

let eval env e =
  run (fun m ->
      let rec go e = memo m value e
      and value = function
        | Const (_, v) -> v
        | Var v -> env v land mask_of_width v.var_width
        | Binop (op, a, b) -> eval_binop op (width_of a) (go a) (go b)
        | Cmp (op, a, b) -> eval_cmp op (width_of a) (go a) (go b)
        | Ite (c, a, b) -> if go c = 1 then go a else go b
        | Extract (x, i) -> (go x lsr (8 * i)) land 0xFF
        | Concat4 (b3, b2, b1, b0) ->
            (go b3 lsl 24) lor (go b2 lsl 16) lor (go b1 lsl 8) lor go b0
        | Zext x -> go x
        | Not x -> 1 - go x
      in
      go e)

(* Most walks meet a handful of distinct variables, so the table scans
   its entries while they are few and indexes them once they pass
   [few]. The entry list is kept either way: it is the insertion order. *)
module Idtbl = struct
  type 'a t = {
    mutable items : (int * 'a) list;  (* newest first *)
    mutable count : int;
    mutable index : (int, 'a) Hashtbl.t option;
  }

  let few = 8
  let create () = { items = []; count = 0; index = None }
  let length t = t.count

  let rec scan id = function
    | [] -> None
    | (i, x) :: rest -> if i = id then Some x else scan id rest

  let find_opt t id =
    match t.index with
    | Some h -> Hashtbl.find_opt h id
    | None -> scan id t.items

  let add t id x =
    t.items <- (id, x) :: t.items;
    t.count <- t.count + 1;
    match t.index with
    | Some h -> Hashtbl.add h id x
    | None ->
        if t.count > few then begin
          let h = Hashtbl.create 32 in
          List.iter (fun (i, x) -> Hashtbl.add h i x) t.items;
          t.index <- Some h
        end

  let values t = List.rev_map snd t.items
end

let vars e =
  run (fun m ->
      let seen = Idtbl.create () in
      let rec go e = memo m visit e
      and visit = function
        | Const _ -> ()
        | Var v ->
            if Idtbl.find_opt seen v.id = None then Idtbl.add seen v.id v
        | Binop (_, a, b) | Cmp (_, a, b) -> go a; go b
        | Ite (c, a, b) -> go c; go a; go b
        | Extract (x, _) | Zext x | Not x -> go x
        | Concat4 (b3, b2, b1, b0) -> go b3; go b2; go b1; go b0
      in
      go e;
      List.sort (fun a b -> Stdlib.compare a.id b.id) (Idtbl.values seen))

let string_of_binop = function
  | Add -> "+" | Sub -> "-" | Mul -> "*" | Divu -> "/u" | Remu -> "%u"
  | And -> "&" | Or -> "|" | Xor -> "^"
  | Shl -> "<<" | Lshr -> ">>u" | Ashr -> ">>s"

let string_of_cmpop = function
  | Eq -> "==" | Ne -> "!=" | Ltu -> "<u" | Leu -> "<=u"
  | Lts -> "<s" | Les -> "<=s"

let pp_var fmt v = Format.fprintf fmt "%s#%d" v.name v.id

(* One node, its children printed by [k]. *)
let pp_node k fmt = function
  | Const (W1, v) -> Format.fprintf fmt "%db1" v
  | Const (W8, v) -> Format.fprintf fmt "0x%02x" v
  | Const (W32, v) -> Format.fprintf fmt "0x%x" v
  | Var v -> pp_var fmt v
  | Binop (op, a, b) ->
      Format.fprintf fmt "(%a %s %a)" k a (string_of_binop op) k b
  | Cmp (op, a, b) ->
      Format.fprintf fmt "(%a %s %a)" k a (string_of_cmpop op) k b
  | Ite (c, a, b) -> Format.fprintf fmt "(if %a then %a else %a)" k c k a k b
  | Extract (x, i) -> Format.fprintf fmt "%a[%d]" k x i
  | Concat4 (b3, b2, b1, b0) ->
      Format.fprintf fmt "{%a,%a,%a,%a}" k b3 k b2 k b1 k b0
  | Zext x -> Format.fprintf fmt "zext(%a)" k x
  | Not x -> Format.fprintf fmt "!%a" k x

let children = function
  | Const _ | Var _ -> []
  | Binop (_, a, b) | Cmp (_, a, b) -> [ a; b ]
  | Ite (c, a, b) -> [ c; a; b ]
  | Extract (x, _) | Zext x | Not x -> [ x ]
  | Concat4 (b3, b2, b1, b0) -> [ b3; b2; b1; b0 ]

(* The tree unfolding has at most [plain_budget] nodes; the walk stops
   as soon as it has seen more. *)
let fits_plain e =
  let m = { left = plain_budget; table = None } in
  let rec go e = memo m (fun e -> List.iter go (children e)) e in
  match go e with () -> true | exception Unshared -> false

(* A term whose tree unfolding outgrows the budget is printed as a DAG:
   a compound subterm referenced more than once is named at its first
   occurrence, [$k=(...)], and printed as [$k] after that, so the text
   stays linear in the distinct nodes. *)
let pp fmt e =
  let rec tree fmt e = pp_node tree fmt e in
  if fits_plain e then tree fmt e
  else begin
    let refs = Phys.create 64 in
    let rec count e =
      match Phys.find_opt refs e with
      | Some n -> Phys.replace refs e (n + 1)
      | None ->
          Phys.add refs e 1;
          List.iter count (children e)
    in
    count e;
    let names = Phys.create 64 in
    let rec dag fmt e =
      match Phys.find_opt names e with
      | Some k -> Format.fprintf fmt "$%d" k
      | None ->
          (match e with
           | Const _ | Var _ -> ()
           | _ ->
               if Phys.find refs e > 1 then begin
                 let k = Phys.length names + 1 in
                 Phys.add names e k;
                 Format.fprintf fmt "$%d=" k
               end);
          pp_node dag fmt e
    in
    dag fmt e
  end

let to_string e = Format.asprintf "%a" pp e
