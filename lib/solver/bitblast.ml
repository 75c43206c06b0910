(* Keyed by structural equality, so equal subterms share one circuit. *)
module ET = Hashtbl.Make (struct
  type t = Expr.t

  let equal = Expr.equal
  let hash = Hashtbl.hash
end)

type ctx = {
  c : Cnf.t;
  memo : int array ET.t;
  var_bits : (int, int array) Hashtbl.t; (* Expr var id -> literals *)
}

let create () =
  { c = Cnf.create (); memo = ET.create 64; var_bits = Hashtbl.create 16 }

let cnf ctx = ctx.c

let const_bits n v =
  Array.init n (fun i ->
      if (v lsr i) land 1 = 1 then Cnf.lit_true else Cnf.lit_false)

let var_bits ctx (v : Expr.var) =
  match Hashtbl.find_opt ctx.var_bits v.Expr.id with
  | Some bits -> bits
  | None ->
      let n = Expr.bits_of_width v.Expr.var_width in
      let bits = Array.init n (fun _ -> Cnf.fresh ctx.c) in
      Hashtbl.add ctx.var_bits v.Expr.id bits;
      bits

(* --- circuits ------------------------------------------------------- *)

let full_adder c a b cin =
  let s = Cnf.g_xor c (Cnf.g_xor c a b) cin in
  let cout = Cnf.g_maj c a b cin in
  (s, cout)

(* Returns (sum, carry_out). *)
let adder c xs ys =
  let n = Array.length xs in
  let out = Array.make n Cnf.lit_false in
  let carry = ref Cnf.lit_false in
  for i = 0 to n - 1 do
    let s, co = full_adder c xs.(i) ys.(i) !carry in
    out.(i) <- s;
    carry := co
  done;
  (out, !carry)

let negate_bits xs = Array.map (fun l -> -l) xs

let subtractor c xs ys =
  (* xs - ys = xs + ~ys + 1 *)
  let n = Array.length xs in
  let out = Array.make n Cnf.lit_false in
  let carry = ref Cnf.lit_true in
  for i = 0 to n - 1 do
    let s, co = full_adder c xs.(i) (-ys.(i)) !carry in
    out.(i) <- s;
    carry := co
  done;
  (out, !carry)

(* Full 2n-bit product of two n-bit vectors (shift-and-add). *)
let multiplier_full c xs ys =
  let n = Array.length xs in
  let acc = ref (Array.make (2 * n) Cnf.lit_false) in
  for i = 0 to n - 1 do
    let addend = Array.make (2 * n) Cnf.lit_false in
    for j = 0 to n - 1 do
      addend.(i + j) <- Cnf.g_and c xs.(j) ys.(i)
    done;
    let sum, _ = adder c !acc addend in
    acc := sum
  done;
  !acc

let multiplier c xs ys =
  let n = Array.length xs in
  Array.sub (multiplier_full c xs ys) 0 n

(* Unsigned less-than: scan LSB -> MSB; higher bits dominate. *)
let ult c xs ys =
  let n = Array.length xs in
  let res = ref Cnf.lit_false in
  for i = 0 to n - 1 do
    let eq = -Cnf.g_xor c xs.(i) ys.(i) in
    let lt_here = Cnf.g_and c (-xs.(i)) ys.(i) in
    res := Cnf.g_ite c eq !res lt_here
  done;
  !res

let eq_bits c xs ys =
  let n = Array.length xs in
  let acc = ref Cnf.lit_true in
  for i = 0 to n - 1 do
    acc := Cnf.g_and c !acc (-Cnf.g_xor c xs.(i) ys.(i))
  done;
  !acc

let mux_bits c sel xs ys =
  Array.init (Array.length xs) (fun i -> Cnf.g_ite c sel xs.(i) ys.(i))

(* Barrel shifter. [fill] supplies the bit shifted in; for ashr it is the
   sign bit. Shift amount is taken modulo the width (low log2 n bits). *)
let shifter c dir xs amount fill =
  let n = Array.length xs in
  let stages = match n with 8 -> 3 | 32 -> 5 | _ -> assert false in
  let cur = ref (Array.copy xs) in
  for s = 0 to stages - 1 do
    let k = 1 lsl s in
    let shifted =
      Array.init n (fun i ->
          match dir with
          | `Left -> if i - k >= 0 then !cur.(i - k) else Cnf.lit_false
          | `Right -> if i + k < n then !cur.(i + k) else fill)
    in
    cur := mux_bits c amount.(s) shifted !cur
  done;
  !cur

(* --- expression compilation ----------------------------------------- *)

let rec blast ctx e =
  match ET.find_opt ctx.memo e with
  | Some bits -> bits
  | None ->
      let bits = blast_uncached ctx e in
      ET.add ctx.memo e bits;
      bits

and blast_uncached ctx e =
  let open Expr in
  let c = ctx.c in
  match e with
  | Const (w, v) -> const_bits (bits_of_width w) v
  | Var v -> var_bits ctx v
  | Zext x ->
      let xs = blast ctx x in
      Array.init 32 (fun i ->
          if i < Array.length xs then xs.(i) else Cnf.lit_false)
  | Extract (x, i) -> Array.sub (blast ctx x) (8 * i) 8
  | Concat4 (b3, b2, b1, b0) ->
      Array.concat [ blast ctx b0; blast ctx b1; blast ctx b2; blast ctx b3 ]
  | Not x -> negate_bits (blast ctx x)
  | Ite (cond, a, b) ->
      let s = (blast ctx cond).(0) in
      mux_bits c s (blast ctx a) (blast ctx b)
  | Cmp (op, a, b) ->
      let xs = blast ctx a and ys = blast ctx b in
      let lit =
        match op with
        | Eq -> eq_bits c xs ys
        | Ne -> -eq_bits c xs ys
        | Ltu -> ult c xs ys
        | Leu -> -ult c ys xs
        | Lts -> ult c (flip_sign xs) (flip_sign ys)
        | Les -> -ult c (flip_sign ys) (flip_sign xs)
      in
      [| lit |]
  | Binop (op, a, b) -> (
      let xs = blast ctx a and ys = blast ctx b in
      match op with
      | Add -> fst (adder c xs ys)
      | Sub -> fst (subtractor c xs ys)
      | Mul -> multiplier c xs ys
      | And -> Array.init (Array.length xs) (fun i -> Cnf.g_and c xs.(i) ys.(i))
      | Or -> Array.init (Array.length xs) (fun i -> Cnf.g_or c xs.(i) ys.(i))
      | Xor -> Array.init (Array.length xs) (fun i -> Cnf.g_xor c xs.(i) ys.(i))
      | Shl -> shifter c `Left xs ys Cnf.lit_false
      | Lshr -> shifter c `Right xs ys Cnf.lit_false
      | Ashr -> shifter c `Right xs ys xs.(Array.length xs - 1)
      | Divu -> fst (divmod ctx xs ys)
      | Remu -> snd (divmod ctx xs ys))

and flip_sign xs =
  let xs = Array.copy xs in
  let msb = Array.length xs - 1 in
  xs.(msb) <- -xs.(msb);
  xs

(* q = a /u b, r = a %u b. Encoded as: if b = 0 then q = ~0, r = a
   else a = q*b + r (exactly, over the double-width product) and r <u b. *)
and divmod ctx xs ys =
  let c = ctx.c in
  let n = Array.length xs in
  let q = Array.init n (fun _ -> Cnf.fresh c) in
  let r = Array.init n (fun _ -> Cnf.fresh c) in
  let b_zero = eq_bits c ys (const_bits n 0) in
  (* b = 0 branch. *)
  Array.iter (fun l -> Cnf.assert_implies c b_zero l) q;
  Array.iteri (fun i l -> Cnf.assert_implies c b_zero (Cnf.g_ite c xs.(i) l (-l))) r;
  (* b <> 0 branch: product q*b must have no high bits, q*b + r = a with no
     carry out, and r <u b. *)
  let prod = multiplier_full c q ys in
  let imp lit = Cnf.assert_implies c (-b_zero) lit in
  for i = n to (2 * n) - 1 do
    imp (-prod.(i))
  done;
  let low = Array.sub prod 0 n in
  let sum, carry = adder c low r in
  imp (-carry);
  Array.iteri (fun i l -> imp (Cnf.g_ite c xs.(i) l (-l))) sum;
  imp (ult c r ys);
  (q, r)

let assert_true ctx e =
  assert (Expr.width_of e = Expr.W1);
  let bits = blast ctx e in
  Cnf.assert_lit ctx.c bits.(0)

let model_of ctx (assign : bool array) (v : Expr.var) =
  match Hashtbl.find_opt ctx.var_bits v.Expr.id with
  | None -> 0
  | Some bits ->
      let value = ref 0 in
      Array.iteri
        (fun i l ->
          let b =
            if l = Cnf.lit_true then true
            else if l = Cnf.lit_false then false
            else if l > 0 then assign.(l)
            else not assign.(-l)
          in
          if b then value := !value lor (1 lsl i))
        bits;
      !value
