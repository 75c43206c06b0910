type t = { lo : int; hi : int }

let full w = { lo = 0; hi = Expr.mask_of_width w }
let singleton v = { lo = v; hi = v }
let is_singleton r = r.lo = r.hi

let meet a b =
  let lo = max a.lo b.lo and hi = min a.hi b.hi in
  if lo > hi then None else Some { lo; hi }

(* Conservative interval arithmetic: when an operation could wrap or is
   otherwise hard to bound we return the full range of the result width.
   Parameterized over an abstract environment: [lookup] ranges a
   variable, [refine] conditions the environment on a W1 guard (or
   reports the guard infeasible with [None]) so an [Ite] arm can be
   ranged under the facts its own guard implies — without this, a
   post-dominator merge that lifts a clamped index to
   [ite(count > 7, 7, count)] loses the clamp and the hull degrades to
   the full word range.

   Memoized, each distinct node keeps its ranges per environment it was
   reached in (by physical identity). [refine] hands back its input when
   a guard narrows nothing, so arms under uninformative guards share one
   environment and a merged DAG is ranged in linear time. *)
let range_gen ~lookup ~refine env e =
  let open Expr in
  run @@ fun m ->
  let rec go env e =
    let seen = memo m (fun _ -> ref []) e in
    match List.assq_opt env !seen with
    | Some r -> r
    | None ->
        let r = range env e in
        seen := (env, r) :: !seen;
        r
  and range env e =
    let w = width_of e in
    let top = full w in
    match e with
    | Const (_, v) -> singleton v
    | Var v -> lookup env v
    | Zext x -> go env x
    | Extract (x, i) ->
        (* byte i of x: exact once x is known to fit below byte i+1,
           because the mask then truncates nothing *)
        let r = go env x in
        if r.hi < 1 lsl (8 * (i + 1)) then
          { lo = r.lo lsr (8 * i); hi = r.hi lsr (8 * i) }
        else full W8
    | Concat4 (b3, b2, b1, b0) ->
        (* independent byte fields: the word is monotone in each *)
        let r3 = go env b3 and r2 = go env b2 and r1 = go env b1
        and r0 = go env b0 in
        { lo = (r3.lo lsl 24) lor (r2.lo lsl 16) lor (r1.lo lsl 8) lor r0.lo;
          hi = (r3.hi lsl 24) lor (r2.hi lsl 16) lor (r1.hi lsl 8) lor r0.hi }
    | Not x ->
        let r = go env x in
        if is_singleton r then singleton (1 - r.lo) else full W1
    | Ite (c, a, b) -> (
        let ra = Option.map (fun en -> go en a) (refine env c) in
        let rb = Option.map (fun en -> go en b) (refine env (not_ c)) in
        match ra, rb with
        | Some ra, Some rb -> { lo = min ra.lo rb.lo; hi = max ra.hi rb.hi }
        | Some r, None | None, Some r -> r (* other arm infeasible *)
        | None, None -> top)
    | Cmp (op, a, b) ->
        let ra = go env a and rb = go env b in
        let certain v = singleton v in
        (match op with
         | Eq ->
             if ra.hi < rb.lo || rb.hi < ra.lo then certain 0
             else if is_singleton ra && is_singleton rb && ra.lo = rb.lo
             then certain 1
             else full W1
         | Ne ->
             if ra.hi < rb.lo || rb.hi < ra.lo then certain 1
             else if is_singleton ra && is_singleton rb && ra.lo = rb.lo
             then certain 0
             else full W1
         | Ltu ->
             if ra.hi < rb.lo then certain 1
             else if ra.lo >= rb.hi then certain 0
             else full W1
         | Leu ->
             if ra.hi <= rb.lo then certain 1
             else if ra.lo > rb.hi then certain 0
             else full W1
         | Lts | Les ->
             (* Signed: only decide when both sides stay in the positive
                half, where signed and unsigned orders agree. *)
             let wa = width_of a in
             let half = 1 lsl (bits_of_width wa - 1) in
             if ra.hi < half && rb.hi < half then
               (match op with
                | Lts ->
                    if ra.hi < rb.lo then certain 1
                    else if ra.lo >= rb.hi then certain 0
                    else full W1
                | _ ->
                    if ra.hi <= rb.lo then certain 1
                    else if ra.lo > rb.hi then certain 0
                    else full W1)
             else full W1)
    | Binop (op, a, b) ->
        let ra = go env a and rb = go env b in
        let mask = mask_of_width w in
        (match op with
         | Add ->
             if ra.hi + rb.hi <= mask then
               { lo = ra.lo + rb.lo; hi = ra.hi + rb.hi }
             else top
         | Sub ->
             if ra.lo >= rb.hi then { lo = ra.lo - rb.hi; hi = ra.hi - rb.lo }
             else top
         | Mul ->
             (* The fits-without-wrap test must itself avoid overflowing
                the host integers: use division, not multiplication. *)
             if rb.hi = 0 || ra.hi <= mask / rb.hi then
               { lo = ra.lo * rb.lo; hi = ra.hi * rb.hi }
             else top
         | Divu ->
             if rb.lo > 0 then { lo = ra.lo / rb.hi; hi = ra.hi / rb.lo }
             else top
         | Remu ->
             (* Remu x 0 = x (SMT-LIB semantics), so when the divisor can
                be zero the dividend's range must be included. *)
             if rb.lo > 0 then { lo = 0; hi = rb.hi - 1 }
             else if rb.hi > 0 then { lo = 0; hi = max ra.hi (rb.hi - 1) }
             else ra
         | And -> { lo = 0; hi = min ra.hi rb.hi }
         | Or ->
             (* a lor b < 2^ceil(log2 (max+1)) for each operand, so round
                each bound up to all-ones of its bit length. *)
             let all_ones x =
               let rec go m = if m >= x then m else go ((m lsl 1) lor 1) in
               go 0
             in
             { lo = max ra.lo rb.lo;
               hi = min mask (all_ones ra.hi lor all_ones rb.hi) }
         | Xor -> top
         | Shl ->
             (match to_const b with
              | Some s
                when ra.hi <= mask lsr (s land (bits_of_width w - 1)) ->
                  let s = s land (bits_of_width w - 1) in
                  { lo = ra.lo lsl s; hi = ra.hi lsl s }
              | _ -> top)
         | Lshr ->
             (match to_const b with
              | Some s ->
                  let s = s land (bits_of_width w - 1) in
                  { lo = ra.lo lsr s; hi = ra.hi lsr s }
              | None -> { lo = 0; hi = ra.hi })
         | Ashr -> top)
  in
  go env e

let range_of lookup_var e =
  range_gen ~lookup:(fun () v -> lookup_var v)
    ~refine:(fun () _ -> Some ()) () e

type env = (int, t) Hashtbl.t

let lookup (env : env) (v : Expr.var) =
  match Hashtbl.find_opt env v.Expr.id with
  | Some r -> r
  | None -> full v.Expr.var_width

(* Narrow [v]'s interval using constraint [c]; true if narrowed. *)
let narrow env (v : Expr.var) (r : t) =
  let cur = lookup env v in
  match meet cur r with
  | None -> raise Exit
  | Some r' ->
      if r' = cur then false
      else begin
        Hashtbl.replace env v.Expr.id r';
        true
      end

(* Interpret constraints of shape (var CMP const) / (const CMP var),
   possibly through Zext. Returns true if some interval was narrowed. *)
let apply_constraint env c =
  let open Expr in
  let rec strip = function Zext x -> strip x | x -> x in
  let half w = 1 lsl (bits_of_width w - 1) in
  match c with
  | Cmp (op, lhs, Const (_, k)) -> (
      match strip lhs with
      | Var v ->
          let m = mask_of_width v.var_width in
          (match op with
           | Eq ->
               if k > m then raise Exit else narrow env v (singleton k)
           | Ltu ->
               if k = 0 then raise Exit
               else narrow env v { lo = 0; hi = min (k - 1) m }
           | Leu -> narrow env v { lo = 0; hi = min k m }
           | Lts when k < half v.var_width && k > 0 ->
               (* x <s k with k positive: x in [0, k-1] or negative half;
                  no single-interval narrowing possible, skip. *)
               false
           | _ -> false)
      | _ -> false)
  | Cmp (op, Const (_, k), rhs) -> (
      match strip rhs with
      | Var v ->
          let m = mask_of_width v.var_width in
          (match op with
           | Eq ->
               if k > m then raise Exit else narrow env v (singleton k)
           | Ltu ->
               if k >= m then raise Exit
               else narrow env v { lo = k + 1; hi = m }
           | Leu -> narrow env v { lo = min k m; hi = m }
           | _ -> false)
      | _ -> false)
  | Not (Cmp _) -> false (* simplifier normalizes these away *)
  | _ -> false

(* Condition a copy of [env] on a W1 guard: split its conjunctions and
   run the same narrowing loop [infer] uses. [None] means the guard
   contradicts the environment — that arm of an [Ite] is infeasible. *)
let refine_guard env c =
  let open Expr in
  let rec atoms acc = function
    | Binop (And, a, b) when width_of a = W1 -> atoms (atoms acc a) b
    | c -> c :: acc
  in
  let cs = atoms [] c in
  let env' = Hashtbl.copy env in
  let narrowed = ref false in
  match
    let changed = ref true and rounds = ref 0 in
    while !changed && !rounds < 4 do
      changed := false;
      incr rounds;
      List.iter (fun a -> if apply_constraint env' a then changed := true) cs;
      if !changed then narrowed := true
    done
  with
  | () -> Some (if !narrowed then env' else env)
  | exception Exit -> None

let range_within env e = range_gen ~lookup ~refine:refine_guard env e

let infer constraints =
  let env : env = Hashtbl.create 16 in
  try
    let changed = ref true in
    let rounds = ref 0 in
    while !changed && !rounds < 8 do
      changed := false;
      incr rounds;
      List.iter
        (fun c -> if apply_constraint env c then changed := true)
        constraints
    done;
    (* Soundness check: any constraint whose range is exactly {0} is a
       definite contradiction. *)
    let contradicted c =
      let r = range_of (lookup env) c in
      r.lo = 0 && r.hi = 0
    in
    if List.exists contradicted constraints then None else Some env
  with Exit -> None

let candidates env vs =
  let pick f v =
    let r = lookup env v in
    f r
  in
  [ (fun v -> pick (fun r -> r.lo) v);
    (fun v -> pick (fun r -> r.hi) v);
    (fun v -> pick (fun r -> (r.lo + r.hi) / 2) v);
    (fun v -> pick (fun r -> if r.lo <= 1 && 1 <= r.hi then 1 else r.lo) v) ]
  |> List.map (fun f ->
         let tbl = Hashtbl.create 8 in
         List.iter (fun v -> Hashtbl.replace tbl v.Expr.id (f v)) vs;
         fun (v : Expr.var) ->
           match Hashtbl.find_opt tbl v.Expr.id with
           | Some x -> x
           | None -> 0)
