(* Tests for ddt_solver: expressions, simplification, intervals, SAT and
   the end-to-end constraint solver. *)

open Ddt_solver

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* --- Expr ------------------------------------------------------------ *)

let test_const_fold () =
  let open Expr in
  check_int "add" 7 (match binop Add (word 3) (word 4) with
    | Const (_, v) -> v | _ -> -1);
  check_int "sub wrap" 0xFFFFFFFF
    (match binop Sub (word 0) (word 1) with Const (_, v) -> v | _ -> -1);
  check_int "mul mask" ((0xFFFF * 0x10001) land 0xFFFFFFFF)
    (match binop Mul (word 0xFFFF) (word 0x10001) with
     | Const (_, v) -> v | _ -> -1);
  check_int "divu by zero = all ones" 0xFFFFFFFF
    (match binop Divu (word 42) (word 0) with Const (_, v) -> v | _ -> -1);
  check_int "remu by zero = dividend" 42
    (match binop Remu (word 42) (word 0) with Const (_, v) -> v | _ -> -1)

let test_identities () =
  let open Expr in
  let v = var (fresh_var W32) in
  check_bool "x+0" true (equal (binop Add v (word 0)) v);
  check_bool "x*1" true (equal (binop Mul v (word 1)) v);
  check_bool "x&0" true (equal (binop And v (word 0)) (word 0));
  check_bool "x^x" true (equal (binop Xor v v) (word 0));
  check_bool "0%x" true (equal (binop Remu (word 0) v) (word 0));
  check_int "0/x is all ones at x = 0" 0xFFFFFFFF
    (eval (fun _ -> 0) (binop Divu (word 0) v));
  check_bool "x==x" true (equal (cmp Eq v v) tru);
  check_bool "x<x" true (equal (cmp Ltu v v) fls);
  check_bool "not not" true (equal (not_ (not_ (cmp Eq v (word 5))))
                               (cmp Eq v (word 5)))

let test_not_pushes_into_cmp () =
  let open Expr in
  let v = var (fresh_var W32) in
  check_bool "!(a<b) = b<=a" true
    (equal (not_ (cmp Ltu v (word 9))) (cmp Leu (word 9) v));
  check_bool "!(a==b) = a!=b" true
    (equal (not_ (cmp Eq v (word 9))) (cmp Ne v (word 9)))

let test_extract_concat_roundtrip () =
  let open Expr in
  let v = var (fresh_var W32) in
  let rebuilt =
    concat4 (extract v 3) (extract v 2) (extract v 1) (extract v 0)
  in
  check_bool "concat of extracts folds" true (equal rebuilt v);
  check_int "extract of const" 0xAB
    (match extract (word 0xAB1234CD) 3 with Const (_, x) -> x | _ -> -1)

let test_eval_signed () =
  let open Expr in
  check_int "lts negative" 1
    (eval_cmp Lts W32 0xFFFFFFFF 0 (* -1 < 0 signed *));
  check_int "ltu same values" 0 (eval_cmp Ltu W32 0xFFFFFFFF 0);
  check_int "ashr sign fill" 0xFFFFFFFF (eval_binop Ashr W32 0x80000000 31);
  check_int "lshr no fill" 1 (eval_binop Lshr W32 0x80000000 31)

(* Random expression generator for semantic-preservation properties. *)
let gen_expr =
  let open QCheck.Gen in
  let open Expr in
  (* A small pool of variables shared across the expression. *)
  let mk_vars () =
    [| fresh_var ~name:"a" W32; fresh_var ~name:"b" W32;
       fresh_var ~name:"c" W8 |]
  in
  let vars = mk_vars () in
  let leaf =
    oneof
      [ map (fun v -> word v) (int_bound 0xFFFF);
        map (fun v -> word (v land 0xFFFFFFFF)) int;
        return (var vars.(0));
        return (var vars.(1));
        map (fun v -> byte v) (int_bound 255) ]
  in
  let binops = [| Add; Sub; Mul; Divu; Remu; And; Or; Xor; Shl; Lshr; Ashr |] in
  let cmpops = [| Eq; Ne; Ltu; Leu; Lts; Les |] in
  let rec go depth =
    if depth = 0 then leaf
    else
      frequency
        [ (2, leaf);
          (4,
           (fun op a b ->
              let a = if width_of a = W8 then zext a else a in
              let b = if width_of b = W8 then zext b else b in
              binop op a b)
           <$> map (fun i -> binops.(i)) (int_bound 10)
           <*> go (depth - 1) <*> go (depth - 1));
          (2,
           (fun op a b ->
              let a = if width_of a = W8 then zext a else a in
              let b = if width_of b = W8 then zext b else b in
              zext (cmp op a b))
           <$> map (fun i -> cmpops.(i)) (int_bound 5)
           <*> go (depth - 1) <*> go (depth - 1));
          (1,
           (fun c a b ->
              let a = if width_of a = W8 then zext a else a in
              let b = if width_of b = W8 then zext b else b in
              ite (cmp Ne (if width_of c = W8 then zext c else c) (word 0)) a b)
           <$> go (depth - 1) <*> go (depth - 1) <*> go (depth - 1));
          (1, map (fun e ->
                 let e = if width_of e = W8 then zext e else e in
                 zext (extract e 1)) (go (depth - 1))) ]
  in
  go 3

let arb_expr = QCheck.make ~print:Expr.to_string gen_expr

let random_env seed =
  let st = Random.State.make [| seed |] in
  let tbl = Hashtbl.create 8 in
  fun (v : Expr.var) ->
    match Hashtbl.find_opt tbl v.Expr.id with
    | Some x -> x
    | None ->
        let x = Random.State.int st 0x3FFFFFFF in
        Hashtbl.replace tbl v.Expr.id x;
        x

let prop_simplify_preserves_semantics =
  QCheck.Test.make ~count:500 ~name:"simplify preserves eval" arb_expr
    (fun e ->
      let e' = Simplify.simplify e in
      List.for_all
        (fun seed ->
          let env = random_env seed in
          Expr.eval env e = Expr.eval env e')
        [ 1; 2; 3; 42; 1234 ])

let prop_smart_constructors_preserve =
  QCheck.Test.make ~count:500 ~name:"eval within width mask" arb_expr
    (fun e ->
      let env = random_env 7 in
      let v = Expr.eval env e in
      v >= 0 && v <= Expr.mask_of_width (Expr.width_of e))

let prop_simplify_idempotent =
  QCheck.Test.make ~count:300 ~name:"simplify is idempotent" arb_expr
    (fun e ->
      let once = Simplify.simplify e in
      Expr.equal (Simplify.simplify once) once)

(* --- Interval --------------------------------------------------------- *)

let test_interval_infeasible () =
  let open Expr in
  let v = var (fresh_var W32) in
  (* v < 5 and v > 10 is infeasible. *)
  let cs = [ cmp Ltu v (word 5); cmp Ltu (word 10) v ] in
  check_bool "contradiction detected" true (Interval.infer cs = None)

let test_interval_narrowing () =
  let open Expr in
  let x = fresh_var W32 in
  let cs = [ cmp Ltu (var x) (word 100); cmp Ltu (word 50) (var x) ] in
  match Interval.infer cs with
  | None -> Alcotest.fail "should be feasible"
  | Some env ->
      let r = Interval.lookup env x in
      check_int "lo" 51 r.Interval.lo;
      check_int "hi" 99 r.Interval.hi

let test_interval_range_of () =
  let open Expr in
  let x = fresh_var W8 in
  let r =
    Interval.range_of
      (fun _ -> Interval.full W8)
      (binop Add (zext (var x)) (word 10))
  in
  check_int "lo" 10 r.Interval.lo;
  check_int "hi" 265 r.Interval.hi

(* Soundness: for any expression and any environment consistent with the
   per-variable ranges, the evaluated value lies within [range_of]. *)
let prop_interval_sound =
  QCheck.Test.make ~count:300 ~name:"interval range_of is sound" arb_expr
    (fun e ->
      let vars = Expr.vars e in
      (* Random per-variable singleton ranges double as the environment. *)
      let st = Random.State.make [| Hashtbl.hash (Expr.to_string e) |] in
      let assignment = Hashtbl.create 8 in
      List.iter
        (fun (v : Expr.var) ->
          let r =
            (Random.State.int st 0x10000 lsl 16) lor Random.State.int st 0x10000
          in
          Hashtbl.replace assignment v.Expr.id
            (r land Expr.mask_of_width v.Expr.var_width))
        vars;
      let env (v : Expr.var) =
        try Hashtbl.find assignment v.Expr.id with Not_found -> 0
      in
      let lookup (v : Expr.var) = Interval.singleton (env v) in
      let r = Interval.range_of lookup e in
      let value = Expr.eval env e in
      r.Interval.lo <= value && value <= r.Interval.hi)

(* --- DPLL ------------------------------------------------------------- *)

let test_dpll_simple_sat () =
  let c = Cnf.create () in
  let a = Cnf.fresh c and b = Cnf.fresh c in
  Cnf.add_clause c [ a; b ];
  Cnf.add_clause c [ -a; b ];
  (match Dpll.solve c with
   | Some (Dpll.Sat m) -> check_bool "b true" true m.(b)
   | _ -> Alcotest.fail "expected sat")

let test_dpll_unsat () =
  let c = Cnf.create () in
  let a = Cnf.fresh c in
  Cnf.add_clause c [ a ];
  Cnf.add_clause c [ -a ];
  check_bool "unsat" true (Dpll.solve c = Some Dpll.Unsat)

let test_dpll_pigeonhole () =
  (* 3 pigeons, 2 holes: classic small UNSAT instance. *)
  let c = Cnf.create () in
  let p = Array.init 3 (fun _ -> Array.init 2 (fun _ -> Cnf.fresh c)) in
  for i = 0 to 2 do
    Cnf.add_clause c [ p.(i).(0); p.(i).(1) ]
  done;
  for h = 0 to 1 do
    for i = 0 to 2 do
      for j = i + 1 to 2 do
        Cnf.add_clause c [ -p.(i).(h); -p.(j).(h) ]
      done
    done
  done;
  check_bool "pigeonhole unsat" true (Dpll.solve c = Some Dpll.Unsat)

(* Compare DPLL against brute force on random small CNFs. *)
let prop_dpll_matches_bruteforce =
  let gen =
    QCheck.Gen.(
      let clause nv =
        list_size (int_range 1 3)
          (map2 (fun v s -> if s then v + 2 else -(v + 2)) (int_bound (nv - 1)) bool)
      in
      let* nv = int_range 2 6 in
      let* ncl = int_range 1 12 in
      let* cls = list_repeat ncl (clause nv) in
      return (nv, cls))
  in
  let print (nv, cls) =
    Printf.sprintf "nv=%d cls=%s" nv
      (String.concat ";"
         (List.map (fun c -> String.concat "," (List.map string_of_int c)) cls))
  in
  QCheck.Test.make ~count:300 ~name:"dpll = bruteforce" (QCheck.make ~print gen)
    (fun (nv, cls) ->
      let c = Cnf.create () in
      for _ = 1 to nv do ignore (Cnf.fresh c) done;
      List.iter (Cnf.add_clause c) cls;
      let dpll_sat =
        match Dpll.solve c with
        | Some (Dpll.Sat _) -> true
        | Some Dpll.Unsat -> false
        | None -> QCheck.assume_fail ()
      in
      (* Brute force over variables 2..nv+1 (1 is the TRUE constant). *)
      let brute = ref false in
      for mask = 0 to (1 lsl nv) - 1 do
        let value l =
          let v = abs l in
          let b = if v = 1 then true else (mask lsr (v - 2)) land 1 = 1 in
          if l > 0 then b else not b
        in
        if List.for_all (fun cl -> List.exists value cl) cls then brute := true
      done;
      dpll_sat = !brute)

(* --- Bitblast + Solver ------------------------------------------------ *)

let solve_exprs cs = Solver.check cs

let test_solver_simple () =
  let open Expr in
  let x = fresh_var W32 in
  match solve_exprs [ cmp Eq (binop Add (var x) (word 5)) (word 12) ] with
  | Solver.Sat m -> check_int "x = 7" 7 (m x)
  | _ -> Alcotest.fail "expected sat"

let test_solver_unsat_via_bits () =
  let open Expr in
  let x = fresh_var W32 in
  (* x & 1 == 0 and x & 1 == 1 simultaneously. *)
  let cs =
    [ cmp Eq (binop And (var x) (word 1)) (word 0);
      cmp Eq (binop And (var x) (word 1)) (word 1) ]
  in
  check_bool "unsat" true (solve_exprs cs = Solver.Unsat)

let test_solver_mul_div () =
  let open Expr in
  let x = fresh_var W32 in
  (* x * 3 == 21 *)
  (match solve_exprs [ cmp Eq (binop Mul (var x) (word 3)) (word 21);
                       cmp Ltu (var x) (word 100) ] with
   | Solver.Sat m -> check_int "x = 7" 7 (m x)
   | _ -> Alcotest.fail "mul sat");
  let y = fresh_var W32 in
  (* y / 4 == 5 and y % 4 == 2  ->  y = 22 *)
  (match solve_exprs
           [ cmp Eq (binop Divu (var y) (word 4)) (word 5);
             cmp Eq (binop Remu (var y) (word 4)) (word 2) ] with
   | Solver.Sat m -> check_int "y = 22" 22 (m y)
   | _ -> Alcotest.fail "div sat")

let test_solver_shift () =
  let open Expr in
  let x = fresh_var W32 in
  match solve_exprs [ cmp Eq (binop Shl (word 1) (var x)) (word 64);
                      cmp Ltu (var x) (word 32) ] with
  | Solver.Sat m -> check_int "x = 6" 6 (m x)
  | _ -> Alcotest.fail "shift sat"

let test_solver_bytes () =
  let open Expr in
  let x = fresh_var W8 in
  match solve_exprs [ cmp Eq (zext (var x)) (word 0xAB) ] with
  | Solver.Sat m -> check_int "x = 0xAB" 0xAB (m x)
  | _ -> Alcotest.fail "byte sat"

let test_concretize () =
  let open Expr in
  let x = fresh_var W32 in
  let cs = [ cmp Ltu (var x) (word 10); cmp Ltu (word 5) (var x) ] in
  (match Solver.concretize cs (binop Mul (var x) (word 2)) with
   | Some v -> check_bool "in range" true (v >= 12 && v <= 18 && v mod 2 = 0)
   | None -> Alcotest.fail "feasible");
  check_bool "unsat concretize" true
    (Solver.concretize [ fls ] (var x) = None)

(* Property: on random single-variable constraint pairs the solver's
   verdict matches brute-force evaluation over a sampled domain. *)
let prop_solver_sound_on_simple =
  let open Expr in
  let gen =
    QCheck.Gen.(
      let* op1 = int_bound 5 in
      let* op2 = int_bound 5 in
      let* c1 = int_bound 300 in
      let* c2 = int_bound 300 in
      return (op1, op2, c1, c2))
  in
  QCheck.Test.make ~count:200 ~name:"solver sound vs bruteforce (byte domain)"
    (QCheck.make gen)
    (fun (op1, op2, c1, c2) ->
      let ops = [| Eq; Ne; Ltu; Leu; Lts; Les |] in
      let x = fresh_var W8 in
      let cs =
        [ cmp ops.(op1) (zext (var x)) (word c1);
          cmp ops.(op2) (zext (var x)) (word c2) ]
      in
      let brute =
        let found = ref false in
        for v = 0 to 255 do
          let env (u : Expr.var) = if u.Expr.id = x.Expr.id then v else 0 in
          if List.for_all (fun c -> eval env c = 1) cs then found := true
        done;
        !found
      in
      match Solver.check cs with
      | Solver.Sat _ -> brute
      | Solver.Unsat -> not brute
      | Solver.Unknown -> true)

(* [zext x %u 7 = k] for a byte [x]: on the 32-bit divider circuit the
   DPLL search runs both budgets dry (about 8 s, then [Unknown]) although
   [x = k] satisfies it, so the simplifier must divide at the byte
   width. *)
let test_solver_rem_of_byte () =
  let open Expr in
  List.iter
    (fun k ->
      let x = fresh_var W8 in
      let c = cmp Eq (binop Remu (zext (var x)) (word 7)) (word k) in
      match Solver.check [ c ] with
      | Solver.Sat m ->
          check_int (Printf.sprintf "x %%u 7 = %d" k) k (m x mod 7);
          check_int "model satisfies the constraint" 1 (eval m c)
      | Solver.Unsat | Solver.Unknown ->
          Alcotest.failf "zext x %%u 7 = %d not Sat" k)
    [ 2; 4; 5; 6 ]

(* The byte-width rewrite of [zext x / c] and [zext x %u c] agrees with
   the 32-bit operation for every byte and every divisor, including 0
   (all-ones quotient at each width, so it must stay at 32 bits) and
   divisors too wide for a byte. *)
let test_simplify_byte_divide () =
  let open Expr in
  let x = fresh_var W8 in
  List.iter
    (fun (op, c) ->
      let e = binop op (zext (var x)) (word c) in
      let s = Simplify.simplify e in
      for v = 0 to 255 do
        let env (_ : var) = v in
        if eval env s <> eval env e then
          Alcotest.failf "%s by %d differs at x = %d"
            (if op = Divu then "divu" else "remu") c v
      done)
    (List.concat_map
       (fun c -> [ (Divu, c); (Remu, c) ])
       [ 0; 1; 2; 7; 128; 255; 256; 0x1_0007 ])

(* Property: Divu/Remu agree with brute force over byte domains, through
   the full solver pipeline (intervals cannot decide these; they exercise
   the divider circuit). *)
let prop_divmod_matches_bruteforce =
  let open Expr in
  let gen =
    QCheck.Gen.(
      let* d = int_range 1 9 in
      let* q = int_bound 30 in
      let* r = int_bound 8 in
      let* use_div = QCheck.Gen.bool in
      return (d, q, r, use_div))
  in
  QCheck.Test.make ~count:60 ~name:"div/rem equations vs bruteforce"
    (QCheck.make gen)
    (fun (d, q, r, use_div) ->
      let x = fresh_var W8 in
      let cs =
        if use_div then
          [ cmp Eq (binop Divu (zext (var x)) (word d)) (word q) ]
        else [ cmp Eq (binop Remu (zext (var x)) (word d)) (word r) ]
      in
      let brute =
        let found = ref false in
        for v = 0 to 255 do
          if (if use_div then v / d = q else v mod d = r) then found := true
        done;
        !found
      in
      match Solver.check cs with
      | Solver.Sat m ->
          let v = m x in
          brute && (if use_div then v / d = q else v mod d = r)
      | Solver.Unsat -> not brute
      | Solver.Unknown -> true)

(* Property: symbolic shift amounts behave like the masked-amount
   semantics. *)
let prop_symbolic_shift =
  let open Expr in
  QCheck.Test.make ~count:60 ~name:"symbolic shift amount"
    (QCheck.make QCheck.Gen.(int_bound 31))
    (fun k ->
      let s = fresh_var W32 in
      (* (1 << s) == (1 << k) must force s ≡ k (mod 32) given s < 32. *)
      let cs =
        [ cmp Eq (binop Shl (word 1) (var s)) (word (1 lsl k));
          cmp Ltu (var s) (word 32) ]
      in
      match Solver.check cs with
      | Solver.Sat m -> m s = k
      | Solver.Unsat -> false
      | Solver.Unknown -> true)

(* Property: two-variable arithmetic relations round-trip through the SAT
   layer with verified models. *)
let prop_two_var_relation =
  let open Expr in
  QCheck.Test.make ~count:60 ~name:"two-variable sum relation"
    (QCheck.make QCheck.Gen.(int_bound 400))
    (fun target ->
      let a = fresh_var W8 and b = fresh_var W8 in
      let cs =
        [ cmp Eq
            (binop Add (zext (var a)) (zext (var b)))
            (word target) ]
      in
      let brute = target <= 510 in
      match Solver.check cs with
      | Solver.Sat m -> brute && m a + m b = target
      | Solver.Unsat -> not brute
      | Solver.Unknown -> true)

(* --- Indep: constraint-independence slicing --------------------------- *)

(* The reference the solver pipeline is compared against: the whole set
   bit-blasted and searched at once, with no simplification, slicing,
   interval layer or cache. *)
let baseline cs =
  let ctx = Bitblast.create () in
  List.iter (Bitblast.assert_true ctx) cs;
  match Dpll.solve ~max_conflicts:2_000_000 (Bitblast.cnf ctx) with
  | Some (Dpll.Sat _) -> `Sat
  | Some Dpll.Unsat -> `Unsat
  | None -> `Unknown

(* The memoized partition's groups, as the constraints the path holds. *)
let groups_of cs =
  List.map (List.map Solver.original) (Indep.groups (Solver.partition_of cs))

let test_indep_partition () =
  let open Expr in
  let x = var (fresh_var W32)
  and y = var (fresh_var W32)
  and z = var (fresh_var W32) in
  let c1 = cmp Ltu x (word 5) in
  let c2 = cmp Ltu y (word 7) in
  let c3 = cmp Ltu (word 1) x in
  (* c4 links y and z, so it must land in c2's group. *)
  let c4 = cmp Eq (binop Add y z) (word 9) in
  let groups = groups_of [ c1; c2; c3; c4 ] in
  check_int "two groups" 2 (List.length groups);
  let has g c = List.exists (Expr.equal c) g in
  let gx = List.find (fun g -> has g c1) groups in
  let gy = List.find (fun g -> has g c2) groups in
  check_bool "c3 with c1" true (has gx c3);
  check_bool "c4 with c2" true (has gy c4);
  check_int "no constraint lost" 4 (List.length gx + List.length gy)

(* The partition of a path condition built oldest constraint first, as
   the engine grows it. *)
let persistent_partition cs =
  List.fold_right (fun c p -> Indep.add p c (Expr.vars c)) cs Indep.empty

let test_indep_relevant () =
  let open Expr in
  let x = var (fresh_var W32) and y = var (fresh_var W32)
  and z = var (fresh_var W32) in
  let c1 = cmp Ltu x (word 5) in
  let c2 = cmp Ltu y (word 7) in
  let c3 = cmp Ltu (word 1) x in
  let slice =
    Indep.slice (persistent_partition [ c1; c2; c3 ])
      (vars (binop Add x (word 1)))
  in
  check_bool "keeps c1 and c3, in path order" true
    (List.length slice = 2 && List.for_all2 ( == ) slice [ c1; c3 ]);
  check_bool "drops c2" false (List.exists (Expr.equal c2) slice);
  (* A later constraint linking y to x merges the groups; the slice
     comes back in path-condition order across the merge. *)
  let c0 = cmp Eq (binop Add x y) (word 6) in
  let merged = Indep.slice (persistent_partition [ c0; c1; c2; c3 ]) (vars x) in
  check_bool "merged slice in path order" true
    (List.length merged = 4
    && List.for_all2 ( == ) merged [ c0; c1; c2; c3 ]);
  check_int "unconstrained variable slices to nothing" 0
    (List.length (Indep.slice (persistent_partition [ c0; c1 ]) (vars z)));
  (* the memoized partition answers the same slice *)
  check_bool "memoized slice" true
    (List.for_all2 ( == ) merged
       (List.map Solver.original
          (Indep.slice (Solver.partition_of [ c0; c1; c2; c3 ]) (vars x))))

(* Disjoint groups solved separately must give the same verdict (and a
   genuine combined model) as solving the whole conjunction at once. *)
let test_indep_equisat () =
  let open Expr in
  let x = fresh_var W32 and y = fresh_var W32 in
  let sat_set =
    [ cmp Eq (binop Add (var x) (word 5)) (word 12);
      cmp Eq (binop Mul (var y) (word 3)) (word 21);
      cmp Ltu (var y) (word 100) ]
  in
  let unsat_set =
    [ cmp Eq (binop And (var x) (word 1)) (word 0);
      cmp Ltu (var y) (word 7);
      cmp Eq (binop And (var x) (word 1)) (word 1) ]
  in
  Solver.clear_cache ();
  (match Solver.check sat_set with
   | Solver.Sat m ->
       check_int "x from group 1" 7 (m x);
       check_int "y from group 2" 7 (m y)
   | _ -> Alcotest.fail "sliced sat");
  check_bool "sliced unsat" true (Solver.check unsat_set = Solver.Unsat);
  check_bool "unsliced sat" true (baseline sat_set = `Sat);
  check_bool "unsliced unsat" true (baseline unsat_set = `Unsat)

(* Field [i] holds [f i]: with [f] injective and nonzero, a dropped,
   clamped or swapped field shows. *)
let stats_of f =
  { Solver.s_queries = f 1; s_group_solves = f 2;
    s_cache_model_reuse_hits = f 3; s_cache_misses = f 4;
    s_interval_solves = f 5; s_bitblast_solves = f 6; s_unknowns = f 7 }

let test_diff_stats () =
  check_bool "field-wise difference" true
    (Solver.diff_stats (stats_of (fun i -> 101 * i))
       (stats_of (fun i -> 100 * i))
     = stats_of (fun i -> i))

(* --- Qcache: the counterexample cache's superset rule ------------------ *)

let cquery cs = Qcache.query (List.map (fun c -> (c, Expr.vars c)) cs)
let lookup q cs = Qcache.lookup q (cquery cs)
let store q cs m = Qcache.store q (cquery cs) m

let test_qcache_model_reuse () =
  let open Expr in
  let q = Qcache.create () in
  let x = fresh_var W32 in
  let c1 = cmp Ltu (word 5) (var x) in
  check_bool "miss first" true (lookup q [ c1 ] = Qcache.Miss);
  store q [ c1 ] (fun _ -> 6);
  (* x=6 also satisfies the tighter superset query: reused after a cheap
     evaluation, no solve needed. *)
  (match lookup q [ c1; cmp Ltu (var x) (word 10) ] with
   | Qcache.Hit m -> check_int "model reused" 6 (m x)
   | Qcache.Miss -> Alcotest.fail "expected model reuse");
  (* x=6 violates x < 3: no reuse. *)
  check_bool "unsatisfying model rejected" true
    (lookup q [ c1; cmp Ltu (var x) (word 3) ] = Qcache.Miss)

let test_qcache_reuse_masks_width () =
  let open Expr in
  let q = Qcache.create () in
  let x = fresh_var W32 in
  store q [ cmp Ltu (word 5) (var x) ] (fun _ -> 511);
  (* The stored 32-bit model value reaches an 8-bit twin at the same
     variable number (evaluation masks at the Var node and verifies). The
     model handed back must be masked to the query variable's width. *)
  let b = fresh_var W8 in
  match lookup q [ cmp Ltu (byte 5) (var b) ] with
  | Qcache.Hit m -> check_int "masked to W8" 255 (m b)
  | Qcache.Miss -> Alcotest.fail "expected model reuse"

(* Rounds of lookups over fresh variables whose shapes repeat: a model
   stored for one round answers a later round's twin, an Unsat group is
   never answered by any stored model, and every miss is exported. *)
let test_qcache_single_domain () =
  let open Expr in
  let q = Qcache.create () in
  let rounds = 200 in
  let hits = ref 0 and misses = ref 0 and unsat_hits = ref 0 in
  let counted c =
    let r = Qcache.lookup q c in
    (match r with Qcache.Miss -> incr misses | Qcache.Hit _ -> incr hits);
    r
  in
  for i = 0 to rounds - 1 do
    let x = fresh_var W32 in
    let c = cquery [ cmp Ltu (var x) (word (1 + (i mod 10))) ] in
    (match counted c with
     | Qcache.Miss -> Qcache.store q c (fun _ -> 0)
     | Qcache.Hit _ -> ());
    (* No model satisfies this one, and Unsat answers are not stored. *)
    let y = fresh_var W32 in
    let u =
      cquery
        [ cmp Ltu (var y) (word (i mod 7));
          cmp Ltu (word (7 + (i mod 7))) (var y) ]
    in
    if counted u <> Qcache.Miss then incr unsat_hits
  done;
  check_int "every lookup is a hit or a miss" (2 * rounds) (!hits + !misses);
  check_bool "twins over fresh variables hit" true (!hits > 0);
  check_int "no model satisfies an unsat group" 0 !unsat_hits;
  check_int "every miss exported" !misses
    (List.length (Qcache.export_entries q))

(* Property over random groups and stored models. A group is up to four
   comparisons over three variables of random widths; each stored model
   is a model of its group, as the solver stores. A hit's model
   satisfies every term of the probe, and each of its values fits its
   variable's width; a stored group rebuilt over fresh variables hits. *)
let prop_qcache_hits_sound =
  let open Expr in
  let widths = [| W1; W8; W32 |] and ops = [| Eq; Ne; Ltu; Leu; Lts; Les |] in
  let gen =
    QCheck.Gen.(
      let group =
        pair
          (array_size (return 3) (int_bound 2))
          (list_size (int_range 1 4)
             (triple (int_bound 5) (int_bound 2) (int_bound 300)))
      in
      pair
        (list_size (int_range 1 6)
           (pair group (array_size (return 3) (int_bound 600))))
        group)
  in
  let build (ws, clauses) =
    let vs = Array.map (fun w -> fresh_var widths.(w)) ws in
    let term (op, slot, k) =
      let v = vs.(slot) in
      cmp ops.(op) (if v.var_width = W32 then var v else zext (var v)) (word k)
    in
    (vs, List.map term clauses)
  in
  let fits m (v : var) = m v land mask_of_width v.var_width = m v in
  QCheck.Test.make ~count:300 ~name:"hits satisfy their terms"
    (QCheck.make gen)
    (fun (stored, probe) ->
      let q = Qcache.create () in
      let twins_hit =
        List.for_all
          (fun (group, values) ->
            let vs, cs = build group in
            let m (v : var) =
              let i = ref 0 in
              Array.iteri (fun j u -> if u.id = v.id then i := j) vs;
              values.(!i) land mask_of_width v.var_width
            in
            (not (List.for_all (fun c -> eval m c = 1) cs))
            || begin
                 store q cs m;
                 lookup q (snd (build group)) <> Qcache.Miss
               end)
          stored
      in
      let vs, cs = build probe in
      twins_hit
      &&
      match lookup q cs with
      | Qcache.Miss -> true
      | Qcache.Hit m ->
          List.for_all (fun c -> eval m c = 1) cs
          && Array.for_all (fits m) vs)

(* Property: the solver pipeline (slicing + cache, queries issued twice
   to force hits) and the from-scratch {!baseline} agree on Sat/Unsat
   for random multi-variable constraint sets. *)
let prop_accel_agrees_with_baseline =
  let open Expr in
  let gen =
    QCheck.Gen.(
      let clause = triple (int_bound 5) (int_bound 2) (int_bound 300) in
      list_size (int_range 1 6) clause)
  in
  QCheck.Test.make ~count:150 ~name:"accelerated solver = baseline"
    (QCheck.make gen)
    (fun spec ->
      let ops = [| Eq; Ne; Ltu; Leu; Lts; Les |] in
      let vars = [| fresh_var W8; fresh_var W8; fresh_var W8 |] in
      let cs =
        List.map
          (fun (op, v, k) ->
            cmp ops.(op) (zext (var vars.(v))) (word k))
          spec
      in
      let verdict r =
        match r with
        | Solver.Sat _ -> `Sat
        | Solver.Unsat -> `Unsat
        | Solver.Unknown -> `Unknown
      in
      let base = baseline cs in
      let accel =
        Solver.clear_cache ();
        (* First call populates the cache (misses), the second and the
           growing prefixes exercise model reuse. *)
        ignore (Solver.check cs);
        List.iteri
          (fun i _ ->
            let prefix = List.filteri (fun j _ -> j <= i) cs in
            ignore (Solver.check prefix))
          cs;
        verdict (Solver.check cs)
      in
      base = `Unknown || accel = `Unknown || base = accel)

(* Property: Sat models coming out of the accelerated pipeline (cache
   hits included) always satisfy the full constraint set. *)
let prop_accel_models_verified =
  let open Expr in
  let gen =
    QCheck.Gen.(
      let clause = triple (int_bound 5) (int_bound 2) (int_bound 300) in
      list_size (int_range 1 5) clause)
  in
  QCheck.Test.make ~count:150 ~name:"accelerated models satisfy constraints"
    (QCheck.make gen)
    (fun spec ->
      let ops = [| Eq; Ne; Ltu; Leu; Lts; Les |] in
      let vars = [| fresh_var W8; fresh_var W8; fresh_var W8 |] in
      let cs =
        List.map
          (fun (op, v, k) ->
            cmp ops.(op) (zext (var vars.(v))) (word k))
          spec
      in
      Solver.clear_cache ();
      ignore (Solver.check cs);
      match Solver.check cs with
      | Solver.Sat m -> List.for_all (fun c -> eval m c = 1) cs
      | Solver.Unsat | Solver.Unknown -> true)

(* One cache: a model stored for one query is re-tried for every later
   query, whatever its key hashes to. *)
let test_whole_cache_model_reuse () =
  let open Expr in
  let x = zext (var (fresh_var W8)) in
  Solver.clear_cache ();
  ignore (Solver.check [ cmp Ltu x (word 10) ]);
  let before = Solver.stats () in
  (match Solver.check [ cmp Ltu x (word 20); cmp Ne x (word 15) ] with
   | Solver.Sat _ -> ()
   | Solver.Unsat | Solver.Unknown -> Alcotest.fail "satisfiable");
  check_int "one model-reuse hit" 1
    (Solver.diff_stats (Solver.stats ()) before).Solver.s_cache_model_reuse_hits

(* A ground constraint has no independence group: [check] decides it by
   evaluation. A width-1 constant other than 0 or 1 is one the
   simplifier leaves as it is. *)
let test_check_ground () =
  let open Expr in
  let x = zext (var (fresh_var W8)) in
  let odd = Const (W1, 2) in
  check_bool "not folded" true
    (let t = Simplify.simplify_bool odd in
     t <> tru && t <> fls && vars t = []);
  check_bool "evaluates false" true (eval (fun _ -> 0) odd <> 1);
  check_bool "alone" true (Solver.check [ odd ] = Solver.Unsat);
  check_bool "beside a live constraint" true
    (Solver.check [ cmp Ltu x (word 9); odd ] = Solver.Unsat)

(* --- relevant-slice concretization --------------------------------------- *)

let test_concretize_relevant () =
  let open Expr in
  let x = fresh_var W32 and y = fresh_var W32 in
  let cs =
    [ cmp Eq (var y) (word 7); cmp Eq (var x) (word 5) ]
  in
  match Solver.concretize_relevant cs (var x) with
  | Some v -> check_int "only the relevant slice constrains x" 5 v
  | None -> Alcotest.fail "feasible concretization"

(* --- sliced feasibility ------------------------------------------------------ *)

(* Random fork trees over a handful of byte variables, grown the way the
   engine grows path conditions: fork children share their parent's list
   physically, merges push [or(ga, gb)] on a shared base, and replay pins
   fix a freshly minted variable (it replaces its pool slot, so later
   steps constrain it) and are pushed unchecked. Every checked addition
   must agree with the
   whole-set answer, and every memoized partition must equal the one
   recomputed from scratch. Each step is (operation, state, value):
   operations 0-5 fork, 6-7 merge, 8-9 replay pin, 10-11 concretize (a
   pin the path gains without a feasibility query, like the engine's
   concretization). *)
let gen_fork_tree =
  QCheck.Gen.(
    list_size (int_range 1 25)
      (triple (int_bound 11) (int_bound 1000) (int_bound 1000)))

let fork_vars () = Array.init 5 (fun _ -> Expr.fresh_var Expr.W8)

let random_constraint pool (k : int) (r : int) =
  let open Expr in
  let ops = [| Eq; Ne; Ltu; Leu; Lts; Les |] in
  let v i = zext (var pool.(i mod Array.length pool)) in
  match k mod 3 with
  | 0 | 1 -> cmp ops.(r mod 6) (v (r / 6)) (word (r mod 300))
  | _ -> cmp ops.(r mod 6) (v (r / 6)) (v (r / 30))

let same_groups a b =
  let norm gs =
    List.sort compare
      (List.map
         (fun g -> List.sort compare (List.map (fun c -> Expr.to_string c) g))
         gs)
  in
  norm a = norm b

(* The reference partition: a union-find over variable ids, rebuilt from
   scratch, with ground constraints in no group. *)
let scratch_partition cs =
  let parent = Hashtbl.create 16 in
  let rec find x =
    match Hashtbl.find_opt parent x with
    | Some p when p <> x ->
        let r = find p in
        Hashtbl.replace parent x r;
        r
    | _ -> x
  in
  let with_vars =
    List.filter_map
      (fun c ->
        match Expr.vars (Simplify.simplify_bool c) with
        | [] -> None
        | vs -> Some (c, List.map (fun (v : Expr.var) -> v.Expr.id) vs))
      cs
  in
  List.iter
    (fun (_, ids) ->
      let r = find (List.hd ids) in
      List.iter
        (fun v ->
          let rv = find v in
          if rv <> r then Hashtbl.replace parent rv r)
        ids)
    with_vars;
  let groups = Hashtbl.create 8 in
  List.iter
    (fun (c, ids) ->
      let r = find (List.hd ids) in
      Hashtbl.replace groups r
        (c :: Option.value ~default:[] (Hashtbl.find_opt groups r)))
    with_vars;
  Hashtbl.fold (fun _ g acc -> g :: acc) groups []

let prop_feasible_matches_check =
  QCheck.Test.make ~count:200 ~name:"sliced feasibility = whole-set check"
    (QCheck.make gen_fork_tree)
    (fun spec ->
      let pool = fork_vars () in
      let states = ref [| [] |] in
      let ok = ref true in
      let agree cs extra =
        let f = Solver.feasible cs extra in
        let whole =
          match Solver.check (extra :: cs) with
          | Solver.Sat _ | Solver.Unknown -> true
          | Solver.Unsat -> false
        in
        if f <> whole then ok := false;
        f
      in
      let push st = states := Array.append !states [| st |] in
      List.iter
        (fun (op, k, r) ->
          let cs = !states.(k mod Array.length !states) in
          if op < 6 then
            let c = random_constraint pool k r in
            List.iter
              (fun c -> if agree cs c then push (c :: cs))
              [ c; Expr.not_ c ]
          else if op < 8 then begin
            let ga = random_constraint pool r k
            and gb = random_constraint pool (k + 1) (r + 7) in
            if agree cs ga && agree cs gb then push (Expr.or1 ga gb :: cs)
          end
          else if op < 10 then begin
            let v = Expr.fresh_var Expr.W8 in
            pool.(r mod 5) <- v;
            push
              (Expr.cmp Expr.Eq (Expr.zext (Expr.var v)) (Expr.word (k mod 256))
              :: cs)
          end
          else
            let e = Expr.zext (Expr.var pool.(r mod 5)) in
            match Solver.concretize_relevant cs e with
            | Some v -> push (Expr.cmp Expr.Eq e (Expr.word v) :: cs)
            | None -> ())
        spec;
      (* Every tail, not only the lists queried: a walk down to a
         memoized tail memoizes the tails it passes. *)
      let rec tails l = l :: (match l with [] -> [] | _ :: r -> tails r) in
      !ok
      && Array.for_all
           (fun cs ->
             List.for_all
               (fun l ->
                 same_groups (groups_of l) (scratch_partition l))
               (tails cs))
           !states)

(* [feasible] answers [check (extra :: slice)] with less
   work, but must account exactly the same: on a fresh cache, a run of
   queries moves every counter as the same run through [check] does.
   The run is built to reach misses and model-reuse hits. *)
let test_feasible_stats_match_check () =
  let open Expr in
  let x = zext (var (fresh_var W8)) and y = zext (var (fresh_var W8))
  and z = zext (var (fresh_var W8)) in
  let path = [ cmp Ltu x (word 50); cmp Ltu y (word 9); cmp Eq z (word 3) ] in
  let queries =
    [ (path, cmp Ltu (word 10) x);            (* miss *)
      (path, cmp Ltu (word 10) x);            (* model reuse, same group *)
      (path, cmp Ltu (word 5) x);             (* model reuse *)
      (path, cmp Ltu (word 60) x);            (* miss, Unsat *)
      (* a branch joining two groups of the slice *)
      (cmp Ne y (word 4) :: path, cmp Ltu (word 60) (binop Add x y));
      (cmp Eq x y :: path, cmp Ltu (word 60) x);  (* Unsat, x and y joined *)
      (path, cmp Eq y (word 2));
      ([], cmp Eq z (word 3));
      (path, tru);
      (path, fls) ]
  in
  let run answer =
    Solver.clear_cache ();
    let before = Solver.stats () in
    let verdicts = List.map answer queries in
    (verdicts, Solver.diff_stats (Solver.stats ()) before)
  in
  let f_verdicts, f_stats =
    run (fun (cs, extra) -> Solver.feasible cs extra)
  in
  let c_verdicts, c_stats =
    run (fun (cs, extra) ->
        let slice =
          Indep.slice (Solver.partition_of cs)
            (Expr.vars (Simplify.simplify_bool extra))
        in
        match Solver.check (extra :: List.map Solver.original slice) with
        | Solver.Sat _ | Solver.Unknown -> true
        | Solver.Unsat -> false)
  in
  check_bool "same verdicts" true (f_verdicts = c_verdicts);
  let fields (s : Solver.stats) =
    [ ("queries", s.Solver.s_queries);
      ("group solves", s.Solver.s_group_solves);
      ("model-reuse hits", s.Solver.s_cache_model_reuse_hits);
      ("misses", s.Solver.s_cache_misses);
      ("interval solves", s.Solver.s_interval_solves);
      ("bit-blast solves", s.Solver.s_bitblast_solves) ]
  in
  List.iter2
    (fun (name, f) (_, c) -> check_int name c f)
    (fields f_stats) (fields c_stats);
  List.iter
    (fun (name, n) -> check_bool (name ^ " reached") true (n > 0))
    (List.filter
       (fun (name, _) -> name <> "bit-blast solves")
       (fields f_stats))

(* --- sharing ---------------------------------------------------------------- *)

(* The deeploop shape: each round lifts the accumulator to
   [ite(g, acc + zext v, acc ^ k)], whose arms share [acc], so n rounds
   unfold to a tree of about 2^n nodes over O(n) distinct ones. Built
   twice over the same variables it gives two structurally equal,
   physically distinct DAGs. *)
let merged_chain vs =
  let open Expr in
  fst
    (List.fold_left
       (fun (acc, k) v ->
         let g = cmp Ne (binop And (zext (var v)) (word 1)) (word 0) in
         (ite g (binop Add acc (zext (var v))) (binop Xor acc (word k)), k + 1))
       (word 0, 1) vs)

(* The chain's value computed directly, round by round. *)
let chain_value value vs =
  fst
    (List.fold_left
       (fun (acc, k) v ->
         let x = value v in
         ((if x land 1 <> 0 then (acc + x) land 0xFFFFFFFF else acc lxor k), k + 1))
       (0, 1) vs)

let byte_env seed =
  let st = Random.State.make [| seed |] in
  let tbl = Hashtbl.create 64 in
  fun (v : Expr.var) ->
    match Hashtbl.find_opt tbl v.Expr.id with
    | Some x -> x
    | None ->
        let x = Random.State.int st 256 in
        Hashtbl.replace tbl v.Expr.id x;
        x

(* Tree walks, the reference the sharing-aware ones must agree with. *)
let rec tree_eval env (e : Expr.t) =
  let open Expr in
  match e with
  | Const (_, v) -> v
  | Var v -> env v land mask_of_width v.var_width
  | Binop (op, a, b) -> eval_binop op (width_of a) (tree_eval env a) (tree_eval env b)
  | Cmp (op, a, b) -> eval_cmp op (width_of a) (tree_eval env a) (tree_eval env b)
  | Ite (c, a, b) -> if tree_eval env c = 1 then tree_eval env a else tree_eval env b
  | Extract (x, i) -> (tree_eval env x lsr (8 * i)) land 0xFF
  | Concat4 (b3, b2, b1, b0) ->
      (tree_eval env b3 lsl 24) lor (tree_eval env b2 lsl 16)
      lor (tree_eval env b1 lsl 8) lor tree_eval env b0
  | Zext x -> tree_eval env x
  | Not x -> 1 - tree_eval env x

let rec tree_size (e : Expr.t) =
  match e with
  | Expr.Const _ | Expr.Var _ -> 1
  | Expr.Binop (_, a, b) | Expr.Cmp (_, a, b) -> 1 + tree_size a + tree_size b
  | Expr.Ite (c, a, b) -> 1 + tree_size c + tree_size a + tree_size b
  | Expr.Extract (x, _) | Expr.Zext x | Expr.Not x -> 1 + tree_size x
  | Expr.Concat4 (b3, b2, b1, b0) ->
      1 + tree_size b3 + tree_size b2 + tree_size b1 + tree_size b0

(* 48 merges unfold to ~2^50 tree nodes: every walk here must take time
   linear in the DAG, or the test never finishes. *)
let test_sharing_deep_chain () =
  let open Expr in
  let vs = List.init 48 (fun _ -> fresh_var ~name:"s" W8) in
  let a = merged_chain vs and b = merged_chain vs in
  let c = merged_chain (fresh_var ~name:"t" W8 :: List.tl vs) in
  check_bool "copies are distinct objects" true (a != b);
  check_bool "equal copies" true (equal a b);
  check_bool "different first round" false (equal a c);
  check_bool "vars" true (List.map (fun v -> v.id) (vars a) = List.map (fun v -> v.id) vs);
  let printed = to_string a in
  check_bool "printed as a DAG" true
    (String.length printed < 100_000 && String.contains printed '$');
  let env = byte_env 3 in
  let want = chain_value env vs in
  check_int "eval" want (eval env a);
  let s = Simplify.simplify a in
  check_int "simplify preserves eval" want (eval env s);
  check_bool "simplify idempotent" true (equal (Simplify.simplify s) s);
  let g0 = cmp Ne (binop And (zext (var (List.hd vs))) (word 1)) (word 0) in
  let env0 v = if v.id = (List.hd vs).id then env v lor 1 else env v in
  check_int "prune under a decided guard" (chain_value env0 vs)
    (eval env0 (Simplify.prune ~under:[ g0 ] a));
  let r = Interval.range_of (fun v -> Interval.full v.var_width) a in
  check_bool "range covers the value" true (r.Interval.lo <= want && want <= r.Interval.hi);
  let q = Qcache.create () in
  store q [ cmp Eq a (word want) ] env;
  (match lookup q [ cmp Eq b (word want) ] with
   | Qcache.Hit m -> check_int "reused model" want (eval m b)
   | Qcache.Miss -> Alcotest.fail "rebuilt copy must reuse the stored model");
  let other = fresh_var W8 in
  check_int "independent groups" 2
    (List.length (groups_of [ cmp Eq a (word want); cmp Eq (var other) (byte 1) ]));
  (* the whole pipeline, answered by a verified interval guess *)
  let below = cmp Ltu a (word 0xFFFFFFFF) in
  match Solver.check [ below ] with
  | Solver.Sat m -> check_int "solver model" 1 (eval m below)
  | Solver.Unsat | Solver.Unknown -> Alcotest.fail "satisfiable by construction"

(* Past the plain budget the walks memoize; they must agree with the
   tree walks exactly, on chains whose unfolding is still small enough
   to walk as a tree. *)
let test_sharing_matches_tree_walks () =
  let open Expr in
  let vs = List.init 12 (fun _ -> fresh_var ~name:"s" W8) in
  let a = merged_chain vs in
  check_bool "past the plain budget" true (tree_size a > 4096);
  let small = merged_chain [ List.hd vs ] in
  check_bool "small terms print as trees" false
    (String.contains (to_string small) '$');
  List.iter
    (fun seed ->
      let env = byte_env seed in
      check_int "eval" (tree_eval env a) (eval env a);
      check_int "simplified eval" (tree_eval env a)
        (tree_eval env (Simplify.simplify a)))
    [ 1; 2; 3; 4; 5 ];
  List.iteri
    (fun i _ ->
      let vs' = List.mapi (fun j v -> if i = j then fresh_var W8 else v) vs in
      let c = merged_chain vs' in
      check_bool "equal agrees with (=)" (a = c) (equal a c))
    vs

(* [Expr.vars] is every distinct variable, sorted by id, below a few
   variables (a list scan) and past them (a table). *)
let prop_vars_sorted_distinct =
  let pool = Array.init 24 (fun _ -> Expr.fresh_var Expr.W8) in
  QCheck.Test.make ~count:300 ~name:"vars lists distinct variables by id"
    QCheck.(make Gen.(list_size (int_range 0 40) (int_bound 23)))
    (fun picks ->
      let term =
        List.fold_left
          (fun acc i -> Expr.Binop (Expr.Xor, acc, Expr.Zext (Expr.var pool.(i))))
          (Expr.word 0) picks
      in
      let want =
        List.sort_uniq compare (List.map (fun i -> pool.(i).Expr.id) picks)
      in
      List.map (fun (v : Expr.var) -> v.Expr.id) (Expr.vars term) = want)

let prop_equal_matches_stdlib =
  QCheck.Test.make ~count:500 ~name:"equal agrees with Stdlib"
    (QCheck.pair arb_expr arb_expr)
    (fun (a, b) -> Expr.equal a b = (a = b) && Expr.equal a a)

let qtest t = QCheck_alcotest.to_alcotest t

let () =
  Alcotest.run "ddt_solver"
    [ ("expr",
       [ Alcotest.test_case "constant folding" `Quick test_const_fold;
         Alcotest.test_case "algebraic identities" `Quick test_identities;
         Alcotest.test_case "not pushes into cmp" `Quick test_not_pushes_into_cmp;
         Alcotest.test_case "extract/concat roundtrip" `Quick
           test_extract_concat_roundtrip;
         Alcotest.test_case "signed semantics" `Quick test_eval_signed;
         qtest prop_simplify_preserves_semantics;
         qtest prop_smart_constructors_preserve;
         qtest prop_simplify_idempotent;
         qtest prop_vars_sorted_distinct ]);
      ("sharing",
       [ Alcotest.test_case "deep merged chain stays linear" `Quick
           test_sharing_deep_chain;
         Alcotest.test_case "memoized walks match tree walks" `Quick
           test_sharing_matches_tree_walks;
         qtest prop_equal_matches_stdlib ]);
      ("interval",
       [ Alcotest.test_case "infeasible" `Quick test_interval_infeasible;
         Alcotest.test_case "narrowing" `Quick test_interval_narrowing;
         Alcotest.test_case "range_of" `Quick test_interval_range_of;
         qtest prop_interval_sound ]);
      ("dpll",
       [ Alcotest.test_case "simple sat" `Quick test_dpll_simple_sat;
         Alcotest.test_case "unsat" `Quick test_dpll_unsat;
         Alcotest.test_case "pigeonhole" `Quick test_dpll_pigeonhole;
         qtest prop_dpll_matches_bruteforce ]);
      ("indep",
       [ Alcotest.test_case "partition" `Quick test_indep_partition;
         Alcotest.test_case "relevant slice" `Quick test_indep_relevant;
         Alcotest.test_case "sliced equisatisfiable" `Quick test_indep_equisat ]);
      ("qcache",
       [ Alcotest.test_case "model reuse" `Quick test_qcache_model_reuse;
         Alcotest.test_case "reuse masks width" `Quick
           test_qcache_reuse_masks_width;
         Alcotest.test_case "single domain" `Quick
           test_qcache_single_domain;
         qtest prop_qcache_hits_sound;
         qtest prop_accel_agrees_with_baseline;
         qtest prop_accel_models_verified ]);
      ("solver",
       [ Alcotest.test_case "linear equation" `Quick test_solver_simple;
         Alcotest.test_case "parity contradiction" `Quick
           test_solver_unsat_via_bits;
         Alcotest.test_case "mul and div" `Quick test_solver_mul_div;
         Alcotest.test_case "shift" `Quick test_solver_shift;
         Alcotest.test_case "byte variables" `Quick test_solver_bytes;
         Alcotest.test_case "concretize" `Quick test_concretize;
         Alcotest.test_case "sliced concretize" `Quick
           test_concretize_relevant;
         qtest prop_feasible_matches_check;
         Alcotest.test_case "feasibility counts like check" `Quick
           test_feasible_stats_match_check;
         Alcotest.test_case "stats diff field-wise" `Quick test_diff_stats;
         Alcotest.test_case "model reuse across the whole cache" `Quick
           test_whole_cache_model_reuse;
         Alcotest.test_case "ground constraint decided by eval" `Quick
           test_check_ground;
         qtest prop_solver_sound_on_simple;
         qtest prop_divmod_matches_bruteforce;
         Alcotest.test_case "rem of a zero-extended byte" `Quick
           test_solver_rem_of_byte;
         Alcotest.test_case "byte-width division rewrite" `Quick
           test_simplify_byte_divide;
         qtest prop_symbolic_shift;
         qtest prop_two_var_relation ]) ]
