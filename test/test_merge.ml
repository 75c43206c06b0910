(* Tests for dynamic state merging at post-dominators (veritesting).

   Layered the same way as the feature: Pdom unit tests over hand-built
   CFGs, directed fuse/refuse tests driving the merge pool with
   hand-built states, a solver-stack regression (Indep treating ite
   guards as dependence edges), and session-level differential properties — a
   merged run must report exactly the bugs an unmerged run reports and
   its replay scripts must still reproduce. *)

module Expr = Ddt_solver.Expr
module Solver = Ddt_solver.Solver
module Indep = Ddt_solver.Indep
module Isa = Ddt_dvm.Isa
module Asm = Ddt_dvm.Asm
module Mem = Ddt_dvm.Mem
module Layout = Ddt_dvm.Layout
module Kstate = Ddt_kernel.Kstate
module Pci = Ddt_kernel.Pci
module Icfg = Ddt_staticx.Icfg
module Pdom = Ddt_staticx.Pdom
module St = Ddt_symexec.Symstate
module Symmem = Ddt_symexec.Symmem
module Merge = Ddt_symexec.Merge
module Exec = Ddt_symexec.Exec
module Config = Ddt_core.Config
module Session = Ddt_core.Session
module Report = Ddt_checkers.Report
module Corpus = Ddt_drivers.Corpus

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let isz = Isa.instr_size

(* --- post-dominators -------------------------------------------------------- *)

let pdom_of src = Pdom.compute (Icfg.build (Asm.assemble ~name:"t" src))

let check_mp msg pd leader expect =
  Alcotest.(check (option int)) msg expect (Pdom.merge_point pd leader)

let test_pdom_diamond () =
  let pd = pdom_of {|
      .entry driver_entry
      .func driver_entry
          jz r1, other
          movi r0, 1
          jmp join
      other:
          movi r0, 2
      join:
          ret
    |} in
  (* blocks: 0 = the branch, 1*isz = then-arm, 3*isz = else-arm,
     4*isz = join *)
  check_mp "branch reconverges at the join" pd 0 (Some (4 * isz));
  check_mp "then-arm also flows to the join" pd isz (Some (4 * isz));
  check_mp "the join block exits the function" pd (4 * isz) None

let test_pdom_nested_diamond () =
  let pd = pdom_of {|
      .entry driver_entry
      .func driver_entry
          jz r1, outer
          jz r2, inner
          movi r0, 1
          jmp ijoin
      inner:
          movi r0, 2
      ijoin:
          jmp join
      outer:
          movi r0, 3
      join:
          ret
    |} in
  check_mp "inner branch meets at the inner join" pd isz (Some (5 * isz));
  check_mp "outer branch meets at the outer join" pd 0 (Some (7 * isz))

let test_pdom_loop_latch () =
  let pd = pdom_of {|
      .entry driver_entry
      .func driver_entry
          movi r1, 4
      head:
          jz r1, done
          sub r1, r1, 1
          jmp head
      done:
          ret
    |} in
  (* The loop-exit branch reconverges where the loop is left: the merge
     scheduler fuses per-iteration forks right after the latch. *)
  check_mp "loop branch meets at the exit block" pd isz (Some (4 * isz))

(* --- the merge pool on hand-built states ------------------------------------ *)

let device () =
  Pci.assign_resources
    { Pci.vendor_id = 1; device_id = 2; revision = 0; bar_sizes = [ 0x1000 ];
      irq_line = 9 }
    ~mmio_base:Layout.mmio_base

(* A forked sibling pair carrying complementary guards over one symbolic
   word, both standing at the merge pc already. Returns the parent's
   constraint cell (the token base) and the two arms. *)
let sibling_pair () =
  let mem = Symmem.create ~base:(Mem.create ()) ~symdev:None in
  let ks = Kstate.create ~device:(device ()) () in
  let parent = St.create ~id:1 ~mem ~ks in
  parent.St.entry_name <- "initialize";
  St.add_constraint parent Expr.tru;
  let base_cs = parent.St.constraints in
  let a = St.fork parent ~id:2 in
  let b = St.fork parent ~id:3 in
  let g =
    Expr.cmp Expr.Eq (Expr.var (Expr.fresh_var Expr.W32)) (Expr.word 0)
  in
  St.add_constraint a g;
  St.add_constraint b (Expr.not_ g);
  a.St.pc <- 0x200;
  b.St.pc <- 0x200;
  (base_cs, a, b)

let open_pair pool base a b = Merge.open_token pool ~merge_pc:0x200 ~base a b

let park_first pool st =
  match Merge.on_arrival pool st with
  | Merge.A_parked o ->
      check_int "first arrival just waits" 0 (List.length o.Merge.mo_requeue)
  | Merge.A_continue -> Alcotest.fail "tagged state must park"

let fold_on_last pool st =
  match Merge.on_arrival pool st with
  | Merge.A_parked o -> o
  | Merge.A_continue -> Alcotest.fail "tagged state must park"

let test_fuse_lifts_to_ite () =
  let pool = Merge.create () in
  let base_cs, a, b = sibling_pair () in
  St.reg_set a 0 (Expr.word 1);
  St.reg_set b 0 (Expr.word 2);
  Symmem.write_u8 a.St.mem 0x3000 (Expr.byte 0xAA);
  (* [a]'s guard is [v = 0] and [b]'s its negation: valuing [v] as 0 or
     1 selects one arm's path. *)
  let guard = List.hd a.St.constraints in
  let v = List.hd (Expr.vars guard) in
  let on_arm k (x : Expr.var) = if x.Expr.id = v.Expr.id then k else 0 in
  check_int "a's guard holds at v = 0" 1 (Expr.eval (on_arm 0) guard);
  check_int "b's guard holds at v = 1" 1
    (Expr.eval (on_arm 1) (List.hd b.St.constraints));
  let b_byte = Expr.eval (on_arm 1) (Symmem.read_u8 b.St.mem 0x3000) in
  open_pair pool base_cs a b;
  park_first pool a;
  let o = fold_on_last pool b in
  check_int "one survivor" 1 (List.length o.Merge.mo_requeue);
  check_int "one absorbed" 1 (List.length o.Merge.mo_absorbed);
  let s = List.hd o.Merge.mo_requeue in
  check_bool "survivor's tag popped" true (s.St.tags = []);
  let r0 = St.reg_get s 0 and byte = Symmem.read_u8 s.St.mem 0x3000 in
  (match r0 with
   | Expr.Ite _ -> ()
   | e -> Alcotest.failf "r0 not lifted to ite: %s" (Expr.to_string e));
  (match byte with
   | Expr.Ite _ -> ()
   | e -> Alcotest.failf "store not lifted to ite: %s" (Expr.to_string e));
  (* The lifted values select the right arm under each guard. *)
  check_int "r0 under a's guard" 1 (Expr.eval (on_arm 0) r0);
  check_int "r0 under b's guard" 2 (Expr.eval (on_arm 1) r0);
  check_int "byte under a's guard" 0xAA (Expr.eval (on_arm 0) byte);
  check_int "byte under b's guard" b_byte (Expr.eval (on_arm 1) byte);
  (match s.St.constraints with
   | d :: rest ->
       check_bool "token base kept physically" true (rest == base_cs);
       check_bool "guards disjoined" true
         (match d with Expr.Binop (Expr.Or, _, _) -> true | _ -> false)
   | [] -> Alcotest.fail "fused state has no constraints");
  let merged, ites, _, refused = Merge.stats pool in
  check_int "one fusion" 1 merged;
  check_bool "ites counted" true (ites >= 2);
  check_int "no refusals" 0 refused

let expect_refusal name pool o =
  check_int (name ^ ": both arms survive unfused") 2
    (List.length o.Merge.mo_requeue);
  check_int (name ^ ": nothing absorbed") 0 (List.length o.Merge.mo_absorbed);
  List.iter
    (fun (s : St.t) ->
      check_bool (name ^ ": tags popped") true (s.St.tags = []))
    o.Merge.mo_requeue;
  let merged, _, _, refused = Merge.stats pool in
  check_int (name ^ ": no fusion") 0 merged;
  check_bool (name ^ ": refusal counted") true (refused >= 1)

let test_refuse_divergent_kernel_calls () =
  let pool = Merge.create () in
  let base_cs, a, b = sibling_pair () in
  open_pair pool base_cs a b;
  (* one arm performed a checker-visible kernel call inside the diamond;
     fusing would fold its hook-event stream into the other path *)
  Kstate.bump_kcall a.St.ks;
  park_first pool a;
  expect_refusal "kcalls" pool (fold_on_last pool b)

(* No cost cap: a store divergence wider than any former limit (256
   addresses, 64 lifted values) fuses, each byte lifted to the value its
   own arm stored. *)
let test_fuse_wide_store_divergence () =
  let pool = Merge.create () in
  let base_cs, a, b = sibling_pair () in
  for i = 0 to 300 do
    Symmem.write_u8 a.St.mem (0x4000 + i) (Expr.byte (1 + (i mod 255)))
  done;
  Symmem.write_u8 b.St.mem 0x4000 (Expr.byte 0xEE);
  let guard = List.hd a.St.constraints in
  let v = List.hd (Expr.vars guard) in
  let on_arm k (x : Expr.var) = if x.Expr.id = v.Expr.id then k else 0 in
  let b_bytes = List.init 301 (fun i -> Symmem.read_u8 b.St.mem (0x4000 + i)) in
  open_pair pool base_cs a b;
  park_first pool a;
  let o = fold_on_last pool b in
  check_int "one survivor" 1 (List.length o.Merge.mo_requeue);
  check_int "one absorbed" 1 (List.length o.Merge.mo_absorbed);
  let s = List.hd o.Merge.mo_requeue in
  List.iteri
    (fun i bb ->
      let byte = Symmem.read_u8 s.St.mem (0x4000 + i) in
      check_int "byte under a's guard" (1 + (i mod 255))
        (Expr.eval (on_arm 0) byte);
      check_int "byte under b's guard" (Expr.eval (on_arm 1) bb)
        (Expr.eval (on_arm 1) byte))
    b_bytes;
  let merged, ites, _, refused = Merge.stats pool in
  check_int "one fusion" 1 merged;
  check_int "one ite per differing byte" 301 ites;
  check_int "no refusals" 0 refused

let test_dead_carrier_releases_token () =
  let pool = Merge.create () in
  let base_cs, a, b = sibling_pair () in
  open_pair pool base_cs a b;
  park_first pool b;
  (* the other arm crashes without reaching the merge point: its death
     must fold the token and hand the parked sibling back *)
  let o = Merge.note_dead pool a in
  check_int "parked sibling requeued" 1 (List.length o.Merge.mo_requeue);
  check_int "nothing absorbed" 0 (List.length o.Merge.mo_absorbed);
  check_bool "sibling's tag popped" true
    ((List.hd o.Merge.mo_requeue).St.tags = []);
  let merged, _, _, refused = Merge.stats pool in
  check_int "no fusion" 0 merged;
  check_int "no refusal either" 0 refused

(* --- QCheck: fusion soundness on hand-built sibling pairs ------------------- *)

(* A value one arm holds: a constant, or an offset from a symbolic word
   both arms share. *)
type value = V_const of int | V_sym of int

(* A field the fusion does not lift; set on one arm, the pair must be
   refused. *)
type divergence =
  | D_pending | D_choices | D_kcall | D_sym_inputs | D_injected

type pair_spec = {
  ps_regs : (int * value * value) list;  (* register, a's value, b's *)
  ps_wide : int;                         (* leading bytes only [a] stores *)
  ps_bytes : (bool * int * value) list;  (* [a]'s store?, offset, value *)
  ps_guards : (bool * int) list * (bool * int) list;
      (* extra suffix constraints per arm: [w <u k] or [w <> k], k >= 1 *)
  ps_divergence : (bool * divergence) option;  (* on [a]?, which field *)
}

let string_of_value = function
  | V_const k -> Printf.sprintf "%d" k
  | V_sym k -> Printf.sprintf "w+%d" k

let string_of_divergence = function
  | D_pending -> "pending" | D_choices -> "choices" | D_kcall -> "kcall"
  | D_sym_inputs -> "sym_inputs"
  | D_injected -> "injected_sites"

let print_pair p =
  let guards l =
    String.concat ","
      (List.map (fun (lt, k) -> Printf.sprintf "%s%d" (if lt then "<" else "!=") k) l)
  in
  Printf.sprintf "regs=[%s] wide=%d bytes=[%s] guards=[%s]/[%s] div=%s"
    (String.concat "; "
       (List.map
          (fun (r, va, vb) ->
            Printf.sprintf "r%d:%s/%s" r (string_of_value va) (string_of_value vb))
          p.ps_regs))
    p.ps_wide
    (String.concat "; "
       (List.map
          (fun (on_a, off, v) ->
            Printf.sprintf "%s+%d:%s" (if on_a then "a" else "b") off (string_of_value v))
          p.ps_bytes))
    (guards (fst p.ps_guards)) (guards (snd p.ps_guards))
    (match p.ps_divergence with
     | None -> "none"
     | Some (on_a, d) ->
         Printf.sprintf "%s on %s" (string_of_divergence d) (if on_a then "a" else "b"))

let gen_pair =
  QCheck.Gen.(
    let value =
      frequency [ (2, map (fun k -> V_const k) (int_bound 300));
                  (1, map (fun k -> V_sym k) (int_bound 300)) ]
    in
    let guard = pair bool (int_range 1 1000) in
    let* regs =
      list_size (int_bound 6)
        (triple (int_bound (Isa.sp - 1)) value value)
    in
    (* wider than the old 256-address cap half of the time *)
    let* wide = frequency [ (1, int_bound 20); (1, int_range 257 400) ] in
    let* bytes = list_size (int_bound 12) (triple bool (int_bound 0x3FF) value) in
    let* ga = list_size (int_bound 2) guard in
    let* gb = list_size (int_bound 2) guard in
    let* divergence =
      frequency
        [ (3, return None);
          (2, map Option.some
                (pair bool
                   (oneofl [ D_pending; D_choices; D_kcall; D_sym_inputs;
                             D_injected ]))) ]
    in
    return
      { ps_regs = regs; ps_wide = wide; ps_bytes = bytes; ps_guards = (ga, gb);
        ps_divergence = divergence })

let diverge (st : St.t) = function
  | D_pending ->
      let ctx = { St.s_regs = Array.copy st.St.regs; s_pc = 0; s_int = true } in
      st.St.pending <- St.Pa_after_dpc (ctx, 0) :: st.St.pending
  | D_choices -> st.St.choices <- ("alloc", "fail") :: st.St.choices
  | D_kcall -> Kstate.bump_kcall st.St.ks
  | D_sym_inputs ->
      st.St.sym_inputs <- (Expr.fresh_var Expr.W32, "hw") :: st.St.sym_inputs
  | D_injected -> st.St.injected_sites <- 0x100 :: st.St.injected_sites

let conj_all l = List.fold_left Expr.and1 Expr.tru l

(* What one arm looks like before the fold, for comparing afterwards. *)
type arm_view = {
  av_regs : Expr.t array;
  av_bytes : Expr.t list;            (* at the pair's cow_diff addresses *)
  av_constraints : Expr.t list;
  av_counters : int * int;           (* steps, injections *)
}

let view addrs (st : St.t) =
  { av_regs = Array.copy st.St.regs;
    av_bytes = List.map (Symmem.read_u8 st.St.mem) addrs;
    av_constraints = st.St.constraints;
    av_counters = (st.St.steps, st.St.injections) }

let unchanged addrs (st : St.t) v =
  let now = view addrs st in
  Array.for_all2 ( == ) now.av_regs v.av_regs
  && List.for_all2 ( == ) now.av_bytes v.av_bytes
  && now.av_constraints == v.av_constraints
  && now.av_counters = v.av_counters

(* Under every valuation satisfying one arm's path condition, the fused
   state's registers and bytes take that arm's values. *)
let agrees_on_arm envs addrs (s : St.t) side v =
  let path = conj_all v.av_constraints in
  List.for_all
    (fun env ->
      let ev = Expr.eval env in
      ev path = 0
      || (Array.for_all2 (fun x y -> ev x = ev y) s.St.regs v.av_regs
          || QCheck.Test.fail_reportf "%s: a register lost its value" side)
         && (List.for_all2
               (fun addr y -> ev (Symmem.read_u8 s.St.mem addr) = ev y)
               addrs v.av_bytes
             || QCheck.Test.fail_reportf "%s: a byte lost its value" side))
    envs

let prop_fusion_sound =
  QCheck.Test.make ~count:200
    ~name:"fusion keeps each arm's values under its guard; refusal keeps both"
    (QCheck.make gen_pair ~print:print_pair)
    (fun p ->
      let pool = Merge.create () in
      let base_cs, a, b = sibling_pair () in
      let gv = List.hd (Expr.vars (List.hd a.St.constraints)) in
      let wv = Expr.fresh_var Expr.W32 in
      let w = Expr.var wv in
      let reg_value = function
        | V_const k -> Expr.word k
        | V_sym k -> Expr.binop Expr.Add w (Expr.word k)
      in
      let byte_value = function
        | V_const k -> Expr.byte (k land 0xFF)
        | V_sym k -> Expr.extract (reg_value (V_sym k)) (k land 3)
      in
      let add_guards st =
        List.iter (fun (lt, k) ->
            St.add_constraint st
              (Expr.cmp (if lt then Expr.Ltu else Expr.Ne) w (Expr.word k)))
      in
      add_guards a (fst p.ps_guards);
      add_guards b (snd p.ps_guards);
      open_pair pool base_cs a b;
      List.iter
        (fun (r, va, vb) ->
          St.reg_set a r (reg_value va);
          St.reg_set b r (reg_value vb))
        p.ps_regs;
      for i = 0 to p.ps_wide - 1 do
        Symmem.write_u8 a.St.mem (0x4000 + i) (Expr.byte (1 + (i mod 255)))
      done;
      List.iter
        (fun (on_a, off, v) ->
          Symmem.write_u8 (if on_a then a else b).St.mem (0x4000 + off)
            (byte_value v))
        p.ps_bytes;
      Option.iter (fun (on_a, d) -> diverge (if on_a then a else b) d)
        p.ps_divergence;
      let addrs = Option.get (Symmem.cow_diff a.St.mem b.St.mem) in
      let va = view addrs a and vb = view addrs b in
      ignore (Merge.on_arrival pool a);
      let o =
        match Merge.on_arrival pool b with
        | Merge.A_parked o -> o
        | Merge.A_continue -> QCheck.Test.fail_reportf "tagged state must park"
      in
      match o.Merge.mo_absorbed, p.ps_divergence with
      | [], None -> QCheck.Test.fail_reportf "compatible pair refused"
      | _ :: _, Some _ -> QCheck.Test.fail_reportf "divergent pair fused"
      | [], Some _ ->
          (unchanged addrs a va && unchanged addrs b vb)
          || QCheck.Test.fail_reportf "a refused arm changed"
      | _ :: _, None ->
          let s = List.hd o.Merge.mo_requeue in
          let suffix v =
            let rec go l =
              if l == base_cs then []
              else match l with c :: rest -> c :: go rest | [] -> []
            in
            go v.av_constraints
          in
          let want =
            Expr.and1 (conj_all base_cs)
              (Expr.or1 (conj_all (suffix va)) (conj_all (suffix vb)))
          in
          (* The arms' guards test [gv = 0] and [w] against constants
             k: valuing [w] at 0, max and each k-1, k, k+1 realizes every
             truth assignment of those atoms. *)
          let ws =
            List.concat_map (fun (_, k) -> [ k - 1; k; k + 1 ])
              (fst p.ps_guards @ snd p.ps_guards)
          in
          let envs =
            List.concat_map
              (fun gval ->
                List.map
                  (fun wval (x : Expr.var) ->
                    if x.Expr.id = gv.Expr.id then gval
                    else if x.Expr.id = wv.Expr.id then wval
                    else 0)
                  (0 :: 0xFFFFFFFF :: ws))
              [ 0; 1 ]
          in
          let fused = conj_all s.St.constraints in
          List.for_all
            (fun env ->
              Expr.eval env fused = Expr.eval env want
              || QCheck.Test.fail_reportf
                   "fused path is not base /\\ (ga \\/ gb)")
            envs
          && agrees_on_arm envs addrs s "a" va
          && agrees_on_arm envs addrs s "b" vb)

(* --- solver stack under merged values --------------------------------------- *)

let test_indep_ite_guard_edges () =
  let v () = Expr.var (Expr.fresh_var Expr.W32) in
  let x = v () and y = v () and z = v () and w = v () in
  let g = Expr.cmp Expr.Eq x (Expr.word 1) in
  (* a merged value: the guard's variable must link the arm variables
     into the same dependence group *)
  let c1 = Expr.cmp Expr.Eq (Expr.ite g y z) (Expr.word 5) in
  let c2 = Expr.cmp Expr.Ltu x (Expr.word 9) in
  let c3 = Expr.cmp Expr.Eq w (Expr.word 0) in
  check_int "guard variable joins the groups" 2
    (List.length (Indep.groups (Solver.partition_of [ c1; c2; c3 ])));
  let slice =
    List.map Solver.original
      (Indep.slice (Solver.partition_of [ c1; c2; c3 ]) (Expr.vars y))
  in
  check_bool "slice follows the guard edge" true (List.memq c2 slice);
  check_bool "unrelated constraint stays out" true (not (List.memq c3 slice))

(* --- session-level parity ---------------------------------------------------- *)

let quick_cfg ?(merging = true) (e : Corpus.entry) =
  let cfg = Corpus.config e in
  { cfg with
    Config.max_total_steps = 60_000; state_merging = merging }

let bug_keys (r : Session.result) =
  List.sort compare (List.map (fun b -> b.Report.b_key) r.Session.r_bugs)

(* The seeded corpus at its default budgets: merging must report exactly
   the unmerged bug keys. *)
let test_corpus_parity short () =
  let run merging =
    let cfg = Corpus.config (Corpus.find short) in
    Session.run { cfg with Config.state_merging = merging }
  in
  let off = run false in
  let on = run true in
  check_bool "seeded bugs found" true (off.Session.r_bugs <> []);
  Alcotest.(check (list string)) "same bug keys merging off/on"
    (bug_keys off) (bug_keys on)

let test_deeploop_collapses_paths () =
  let e = Corpus.find "deeploop" in
  Solver.clear_cache ();
  let off = Session.run (quick_cfg ~merging:false e) in
  Solver.clear_cache ();
  let on = Session.run (quick_cfg ~merging:true e) in
  check_bool "same bugs" true (bug_keys off = bug_keys on);
  check_int "full coverage while merging" off.Session.r_covered_reachable
    on.Session.r_covered_reachable;
  let s_off = off.Session.r_stats.Exec.st_states_created
  and s_on = on.Session.r_stats.Exec.st_states_created in
  check_bool
    (Printf.sprintf "an order of magnitude fewer states (%d vs %d)" s_on
       s_off)
    true
    (s_on * 10 <= s_off);
  check_bool "fusions happened" true
    (on.Session.r_stats.Exec.st_merged_states > 0);
  check_int "no merge counters when off" 0
    (off.Session.r_stats.Exec.st_merged_states
     + off.Session.r_stats.Exec.st_merge_ites
     + off.Session.r_stats.Exec.st_merge_forks_avoided)

(* --- QCheck: randomized drivers, merged vs unmerged -------------------------- *)

(* Random polling drivers in the deeploop mold: a chain of diamonds over
   fresh device words folding two accumulators, optionally ending in a
   guarded null store. Merging must neither invent nor lose bugs, and
   the replay scripts it emits must still reproduce. *)
type spec = {
  sp_arms : (int * int * int) list;  (* per round: shape, mask, constant *)
  sp_bug : bool;
  sp_trigger : int;
}

let source_of spec =
  let buf = Buffer.create 512 in
  Buffer.add_string buf {|
    int chars[8];
    int g;
    int initialize(void) {
      int mmio;
      NdisMMapIoSpace(&mmio, 0);
      int a = 0;
      int b = 1;
      int v;
|};
  List.iter
    (fun (shape, mask, k) ->
      Buffer.add_string buf "      v = *(mmio + 0);\n";
      Buffer.add_string buf
        (match shape with
         | 0 ->
             Printf.sprintf
               "      if (v & %d) { a = a + (v & 0xFF); } else { a = a ^ %d; }\n"
               mask k
         | 1 ->
             Printf.sprintf
               "      if (v & %d) { b = b + %d; } else { b = b ^ (v & 0xFF); }\n"
               mask k
         | _ ->
             Printf.sprintf
               "      if (v & %d) { a = a + b; } else { b = b + %d; }\n" mask
               k))
    spec.sp_arms;
  Buffer.add_string buf "      g = a + b;\n";
  if spec.sp_bug then
    Buffer.add_string buf
      (Printf.sprintf
         {|      int probe = *(mmio + 4);
      if ((probe & 0xFF) == %d) { int z = 0; *z = a; }
|}
         spec.sp_trigger);
  Buffer.add_string buf {|      return 0;
    }
    int driver_entry(void) {
      chars[0] = initialize;
      return NdisMRegisterMiniport(chars);
    }
|};
  Buffer.contents buf

let gen_spec =
  QCheck.Gen.(
    let* rounds = int_range 1 4 in
    let* arms =
      list_repeat rounds
        (triple (int_bound 2) (int_range 1 255) (int_range 1 255))
    in
    let* bug = frequency [ (2, return true); (1, return false) ] in
    let* trigger = int_range 1 254 in
    return { sp_arms = arms; sp_bug = bug; sp_trigger = trigger })

let run_spec ?replay ~merging image =
  Solver.clear_cache ();
  Session.run
    { (Config.make ~driver_name:"p" ~image ~driver_class:Config.Network
         ~workload:Config.[ W_initialize ] ?replay ())
      with Config.state_merging = merging; max_total_steps = 20_000 }

(* Twenty merged rounds fold the accumulator into an ite DAG whose tree
   unfolding has ~2^20 nodes; the session only finishes if every walk
   over it (fusion's equality checks, the solver pipeline) follows the
   sharing. *)
let test_long_merged_chain () =
  let spec =
    { sp_arms = List.init 20 (fun i -> (0, 1, i + 1)); sp_bug = true;
      sp_trigger = 0x77 }
  in
  let image = Ddt_minicc.Codegen.compile ~name:"p" (source_of spec) in
  let r = run_spec ~merging:true image in
  check_bool "seeded bug found" true (r.Session.r_bugs <> []);
  check_bool "rounds fused" true (r.Session.r_stats.Exec.st_merged_states >= 20)

let prop_merge_parity =
  QCheck.Test.make ~count:10
    ~name:"merged and unmerged runs report the same bugs; replays reproduce"
    (QCheck.make gen_spec ~print:source_of)
    (fun spec ->
      let image = Ddt_minicc.Codegen.compile ~name:"p" (source_of spec) in
      let off = run_spec ~merging:false image in
      let on = run_spec ~merging:true image in
      if bug_keys off <> bug_keys on then
        QCheck.Test.fail_reportf "bug sets diverge:@.off: %s@.on:  %s"
          (String.concat ", " (bug_keys off))
          (String.concat ", " (bug_keys on))
      else if spec.sp_bug && on.Session.r_bugs = [] then
        QCheck.Test.fail_reportf "seeded bug not found"
      else
        List.for_all
          (fun b ->
            let r = run_spec ~merging:true ~replay:b.Report.b_replay image in
            List.exists
              (fun b2 -> b2.Report.b_key = b.Report.b_key)
              r.Session.r_bugs
            || QCheck.Test.fail_reportf "replay lost bug %s" b.Report.b_key)
          on.Session.r_bugs)

let () =
  Alcotest.run "ddt_merge"
    [ ("pdom",
       [ Alcotest.test_case "diamond" `Quick test_pdom_diamond;
         Alcotest.test_case "nested diamond" `Quick test_pdom_nested_diamond;
         Alcotest.test_case "loop latch" `Quick test_pdom_loop_latch ]);
      ("pool",
       [ Alcotest.test_case "fuse lifts to ite" `Quick test_fuse_lifts_to_ite;
         Alcotest.test_case "refuse divergent kernel calls" `Quick
           test_refuse_divergent_kernel_calls;
         Alcotest.test_case "fuse wide store divergence" `Quick
           test_fuse_wide_store_divergence;
         Alcotest.test_case "dead carrier releases token" `Quick
           test_dead_carrier_releases_token;
         QCheck_alcotest.to_alcotest prop_fusion_sound ]);
      ("solver",
       [ Alcotest.test_case "indep ite guard edges" `Quick
           test_indep_ite_guard_edges ]);
      ("corpus",
       List.map
         (fun e ->
           let d = e.Corpus.short in
           Alcotest.test_case ("parity " ^ d) `Quick
             (test_corpus_parity d))
         Corpus.all);
      ("session",
       [ Alcotest.test_case "deeploop collapses paths" `Quick
           test_deeploop_collapses_paths;
         Alcotest.test_case "long merged chain stays linear" `Quick
           test_long_merged_chain;
         QCheck_alcotest.to_alcotest prop_merge_parity ]) ]
