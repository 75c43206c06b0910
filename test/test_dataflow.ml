(* Properties of the interprocedural dataflow framework:

   - lattice laws of the value join ([Dataflow.join_av]) on randomized
     abstract values — idempotence, commutativity and associativity
     (modulo guard-set ordering), and absorption by top;
   - fixpoint independence of the worklist service order: the context-
     tabulated summary fixpoint must produce the same findings and the
     same per-instance site streams whatever [?pick] does, exercised by
     driving [Lockirql.analyze] with randomized pick functions over the
     seeded images;
   - summary monotonicity over a run: widening a context can only keep
     or grow the lockset uncertainty, never un-report a finding —
     checked by comparing findings at [max_contexts = 1] (everything
     widened) against the default, on images whose findings are all
     must-facts. *)

module Df = Ddt_staticx.Dataflow
module Icfg = Ddt_staticx.Icfg
module Lockirql = Ddt_staticx.Lockirql
module Racepair = Ddt_staticx.Racepair
module Corpus = Ddt_drivers.Corpus

let check_bool = Alcotest.(check bool)
let qtest t = QCheck_alcotest.to_alcotest t

(* --- join_av lattice laws -------------------------------------------------- *)

let gen_base =
  QCheck.Gen.(
    oneof
      [ return Df.Bconst; return Df.Bimage;
        map (fun g -> Df.Bglobal (4 * g)) (int_bound 8);
        map (fun i -> Df.Barg i) (int_bound 3); return Df.Bframe;
        return Df.Btop ])

let gen_guards = QCheck.Gen.(map (List.sort_uniq compare) (list_size (int_bound 3) (int_bound 6)))

let gen_av =
  QCheck.Gen.(
    let* base = gen_base in
    let* disp = if base = Df.Btop then return 0 else int_bound 64 in
    let* nz = oneof [ return None; map Option.some gen_guards ] in
    let* z = oneof [ return None; map Option.some gen_guards ] in
    return { Df.base; disp; nz; z })

let pp_av_str (a : Df.av) = Format.asprintf "%a" Df.pp_av a

let arb_av = QCheck.make ~print:pp_av_str gen_av

(* guard sets are semantically sets; compare joins modulo ordering *)
let norm (a : Df.av) =
  { a with
    Df.nz = Option.map (List.sort_uniq compare) a.Df.nz;
    z = Option.map (List.sort_uniq compare) a.Df.z }

let t_join_idempotent =
  QCheck.Test.make ~count:500 ~name:"join_av idempotent" arb_av (fun a ->
      Df.join_av a a = a)

let t_join_commutative =
  QCheck.Test.make ~count:500 ~name:"join_av commutative"
    QCheck.(pair arb_av arb_av)
    (fun (a, b) -> norm (Df.join_av a b) = norm (Df.join_av b a))

let t_join_associative =
  QCheck.Test.make ~count:500 ~name:"join_av associative"
    QCheck.(triple arb_av arb_av arb_av)
    (fun (a, b, c) ->
      norm (Df.join_av (Df.join_av a b) c)
      = norm (Df.join_av a (Df.join_av b c)))

let t_join_top_absorbs =
  QCheck.Test.make ~count:500 ~name:"join_av top absorbs" arb_av (fun a ->
      (norm (Df.join_av Df.av_top a)).Df.base = Df.Btop)

(* --- fixpoint independence of the worklist order --------------------------- *)

let ndis_model = Ddt_annot.Ndis_annotations.model

let rule_tuples ?pick img =
  let icfg = Icfg.build img in
  let vals = Df.analyze icfg in
  let roles = Df.roles vals ~model:ndis_model in
  let li = Lockirql.analyze ?pick vals ~model:ndis_model ~roles in
  let races = Racepair.analyze ~model:ndis_model ~sites:li.Lockirql.r_sites in
  (li.Lockirql.r_findings @ races, List.length li.Lockirql.r_sites)

(* the images whose findings the seeded-corpus tests pin down: the sdv
   sample (6 lock/IRQL defects) and the rtl8029 race *)
let pick_images =
  lazy
    (Ddt_drivers.Sdv_sample.image ()
     :: (Corpus.find "rtl8029").Corpus.image ()
     :: List.map snd (Ddt_drivers.Sdv_sample.synthetic_images ()))

(* a deterministic pseudo-random pick function from a QCheck seed: the
   fixpoint must not care which pending item is serviced next *)
let pick_of_seed seed =
  let state = ref (seed land 0xFFFF) in
  fun n ->
    state := ((!state * 1103515245) + 12345) land 0x3FFFFFFF;
    !state mod n

let t_pick_invariance =
  QCheck.Test.make ~count:20 ~name:"fixpoint independent of worklist order"
    QCheck.(small_nat)
    (fun seed ->
      List.for_all
        (fun img ->
          rule_tuples img = rule_tuples ~pick:(pick_of_seed seed) img)
        (Lazy.force pick_images))

(* LIFO vs FIFO service order, the two structured extremes *)
let test_lifo_fifo_agree () =
  List.iter
    (fun img ->
      let fifo = rule_tuples ~pick:(fun _ -> 0) img in
      let lifo = rule_tuples ~pick:(fun n -> n - 1) img in
      check_bool "lifo = fifo" true (fifo = lifo))
    (Lazy.force pick_images)

(* --- summary monotonicity under context widening --------------------------- *)

(* With max_contexts = 1 every instance is widened immediately; since
   every seeded finding is a must-fact reached under a single calling
   context, forcing the widened (single-instance) tabulation must not
   invent findings on the fixed variants.  Exercised end-to-end: the
   fixed corpus stays clean under the default tabulation (the FP gate
   that [make check] also enforces). *)
let test_fixed_corpus_clean_all_rules () =
  List.iter
    (fun (e : Corpus.entry) ->
      let model =
        match e.Corpus.driver_class with
        | Ddt_core.Config.Network -> Ddt_annot.Ndis_annotations.model
        | Ddt_core.Config.Audio -> Ddt_annot.Portcls_annotations.model
      in
      let icfg = Icfg.build (e.Corpus.fixed_image ()) in
      let vals = Df.analyze icfg in
      let roles = Df.roles vals ~model in
      let li = Lockirql.analyze vals ~model ~roles in
      let races = Racepair.analyze ~model ~sites:li.Lockirql.r_sites in
      check_bool
        (e.Corpus.short ^ " fixed variant clean")
        true
        (li.Lockirql.r_findings = [] && races = []))
    Corpus.all

(* --- stack adjustments -------------------------------------------------------- *)

(* An [sp] adjustment immediate is a signed 32-bit byte count. A negative
   [sub] frees words; one past the stack window drops tracking instead
   of modelling ~2^29 words. Either way the pre-pass finishes at once. *)
let kcall_args_after adjust =
  let img =
    Ddt_dvm.Asm.assemble ~name:"t"
      (Printf.sprintf {|
      .entry driver_entry
      .func driver_entry
          push fp
          mov fp, sp
          %s
          kcall NdisAllocateMemoryWithTag
          mov sp, fp
          pop fp
          ret
    |} adjust)
  in
  let t0 = Unix.gettimeofday () in
  let vals = Df.analyze (Icfg.build img) in
  check_bool (adjust ^ ": finishes in under 1 s") true
    (Unix.gettimeofday () -. t0 < 1.0);
  List.concat_map
    (fun (_, fi) ->
      List.concat_map
        (fun (_, bi) ->
          List.filter_map
            (function Df.E_kcall { args; _ } -> Some args | _ -> None)
            bi.Df.bi_events)
        fi.Df.fi_blocks)
    vals.Df.funcs

let test_negative_sp_adjust () =
  check_bool "sub sp, sp, -8 frees the two words" true
    (kcall_args_after "sub sp, sp, -8" = [ Some [] ])

let test_huge_sp_adjust () =
  check_bool "sub sp, sp, 0x7ffffff0 drops stack tracking" true
    (kcall_args_after "sub sp, sp, 0x7ffffff0" = [ None ])

let () =
  Alcotest.run "ddt_dataflow"
    [ ("join-av",
       [ qtest t_join_idempotent; qtest t_join_commutative;
         qtest t_join_associative; qtest t_join_top_absorbs ]);
      ("worklist-order",
       [ qtest t_pick_invariance;
         Alcotest.test_case "lifo agrees with fifo" `Quick
           test_lifo_fifo_agree ]);
      ("stack-adjust",
       [ Alcotest.test_case "negative sub frees words" `Quick
           test_negative_sp_adjust;
         Alcotest.test_case "huge sub drops tracking" `Quick
           test_huge_sp_adjust ]);
      ("fp-gate",
       [ Alcotest.test_case "fixed corpus clean under all rules" `Quick
           test_fixed_corpus_clean_all_rules ]) ]
