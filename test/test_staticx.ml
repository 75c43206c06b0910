(* Tests for ddt_staticx: VSA target classification, ICFG construction
   (recursive descent, dead-code exclusion, indirect-call resolution),
   the static finding rules, the versioned JSON report schema, and
   default-config sessions: coverage accounting against the static
   universe, and every static lock/IRQL/race warning on the corpus
   matched by a dynamic bug. *)

module Isa = Ddt_dvm.Isa
module Asm = Ddt_dvm.Asm
module Disasm = Ddt_dvm.Disasm
module Vsa = Ddt_staticx.Vsa
module Icfg = Ddt_staticx.Icfg
module Sfind = Ddt_staticx.Sfind
module Corpus = Ddt_drivers.Corpus
module Session = Ddt_core.Session
module Config = Ddt_core.Config
module Report = Ddt_checkers.Report

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let compile src = Ddt_minicc.Codegen.compile ~name:"t" src
let assemble src = Asm.assemble ~name:"t" src

(* --- VSA ------------------------------------------------------------------- *)

let test_vsa_classification () =
  let img = assemble {|
      .entry driver_entry
      .func driver_entry
          lea r1, taken        ; address-taken via lea
          jmp skip             ; control-flow reloc, not address-taken
      taken:
          movi r0, 1
      skip:
          ret
      .func handler
      handler:
          movi r0, 2
          ret
      .data
      tbl: .word handler       ; address-taken via data word
    |}
  in
  let v = Vsa.analyze img in
  let de = Disasm.disassemble img in
  let off_of_label target =
    (* find the instruction offsets by shape *)
    List.filter_map
      (fun (pos, i) -> if i = target then Some pos else None)
      de
  in
  let taken = off_of_label (Isa.Movi (0, 1)) in
  let handler = off_of_label (Isa.Movi (0, 2)) in
  check_int "one lea target" 1 (List.length taken);
  check_int "one handler entry" 1 (List.length handler);
  check_bool "lea target is address-taken" true
    (List.mem (List.hd taken) v.Vsa.code_targets);
  check_bool "data word target is address-taken" true
    (List.mem (List.hd handler) v.Vsa.code_targets);
  check_int "one handler-table slot" 1 (List.length v.Vsa.data_code_refs);
  (* the jmp's immediate is a reloc but must not be address-taken *)
  check_bool "jmp target not address-taken" true
    (not
       (List.exists
          (fun t -> List.mem t v.Vsa.code_targets)
          (List.filter_map
             (fun (pos, i) ->
               match i with Isa.Jmp t -> Some t | _ -> ignore pos; None)
             de)))

(* --- ICFG ------------------------------------------------------------------ *)

(* The ICFG's leaders are the repo's one block universe (the engine's
   coverage keys, the report's denominator, the baseline's blocks); each
   must be an instruction the linear sweep decodes. *)
let test_universe_subset_of_linear_sweep () =
  let img = compile {|
    int helper(int x) { if (x) { return x + 1; } return 0; }
    int driver_entry(int a) {
      int i;
      int acc = 0;
      for (i = 0; i < 4; i = i + 1) { acc = acc + helper(i); }
      return acc;
    }
  |}
  in
  let icfg = Icfg.build img in
  let sweep = List.map fst (Disasm.disassemble img) in
  check_bool "nonzero universe" true (icfg.Icfg.universe <> []);
  List.iter
    (fun b ->
      check_bool "universe leader is a linear-sweep instruction" true
        (List.mem b sweep))
    icfg.Icfg.universe

let test_dead_code_excluded_and_reported () =
  let img = assemble {|
      .entry driver_entry
      .func driver_entry
          jmp live
          movi r0, 1           ; dead: two slots, skipped by every path
          movi r0, 2
      live:
          ret
    |}
  in
  let icfg = Icfg.build img in
  (* the two dead slots are at offsets 8 and 16 *)
  check_bool "dead slot not in universe" true
    (not (List.mem 8 icfg.Icfg.universe));
  check_bool "gap covers both dead slots" true
    (List.mem (8, 16) icfg.Icfg.gaps);
  let fs = Sfind.analyze icfg in
  check_bool "unreachable-code finding reported" true
    (List.exists
       (fun f -> f.Sfind.f_rule = "unreachable-code" && f.Sfind.f_pos = 8)
       fs)

let test_compiler_fallback_not_flagged () =
  (* one dead slot falling into reached code: the Mini-C default-return
     idiom — excluded from the universe but not reported as a finding *)
  let img = assemble {|
      .entry driver_entry
      .func driver_entry
          jmp live
          movi r0, 1
      live:
          ret
    |}
  in
  let icfg = Icfg.build img in
  check_bool "dead slot not in universe" true
    (not (List.mem 8 icfg.Icfg.universe));
  check_bool "gap still recorded" true (List.mem (8, 8) icfg.Icfg.gaps);
  check_int "no findings" 0 (List.length (Sfind.analyze icfg))

let test_indirect_call_resolved () =
  let img = assemble {|
      .entry driver_entry
      .func driver_entry
          push fp
          mov fp, sp
          lea r1, helper
          callr r1
          mov sp, fp
          pop fp
          ret
      helper:
          movi r0, 7
          ret
    |}
  in
  let icfg = Icfg.build img in
  let helper_entry =
    (* the lea's target: the only address-taken code offset *)
    match icfg.Icfg.vsa.Vsa.code_targets with
    | [ t ] -> t
    | l -> Alcotest.failf "expected 1 code target, got %d" (List.length l)
  in
  (* the callr block must list helper in its conservative target set *)
  let found =
    Hashtbl.fold
      (fun _ b acc ->
        acc
        || match b.Icfg.bb_term with
           | Icfg.T_callr targets -> List.mem helper_entry targets
           | _ -> false)
      icfg.Icfg.blocks false
  in
  check_bool "callr resolved to the address-taken helper" true found;
  (* helper's blocks are in the universe even though nothing names them *)
  check_bool "helper body reachable" true
    (List.mem helper_entry icfg.Icfg.universe)

let test_icfg_deterministic () =
  let entry = Corpus.find "rtl8029" in
  let img = entry.Corpus.image () in
  let a = Icfg.build img and b = Icfg.build img in
  check_bool "universe equal" true (a.Icfg.universe = b.Icfg.universe);
  check_bool "gaps equal" true (a.Icfg.gaps = b.Icfg.gaps);
  check_bool "seeds equal" true (a.Icfg.seeds = b.Icfg.seeds);
  check_bool "call graph equal" true (a.Icfg.call_graph = b.Icfg.call_graph);
  check_bool "findings equal" true (Sfind.analyze a = Sfind.analyze b);
  let render t =
    Format.asprintf "%a" Icfg.pp t
  in
  check_bool "pp byte-identical" true (render a = render b)

(* --- static findings ------------------------------------------------------- *)

let test_stack_imbalance () =
  let img = assemble {|
      .entry driver_entry
      .func driver_entry
          push r1              ; never popped
          ret
    |}
  in
  let fs = Sfind.analyze (Icfg.build img) in
  check_bool "imbalance reported" true
    (List.exists (fun f -> f.Sfind.f_rule = "stack-imbalance") fs)

let test_balanced_function_clean () =
  let img = assemble {|
      .entry driver_entry
      .func driver_entry
          push fp
          mov fp, sp
          sub sp, sp, 8
          mov sp, fp
          pop fp
          ret
    |}
  in
  let fs = Sfind.analyze (Icfg.build img) in
  check_int "no findings on balanced code" 0 (List.length fs)

let test_const_arg_contract () =
  let img = assemble {|
      .entry driver_entry
      .func driver_entry
          push fp
          mov fp, sp
          movi r1, 0
          push r1              ; arg2: tag = 0 (violates tag != 0)
          movi r2, 0
          push r2              ; arg1: size = 0 (violates size > 0)
          push r0              ; arg0: out pointer
          kcall NdisAllocateMemoryWithTag
          add sp, sp, 12
          mov sp, fp
          pop fp
          ret
    |}
  in
  let contracts = Ddt_annot.Ndis_annotations.contracts in
  let fs = Sfind.analyze ~contracts (Icfg.build img) in
  let hits =
    List.filter (fun f -> f.Sfind.f_rule = "const-arg-contract") fs
  in
  check_int "both violations caught" 2 (List.length hits)

let test_const_arg_clean_when_ok () =
  let img = assemble {|
      .entry driver_entry
      .func driver_entry
          push fp
          mov fp, sp
          movi r1, 0x4464
          push r1              ; tag nonzero
          movi r2, 64
          push r2              ; size positive
          push r0
          kcall NdisAllocateMemoryWithTag
          add sp, sp, 12
          mov sp, fp
          pop fp
          ret
    |}
  in
  let contracts = Ddt_annot.Ndis_annotations.contracts in
  let fs = Sfind.analyze ~contracts (Icfg.build img) in
  check_int "no findings" 0
    (List.length (List.filter (fun f -> f.Sfind.f_rule = "const-arg-contract") fs))

(* The join-over-predecessors pass: a constant materialized in one
   block and pushed as a kcall argument in a successor block is still a
   must-violation. *)
let test_const_arg_across_blocks () =
  let img = assemble {|
      .entry driver_entry
      .func driver_entry
          push fp
          mov fp, sp
          movi r1, 0           ; tag = 0, materialized here...
          jmp docall           ; ...block boundary...
      docall:
          push r1              ; ...violation pushed here
          movi r2, 64
          push r2              ; size positive
          push r0
          kcall NdisAllocateMemoryWithTag
          add sp, sp, 12
          mov sp, fp
          pop fp
          ret
    |}
  in
  let contracts = Ddt_annot.Ndis_annotations.contracts in
  let fs = Sfind.analyze ~contracts (Icfg.build img) in
  check_int "cross-block constant caught" 1
    (List.length (List.filter (fun f -> f.Sfind.f_rule = "const-arg-contract") fs))

(* The value pre-pass carries the operand stack across blocks: a
   constant pushed before a branch and consumed by the kernel call in
   the next block is still a must-violation. *)
let test_const_arg_pushed_before_branch () =
  let img = assemble {|
      .entry driver_entry
      .func driver_entry
          push fp
          mov fp, sp
          movi r1, 0
          push r1              ; tag = 0 pushed here...
          jmp docall           ; ...block boundary...
      docall:
          movi r2, 64
          push r2              ; size positive
          push r0
          kcall NdisAllocateMemoryWithTag   ; ...consumed here
          add sp, sp, 12
          mov sp, fp
          pop fp
          ret
    |}
  in
  let contracts = Ddt_annot.Ndis_annotations.contracts in
  let fs = Sfind.analyze ~contracts (Icfg.build img) in
  match List.filter (fun f -> f.Sfind.f_rule = "const-arg-contract") fs with
  | [ f ] ->
      check_int "reported at the kcall" 0x40 f.Sfind.f_pos;
      check_bool "names the tag argument" true
        (String.starts_with ~prefix:"NdisAllocateMemoryWithTag argument 2 "
           f.Sfind.f_msg)
  | fs -> Alcotest.failf "want one finding, got %d" (List.length fs)

(* Must-join bias: when predecessors disagree on the value, the merge
   is Top and no finding fires, even though one path violates. *)
let test_const_arg_join_disagreement_clean () =
  let img = assemble {|
      .entry driver_entry
      .func driver_entry
          push fp
          mov fp, sp
          jz r0, zero_tag
          movi r1, 0x4464      ; this path is in contract
          jmp docall
      zero_tag:
          movi r1, 0           ; this path violates
      docall:
          push r1              ; join is Top: may-violation, not reported
          movi r2, 64
          push r2
          push r0
          kcall NdisAllocateMemoryWithTag
          add sp, sp, 12
          mov sp, fp
          pop fp
          ret
    |}
  in
  let contracts = Ddt_annot.Ndis_annotations.contracts in
  let fs = Sfind.analyze ~contracts (Icfg.build img) in
  check_int "no finding at the merge" 0
    (List.length (List.filter (fun f -> f.Sfind.f_rule = "const-arg-contract") fs))

let test_corpus_statically_clean () =
  List.iter
    (fun e ->
      let icfg = Icfg.build (e.Corpus.image ()) in
      let contracts =
        match e.Corpus.driver_class with
        | Config.Network -> Ddt_annot.Ndis_annotations.contracts
        | Config.Audio -> Ddt_annot.Portcls_annotations.contracts
      in
      check_bool (e.Corpus.short ^ " nonzero universe") true
        (icfg.Icfg.universe <> []);
      check_int (e.Corpus.short ^ " clean") 0
        (List.length (Sfind.analyze ~contracts icfg)))
    Corpus.all

(* --- interprocedural lockset / IRQL / race rules ---------------------------- *)

let class_annot = function
  | Config.Network ->
      (Ddt_annot.Ndis_annotations.contracts, Ddt_annot.Ndis_annotations.model)
  | Config.Audio ->
      ( Ddt_annot.Portcls_annotations.contracts,
        Ddt_annot.Portcls_annotations.model )

let interproc ~cls img =
  let contracts, model = class_annot cls in
  List.filter
    (fun f ->
      List.exists
        (fun p -> String.starts_with ~prefix:p f.Sfind.f_rule)
        [ "lock-"; "irql-"; "race-" ])
    (Sfind.analyze ~contracts ~model (Icfg.build img))

let rules_of fs = List.sort_uniq compare (List.map (fun f -> f.Sfind.f_rule) fs)

let test_sdv_lockirql_rules () =
  let fs = interproc ~cls:Config.Network (Ddt_drivers.Sdv_sample.image ()) in
  check_int "six lock/IRQL defects flagged" 6 (List.length fs);
  Alcotest.(check (list string))
    "one finding per seeded rule"
    [ "irql-passive-api"; "lock-double-acquire"; "lock-extra-release";
      "lock-forgotten-release"; "lock-out-of-order"; "lock-wrong-variant" ]
    (rules_of fs);
  check_int "fixed sample clean" 0
    (List.length
       (interproc ~cls:Config.Network (Ddt_drivers.Sdv_sample.fixed_image ())))

let test_synthetics_fire_intended_rules () =
  let intended = function
    | "deadlock" -> "lock-double-acquire"
    | "out_of_order" -> "lock-out-of-order"
    | "extra_release" -> "lock-extra-release"
    | "forgotten_release" -> "lock-forgotten-release"
    | "wrong_irql" -> "irql-passive-api"
    | n -> Alcotest.failf "unknown synthetic %s" n
  in
  List.iter
    (fun (name, img) ->
      let fs = interproc ~cls:Config.Network img in
      check_bool
        (Printf.sprintf "%s fires %s" name (intended name))
        true
        (List.exists (fun f -> f.Sfind.f_rule = intended name) fs))
    (Ddt_drivers.Sdv_sample.synthetic_images ())

(* The seeded corpus: the interprocedural rules statically flag defects
   the intraprocedural baseline misses — the pro100 wrong-variant
   release inside a helper, the rtl8029 timer-before-init race (the
   paper's RTL8029 defect), and the audio drivers' unguarded ISR state
   derefs — while every fixed variant stays clean (the FP gate). *)
let test_corpus_interproc_rules () =
  let expect =
    [ ("pro1000", []); ("pro100", [ "lock-wrong-variant" ]);
      ("ac97", [ "race-unguarded-deref" ]);
      ("audiopci", [ "race-unguarded-deref" ]); ("pcnet", []);
      ("rtl8029", [ "race-unguarded-use" ]); ("deeploop", []) ]
  in
  List.iter
    (fun (e : Corpus.entry) ->
      let fs = interproc ~cls:e.Corpus.driver_class (e.Corpus.image ()) in
      (match List.assoc_opt e.Corpus.short expect with
       | Some rules ->
           Alcotest.(check (list string))
             (e.Corpus.short ^ " buggy rules") rules (rules_of fs)
       | None -> ());
      check_int
        (e.Corpus.short ^ " fixed clean")
        0
        (List.length
           (interproc ~cls:e.Corpus.driver_class (e.Corpus.fixed_image ()))))
    Corpus.all

(* --- JSON report schema ---------------------------------------------------- *)

(* The emitted document, byte for byte: every escape (quote, backslash,
   newline, tab, a control character as \u00XX), a null, nested arrays
   and objects. *)
let test_report_json_roundtrip () =
  let module J = Ddt_core.Report_json in
  let s =
    {
      J.j_schema = J.schema_version;
      j_driver = "odd \"name\"\nwith\tescapes\\\r";
      j_bugs =
        [ { J.jb_kind = "Memory corruption"; jb_key = "k1";
            jb_entry = "send"; jb_pc = 0x1234; jb_message = "oob \"write\"" } ];
      j_reachable_blocks = 88;
      j_covered_reachable = 78;
      j_never_reached = [ 8; 64; 1024 ];
      j_invocations = 12;
      j_finished_states = 40;
      j_paths_to_first_bug = Some 3;
      j_incidents =
        [ { J.ji_kind = "state-fault"; ji_state_id = 7;
            ji_entry = "send"; ji_pc = 0x1240;
            ji_message = "checker exception: Failure(\"hook\")";
            ji_replay = "input mmio 0x0 0xff\nchoice irq \"late\"\n" };
          { J.ji_kind = "solver-exhaustion"; ji_state_id = 0;
            ji_entry = ""; ji_pc = 0;
            ji_message = "1 solver verdict(s) left Unknown during quantum";
            ji_replay = "" } ];
      j_total_steps = 100_000;
      j_merged_states = 46;
      j_merge_ites = 424;
      j_merge_forks_avoided = 2_541;
    }
  in
  let doc first_bug =
    {|{"schema":11,"driver":"odd \"name\"\nwith\tescapes\\\u000d",|}
    ^ {|"bugs":[{"kind":"Memory corruption","key":"k1","entry":"send",|}
    ^ {|"pc":4660,"message":"oob \"write\""}],"reachable_blocks":88,|}
    ^ {|"covered_reachable":78,"never_reached":[8,64,1024],|}
    ^ {|"invocations":12,"finished_states":40,"paths_to_first_bug":|}
    ^ first_bug
    ^ {|,"incidents":[{"kind":"state-fault","state_id":7,"entry":"send",|}
    ^ {|"pc":4672,"message":"checker exception: Failure(\"hook\")",|}
    ^ {|"replay":"input mmio 0x0 0xff\nchoice irq \"late\"\n"},|}
    ^ {|{"kind":"solver-exhaustion","state_id":0,"entry":"","pc":0,|}
    ^ {|"message":"1 solver verdict(s) left Unknown during quantum",|}
    ^ {|"replay":""}],"total_steps":100000,"merged_states":46,|}
    ^ {|"merge_ites":424,"merge_forks_avoided":2541}|}
  in
  check_int "schema version" 11 J.schema_version;
  Alcotest.(check string) "document" (doc "3") (J.to_string s);
  Alcotest.(check string) "null" (doc "null")
    (J.to_string { s with J.j_paths_to_first_bug = None })

(* --- default-config sessions ------------------------------------------------ *)

(* Every buggy corpus driver at the default config: coverage is
   accounted against the static universe consistently. *)
let test_corpus_default_config () =
  List.iter
    (fun e ->
      let r = Session.run (Corpus.config e) in
      let name = e.Corpus.short in
      check_bool (name ^ ": covered_reachable <= reachable") true
        (r.Session.r_covered_reachable <= r.Session.r_reachable_blocks);
      check_int (name ^ ": never_reached complements covered")
        r.Session.r_reachable_blocks
        (r.Session.r_covered_reachable
         + List.length r.Session.r_never_reached))
    Corpus.all

(* The premise that keeps the static tier out of the session: on the
   corpus it finds nothing the dynamic run misses. A lock/IRQL/race
   warning is matched by a dynamic bug of a compatible kind whose pc
   lies in the warned function; the position is matched at function
   granularity because the crash site of a race or deadlock is rarely
   the flagged instruction. Fixed variants give no warning and no bug. *)
let witnessed_rule rule =
  List.exists
    (fun p -> String.starts_with ~prefix:p rule)
    [ "lock-"; "irql-"; "race-" ]

let kind_compatible rule (k : Report.kind) =
  if String.starts_with ~prefix:"race-" rule then
    match k with
    | Report.Race_condition | Report.Segfault | Report.Memory_error
    | Report.Kernel_crash -> true
    | _ -> false
  else
    match k with Report.Lock_misuse | Report.Kernel_crash -> true | _ -> false

let func_of_pc icfg pc =
  match
    Hashtbl.find_opt icfg.Icfg.leader_of (pc - Ddt_dvm.Layout.image_base)
  with
  | Some l -> Option.map (fun f -> f.Icfg.fn_name) (Icfg.func_of_block icfg l)
  | None -> None

let test_static_warnings_are_dynamic_bugs () =
  let warned = ref 0 in
  List.iter
    (fun (e : Corpus.entry) ->
      let name = e.Corpus.short in
      let contracts, model = class_annot e.Corpus.driver_class in
      let icfg = Icfg.build (e.Corpus.image ()) in
      let r = Session.run (Corpus.config e) in
      List.iter
        (fun (f : Sfind.finding) ->
          if witnessed_rule f.Sfind.f_rule then begin
            incr warned;
            if
              not
                (List.exists
                   (fun (b : Report.bug) ->
                     kind_compatible f.Sfind.f_rule b.Report.b_kind
                     && func_of_pc icfg b.Report.b_pc = Some f.Sfind.f_func)
                   r.Session.r_bugs)
            then
              Alcotest.failf "%s: %s in %s at %06x has no dynamic bug" name
                f.Sfind.f_rule f.Sfind.f_func f.Sfind.f_pos
          end)
        (Sfind.analyze ~contracts ~model icfg);
      let fixed_icfg = Icfg.build (e.Corpus.fixed_image ()) in
      check_int (name ^ " fixed: no static warning") 0
        (List.length (Sfind.analyze ~contracts ~model fixed_icfg));
      check_int (name ^ " fixed: no dynamic bug") 0
        (List.length
           (Session.run (Corpus.config ~fixed:true e)).Session.r_bugs))
    Corpus.all;
  check_int "six corpus warnings, each a dynamic bug" 6 !warned

let () =
  Alcotest.run "ddt_staticx"
    [ ("vsa",
       [ Alcotest.test_case "target classification" `Quick
           test_vsa_classification ]);
      ("icfg",
       [ Alcotest.test_case "universe within linear sweep" `Quick
           test_universe_subset_of_linear_sweep;
         Alcotest.test_case "dead code excluded + reported" `Quick
           test_dead_code_excluded_and_reported;
         Alcotest.test_case "compiler fallback not flagged" `Quick
           test_compiler_fallback_not_flagged;
         Alcotest.test_case "indirect call resolved" `Quick
           test_indirect_call_resolved;
         Alcotest.test_case "deterministic" `Quick test_icfg_deterministic ]);
      ("sfind",
       [ Alcotest.test_case "stack imbalance" `Quick test_stack_imbalance;
         Alcotest.test_case "balanced is clean" `Quick
           test_balanced_function_clean;
         Alcotest.test_case "const-arg contract" `Quick
           test_const_arg_contract;
         Alcotest.test_case "const arg across blocks" `Quick
           test_const_arg_across_blocks;
         Alcotest.test_case "const arg pushed before a branch" `Quick
           test_const_arg_pushed_before_branch;
         Alcotest.test_case "join disagreement is clean" `Quick
           test_const_arg_join_disagreement_clean;
         Alcotest.test_case "in-contract args are clean" `Quick
           test_const_arg_clean_when_ok;
         Alcotest.test_case "corpus statically clean" `Quick
           test_corpus_statically_clean ]);
      ("lockirql",
       [ Alcotest.test_case "sdv sample: six seeded defects" `Quick
           test_sdv_lockirql_rules;
         Alcotest.test_case "synthetics fire intended rules" `Quick
           test_synthetics_fire_intended_rules;
         Alcotest.test_case "corpus rules buggy vs fixed" `Quick
           test_corpus_interproc_rules ]);
      ("report-json",
       [ Alcotest.test_case "round-trip" `Quick test_report_json_roundtrip ]);
      ("session",
       [ Alcotest.test_case "corpus coverage at default config" `Quick
           test_corpus_default_config;
         Alcotest.test_case "static warnings are dynamic bugs" `Quick
           test_static_warnings_are_dynamic_bugs ]) ]
