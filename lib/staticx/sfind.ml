module Isa = Ddt_dvm.Isa
module Annot = Ddt_annot.Annot

type finding = {
  f_rule : string;
  f_func : string;
  f_pos : int;
  f_msg : string;
}

(* Immediates are stored as u32; stack adjustments may encode negative
   displacements as wrapped values. *)
let signed32 v = if v > 0x7FFFFFFF then v - 0x100000000 else v

(* --- unreachable code ---------------------------------------------------- *)

(* The Mini-C compiler closes every function with an unconditional
   default-return fallback (movi r0, 0 flowing into the epilogue); when
   every source path returns explicitly, that single slot is dead. It is
   genuinely unreachable (and stays out of the block universe and in
   {!Icfg.t.gaps}), but flagging it would mark every clean driver dirty,
   so the finding is suppressed for exactly that shape: one instruction
   slot, decodable, non-terminator, falling through into reached code. *)
let is_compiler_fallback (icfg : Icfg.t) off len =
  len = Isa.instr_size
  && Hashtbl.mem icfg.Icfg.leader_of (off + Isa.instr_size)
  &&
  match Isa.decode icfg.Icfg.image.Ddt_dvm.Image.text off with
  | Isa.Jmp _ | Isa.Jz _ | Isa.Jnz _ | Isa.Ret | Isa.Hlt -> false
  | _ -> true
  | exception Isa.Invalid_opcode _ -> false

let gap_findings (icfg : Icfg.t) =
  List.filter_map
    (fun (off, len) ->
      if is_compiler_fallback icfg off len then None
      else
        Some
          { f_rule = "unreachable-code";
            f_func = "";
            f_pos = off;
            f_msg =
              Printf.sprintf
                "%d byte(s) of text no control-flow path reaches (dead code \
                 or data-in-text)" len })
    icfg.Icfg.gaps

(* --- stack-depth imbalance ----------------------------------------------- *)

(* Track sp and fp as known displacements from the function-entry sp
   (where mem[sp] holds the return address), or Unknown. A [ret] with a
   known nonzero displacement reads a wrong return address on that path.
   Unknown displacements are never reported — the rule stays
   false-positive-free at the cost of missing imbalances behind
   indirect sp arithmetic. *)

type disp = Known of int | Unknown

let step_disp (sp, fp) instr =
  let wr r v (sp, fp) =
    if r = Isa.sp then (v, fp) else if r = Isa.fp then (sp, v) else (sp, fp)
  in
  let adjust v k = match v with Known d -> Known (d + k) | Unknown -> Unknown in
  match instr with
  | Isa.Push _ -> (adjust sp (-4), fp)
  | Isa.Pop r ->
      let sp', fp' = wr r Unknown (sp, fp) in
      if r = Isa.sp then (sp', fp') else (adjust sp' 4, fp')
  | Isa.Mov (rd, rs) when rd = Isa.sp && rs = Isa.fp -> (fp, fp)
  | Isa.Mov (rd, rs) when rd = Isa.fp && rs = Isa.sp -> (sp, sp)
  | Isa.Mov (rd, _) | Isa.Movi (rd, _) | Isa.Lea (rd, _) ->
      wr rd Unknown (sp, fp)
  | Isa.Alui (Isa.Add, rd, rs, k) when rd = rs && (rd = Isa.sp || rd = Isa.fp) ->
      if rd = Isa.sp then (adjust sp (signed32 k), fp)
      else (sp, adjust fp (signed32 k))
  | Isa.Alui (Isa.Sub, rd, rs, k) when rd = rs && (rd = Isa.sp || rd = Isa.fp) ->
      if rd = Isa.sp then (adjust sp (- signed32 k), fp)
      else (sp, adjust fp (- signed32 k))
  | Isa.Alui (_, rd, _, _) | Isa.Alu (_, rd, _, _)
  | Isa.Cmp (_, rd, _, _) | Isa.Cmpi (_, rd, _, _)
  | Isa.Ldw (rd, _, _) | Isa.Ldb (rd, _, _) ->
      wr rd Unknown (sp, fp)
  (* Call/Callr push a return address the callee's ret pops; kcall leaves
     the stack alone. Net zero under the callee-balanced assumption. *)
  | _ -> (sp, fp)

let stack_findings (icfg : Icfg.t) =
  let findings = ref [] in
  let report fn off d =
    findings :=
      { f_rule = "stack-imbalance";
        f_func = fn.Icfg.fn_name;
        f_pos = off;
        f_msg =
          Printf.sprintf
            "a path reaches this ret with the stack displaced by %d byte(s); \
             the return address read misses" d }
      :: !findings
  in
  List.iter
    (fun fn ->
      let visited = Hashtbl.create 64 in
      let visits_per_block = Hashtbl.create 16 in
      let reported = Hashtbl.create 4 in
      let rec go l sp fp =
        let key = (l, sp, fp) in
        let nvisits =
          match Hashtbl.find_opt visits_per_block l with Some n -> n | None -> 0
        in
        if (not (Hashtbl.mem visited key)) && nvisits < 64 then begin
          Hashtbl.replace visited key ();
          Hashtbl.replace visits_per_block l (nvisits + 1);
          match Hashtbl.find_opt icfg.Icfg.blocks l with
          | None -> ()
          | Some b ->
              let sp, fp =
                List.fold_left
                  (fun acc (_, i) -> step_disp acc i)
                  (sp, fp) b.Icfg.bb_instrs
              in
              (match b.Icfg.bb_term with
               | Icfg.T_ret -> (
                   match sp with
                   | Known d when d <> 0 && not (Hashtbl.mem reported l) ->
                       Hashtbl.replace reported l ();
                       let last_off =
                         match List.rev b.Icfg.bb_instrs with
                         | (off, _) :: _ -> off
                         | [] -> l
                       in
                       report fn last_off d
                   | _ -> ())
               | _ -> ());
              (* stay inside the function: interprocedural balance is the
                 callee's own obligation *)
              List.iter
                (fun s -> if List.mem s fn.Icfg.fn_blocks then go s sp fp)
                b.Icfg.bb_succs
        end
      in
      go fn.Icfg.fn_entry (Known 0) Unknown)
    icfg.Icfg.funcs;
  !findings

(* --- statically-constant out-of-contract arguments ----------------------- *)

(* A scan of the {!Dataflow} pre-pass's kernel-call events. An argument
   the pre-pass proves [Bconst] holds that value on every path into the
   call: its joins keep a constant only where all predecessors agree, and
   function arguments start unknown. So a constant failing the API's
   contract is a must-violation, and the rule stays false-positive-free. *)
let contract_violations ~contracts (vals : Dataflow.t) =
  let at_kcall fn = function
    | Dataflow.E_kcall { ev_off; name; args = Some args; _ } ->
        List.filter_map
          (fun (c : Annot.arg_contract) ->
            match List.nth_opt args c.Annot.c_arg with
            | Some { Dataflow.base = Dataflow.Bconst; disp = v; _ }
              when c.Annot.c_api = name && not (c.Annot.c_check v) ->
                Some
                  { f_rule = "const-arg-contract";
                    f_func = fn.Icfg.fn_name;
                    f_pos = ev_off;
                    f_msg =
                      Printf.sprintf "%s argument %d is always %d: %s" name
                        c.Annot.c_arg v c.Annot.c_doc }
            | _ -> None)
          contracts
    | _ -> []
  in
  List.concat_map
    (fun (_, fi) ->
      List.concat_map
        (fun (_, bi) ->
          List.concat_map (at_kcall fi.Dataflow.fi_func) bi.Dataflow.bi_events)
        fi.Dataflow.fi_blocks)
    vals.Dataflow.funcs

(* --- interprocedural model-driven rules ---------------------------------- *)

(* Lockset/IRQL and race-pair findings from the {!Dataflow} framework,
   available when the caller supplies the kernel-API model of the
   driver's class. *)
let model_findings ~model vals =
  let roles = Dataflow.roles vals ~model in
  let li = Lockirql.analyze vals ~model ~roles in
  let races = Racepair.analyze ~model ~sites:li.Lockirql.r_sites in
  List.map
    (fun (rule, func, pos, msg) ->
      { f_rule = rule; f_func = func; f_pos = pos; f_msg = msg })
    (li.Lockirql.r_findings @ races)

let analyze ?(contracts = []) ?model icfg =
  (* one value pre-pass, shared by the contract scan and the model rules *)
  let vals = lazy (Dataflow.analyze icfg) in
  let all =
    gap_findings icfg
    @ stack_findings icfg
    @ (if contracts = [] then []
       else contract_violations ~contracts (Lazy.force vals))
    @ (match model with
       | Some model -> model_findings ~model (Lazy.force vals)
       | None -> [])
  in
  List.sort_uniq
    (fun a b ->
      compare (a.f_pos, a.f_rule, a.f_func, a.f_msg)
        (b.f_pos, b.f_rule, b.f_func, b.f_msg))
    all
