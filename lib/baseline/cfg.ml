module Isa = Ddt_dvm.Isa
module Image = Ddt_dvm.Image
module Icfg = Ddt_staticx.Icfg

type token =
  | Tok_offset of int
  | Tok_local of int
  | Tok_unknown

type kcall_site = {
  kc_name : string;
  kc_arg0 : token;
  kc_pos : int;
}

type block = {
  b_start : int;
  b_instrs : (int * Isa.instr) list;
  b_kcalls : kcall_site list;
  b_succs : int list;
  b_is_exit : bool;
}

type func = {
  f_name : string;
  f_start : int;
  f_blocks : (int, block) Hashtbl.t;
  f_entry : int;
}

(* Recover the token for kcall argument 0 by walking backwards from the
   kcall: find the last `push rX` and the instruction sequence that
   computed rX. Recognizes the Mini-C compiler's idioms:
     - add r0, r1, r0 / pop r0 / mov r1, r0 / movi r0, K   (base + K)
     - sub r0, fp, K ; push                                 (local address)
     - ldw r0, [fp +/- K] ; push                            (local value)
*)
let arg0_token instrs_before =
  (* instrs_before: instructions of the block before the kcall, newest
     first. Skip other pushes' producers conservatively: argument 0 is the
     LAST push before the kcall. *)
  match instrs_before with
  | (_, Isa.Push r) :: rest -> (
      let producer = function
        | (_, Isa.Alu (Isa.Add, rd, _, _)) :: more when rd = r -> (
            (* pattern: movi r0,K ; mov r1,r0 ; pop r0 ; add r0,r0,r1 *)
            let rec find_movi = function
              | (_, Isa.Movi (_, k)) :: _ -> Tok_offset k
              | (_, Isa.Push _) :: _ -> Tok_unknown
              | _ :: m -> find_movi m
              | [] -> Tok_unknown
            in
            match more with
            | (_, Isa.Pop _) :: m2 -> find_movi m2
            | _ -> Tok_unknown)
        | (_, Isa.Alui (Isa.Add, rd, base, k)) :: _ when rd = r ->
            if base = Isa.fp then Tok_local (-k land 0xFFFFFFFF)
            else Tok_offset k
        | (_, Isa.Alui (Isa.Sub, rd, base, k)) :: _ when rd = r ->
            if base = Isa.fp then Tok_local k else Tok_unknown
        | (_, Isa.Ldw (rd, base, off)) :: _ when rd = r ->
            if base = Isa.fp then Tok_local off else Tok_unknown
        | (_, Isa.Movi (rd, k)) :: _ when rd = r -> Tok_offset k
        | _ -> Tok_unknown
      in
      producer rest)
  | _ -> Tok_unknown

let build (img : Image.t) =
  let icfg = Icfg.build img in
  let funcs_sorted =
    List.sort (fun (_, a) (_, b) -> compare a b) img.Image.funcs
  in
  let text_len = Bytes.length img.Image.text in
  let func_extent start =
    let rec next = function
      | [] -> text_len
      | (_, a) :: rest -> if a > start then a else next rest
    in
    next funcs_sorted
  in
  List.map
    (fun (fname, fstart) ->
      let fend = func_extent fstart in
      let inside t = t >= fstart && t < fend in
      let blocks = Hashtbl.create 16 in
      List.iter
        (fun leader ->
          match Icfg.block icfg leader with
          | Some ib when inside leader ->
              let b_instrs = ib.Icfg.bb_instrs in
              (* Collect kcalls with their recovered argument tokens. *)
              let kcalls = ref [] in
              let seen_rev = ref [] in
              List.iter
                (fun (pos, i) ->
                  (match i with
                   | Isa.Kcall n
                     when n >= 0 && n < Array.length img.Image.imports ->
                       kcalls :=
                         { kc_name = img.Image.imports.(n);
                           kc_arg0 = arg0_token !seen_rev;
                           kc_pos = pos }
                         :: !kcalls
                   | _ -> ());
                  seen_rev := (pos, i) :: !seen_rev)
                b_instrs;
              (* Successors stay inside the function: a direct or
                 indirect call is a plain instruction, and flow that
                 leaves the extent is an exit. *)
              let fall = fst (List.hd (List.rev b_instrs)) + Isa.instr_size in
              let succs, is_exit =
                match ib.Icfg.bb_term with
                | Icfg.T_jmp t -> if inside t then ([ t ], false) else ([], true)
                | Icfg.T_branch t ->
                    let ss = if inside t then [ t ] else [] in
                    ((if fall < fend then fall :: ss else ss), false)
                | Icfg.T_ret | Icfg.T_stop -> ([], true)
                | Icfg.T_fall | Icfg.T_call _ | Icfg.T_callr _ ->
                    if fall < fend then ([ fall ], false) else ([], true)
              in
              Hashtbl.replace blocks leader
                { b_start = leader; b_instrs; b_kcalls = List.rev !kcalls;
                  b_succs = succs; b_is_exit = is_exit }
          | _ -> ())
        icfg.Icfg.universe;
      { f_name = fname; f_start = fstart; f_blocks = blocks; f_entry = fstart })
    img.Image.funcs
