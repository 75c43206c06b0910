module Image = Ddt_dvm.Image
module Isa = Ddt_dvm.Isa
module Disasm = Ddt_dvm.Disasm

type term =
  | T_fall
  | T_jmp of int
  | T_branch of int
  | T_call of int
  | T_callr of int list
  | T_ret
  | T_stop

type block = {
  bb_start : int;
  bb_instrs : (int * Isa.instr) list;
  bb_term : term;
  bb_succs : int list;
  bb_calls : int list;
  bb_kcalls : (int * string) list;
}

type func = {
  fn_entry : int;
  fn_name : string;
  fn_blocks : int list;
  fn_rets : int list;
}

type t = {
  image : Image.t;
  vsa : Vsa.t;
  blocks : (int, block) Hashtbl.t;
  universe : int list;
  funcs : func list;
  seeds : int list;
  call_graph : (int * int list) list;
  leader_of : (int, int) Hashtbl.t;
  gaps : (int * int) list;
  n_instrs : int;
}

let sort_uniq = List.sort_uniq compare

let build (img : Image.t) =
  let text = img.Image.text in
  let text_len = Bytes.length text in
  let valid off =
    off >= 0 && off + Isa.instr_size <= text_len && off mod Isa.instr_size = 0
  in
  (* decode-once: index the shared per-image instruction array instead of
     re-decoding the text section here. *)
  let code = Image.code_array img in
  let decode off = code.(off / Isa.instr_size) in
  let vsa = Vsa.analyze img in
  (* Seeds: the entry point, declared functions and every address-taken
     code target. Plain exported labels are deliberately NOT seeds: the
     assembler exports every label, including ones in the middle of
     straight-line code, and seeding those would split blocks at points
     no control transfer reaches. Anything actually callable from
     outside is either a [.func] symbol or address-taken, so soundness
     is preserved. *)
  let seeds =
    sort_uniq
      (List.filter valid
         (img.Image.entry
          :: (List.map snd img.Image.funcs @ vsa.Vsa.code_targets)))
  in
  (* Recursive descent: flood the instruction graph from the seeds. *)
  let reached : (int, Isa.instr) Hashtbl.t = Hashtbl.create 256 in
  let succs_of off instr =
    let next = off + Isa.instr_size in
    match instr with
    | Isa.Jmp t -> [ t ]
    | Isa.Jz (_, t) | Isa.Jnz (_, t) -> [ t; next ]
    | Isa.Call t -> [ t; next ]
    | Isa.Callr _ -> vsa.Vsa.code_targets @ [ next ]
    | Isa.Ret | Isa.Hlt -> []
    | _ -> [ next ]
  in
  let work = Queue.create () in
  List.iter (fun s -> Queue.add s work) seeds;
  while not (Queue.is_empty work) do
    let off = Queue.pop work in
    if valid off && not (Hashtbl.mem reached off) then
      match decode off with
      | None -> ()   (* data-in-text: stays a gap *)
      | Some instr ->
          Hashtbl.replace reached off instr;
          List.iter (fun s -> if valid s then Queue.add s work)
            (succs_of off instr)
  done;
  (* Leaders: seeds, branch/call targets, and fall-throughs after any
     control transfer. This is the repo's one leader rule: the engine's
     coverage and min-touch keys, the session's coverage denominator and
     the static baseline's blocks all come from [universe]. *)
  let leaders = Hashtbl.create 64 in
  let add_leader off = if Hashtbl.mem reached off then Hashtbl.replace leaders off () in
  List.iter add_leader seeds;
  Hashtbl.iter
    (fun off instr ->
      let next = off + Isa.instr_size in
      match instr with
      | Isa.Jmp t -> add_leader t; add_leader next
      | Isa.Jz (_, t) | Isa.Jnz (_, t) -> add_leader t; add_leader next
      | Isa.Call t -> add_leader t; add_leader next
      | Isa.Callr _ ->
          List.iter add_leader vsa.Vsa.code_targets;
          add_leader next
      | Isa.Ret | Isa.Hlt | Isa.Kcall _ -> add_leader next
      | _ -> ())
    reached;
  let universe =
    List.sort compare (Hashtbl.fold (fun k () acc -> k :: acc) leaders [])
  in
  (* Cut blocks at leaders and terminators. *)
  let blocks = Hashtbl.create 64 in
  let leader_of = Hashtbl.create 256 in
  let imports = img.Image.imports in
  let import_name n =
    if n >= 0 && n < Array.length imports then imports.(n)
    else Printf.sprintf "kcall_%d" n
  in
  List.iter
    (fun l ->
      let rec walk off acc =
        match Hashtbl.find_opt reached off with
        | None ->
            (* flowed into an undecodable slot or out of text *)
            (List.rev acc, off, T_stop)
        | Some instr ->
            Hashtbl.replace leader_of off l;
            let acc = (off, instr) :: acc in
            let next = off + Isa.instr_size in
            let fin term = (List.rev acc, off, term) in
            (match instr with
             | Isa.Jmp t -> fin (T_jmp t)
             | Isa.Jz (_, t) | Isa.Jnz (_, t) -> fin (T_branch t)
             | Isa.Call t -> fin (T_call t)
             | Isa.Callr _ -> fin (T_callr vsa.Vsa.code_targets)
             | Isa.Ret -> fin T_ret
             | Isa.Hlt -> fin T_stop
             | _ ->
                 if Hashtbl.mem leaders next then fin T_fall
                 else walk next acc)
      in
      let instrs, last, term = walk l [] in
      let next = last + Isa.instr_size in
      let live t = if Hashtbl.mem leaders t then [ t ] else [] in
      let succs, calls =
        match term with
        | T_jmp t -> (live t, [])
        | T_branch t -> (sort_uniq (live t @ live next), [])
        | T_call t -> (live next, live t)
        | T_callr ts -> (live next, List.concat_map live ts)
        | T_fall -> (live next, [])
        | T_ret | T_stop -> ([], [])
      in
      let kcalls =
        List.filter_map
          (fun (off, i) ->
            match i with
            | Isa.Kcall n -> Some (off, import_name n)
            | _ -> None)
          instrs
      in
      Hashtbl.replace blocks l
        { bb_start = l; bb_instrs = instrs; bb_term = term;
          bb_succs = succs; bb_calls = calls; bb_kcalls = kcalls })
    universe;
  (* Function entries: the image entry, declared function symbols, every
     address-taken target, and every direct-call target. Plain labels are
     descent seeds but NOT function entries (the assembler exports every
     label). *)
  let entry_set = Hashtbl.create 16 in
  let add_entry off = if Hashtbl.mem leaders off then Hashtbl.replace entry_set off () in
  add_entry img.Image.entry;
  List.iter (fun (_, a) -> add_entry a) img.Image.funcs;
  List.iter add_entry vsa.Vsa.code_targets;
  Hashtbl.iter
    (fun _ b -> match b.bb_term with T_call t -> add_entry t | _ -> ())
    blocks;
  (* Partition blocks into functions: intra-procedural traversal from each
     entry, never crossing into another entry's block. Blocks left over
     (reachable only from a bare label seed) found their own function. *)
  let owner = Hashtbl.create 64 in
  let claim entry =
    let rec go l =
      if (not (Hashtbl.mem owner l))
         && (l = entry || not (Hashtbl.mem entry_set l))
      then begin
        Hashtbl.replace owner l entry;
        match Hashtbl.find_opt blocks l with
        | None -> ()
        | Some b -> List.iter go b.bb_succs
      end
    in
    go entry
  in
  let entries =
    List.sort compare (Hashtbl.fold (fun k () acc -> k :: acc) entry_set [])
  in
  List.iter claim entries;
  let orphans =
    List.filter (fun l -> not (Hashtbl.mem owner l)) universe
  in
  let extra_entries = ref [] in
  List.iter
    (fun l ->
      if not (Hashtbl.mem owner l) then begin
        extra_entries := l :: !extra_entries;
        claim l
      end)
    orphans;
  let entries = List.sort compare (entries @ !extra_entries) in
  (* Names: function symbols win, then exported labels, then sub_<off>. *)
  let name_of off =
    let named l =
      List.sort compare
        (List.filter_map (fun (n, a) -> if a = off then Some n else None) l)
    in
    match named img.Image.funcs with
    | n :: _ -> n
    | [] -> (
        match named img.Image.exports with
        | n :: _ -> n
        | [] -> Printf.sprintf "sub_%04x" off)
  in
  let funcs =
    List.map
      (fun entry ->
        let fn_blocks =
          List.sort compare
            (Hashtbl.fold
               (fun l e acc -> if e = entry then l :: acc else acc)
               owner [])
        in
        let fn_rets =
          List.filter
            (fun l ->
              match Hashtbl.find_opt blocks l with
              | Some { bb_term = T_ret; _ } -> true
              | _ -> false)
            fn_blocks
        in
        { fn_entry = entry; fn_name = name_of entry; fn_blocks; fn_rets })
      entries
  in
  let call_graph =
    List.map
      (fun f ->
        let callees =
          sort_uniq
            (List.concat_map
               (fun l ->
                 match Hashtbl.find_opt blocks l with
                 | Some b -> b.bb_calls
                 | None -> [])
               f.fn_blocks)
        in
        (f.fn_entry, callees))
      funcs
  in
  let gaps =
    Disasm.unreached_gaps img ~reached:(fun off -> Hashtbl.mem reached off)
  in
  {
    image = img;
    vsa;
    blocks;
    universe;
    funcs;
    seeds;
    call_graph;
    leader_of;
    gaps;
    n_instrs = Hashtbl.length reached;
  }

let block t l = Hashtbl.find_opt t.blocks l

let func_of_block t l =
  List.find_opt (fun f -> List.mem l f.fn_blocks) t.funcs

let pp fmt t =
  Format.fprintf fmt "icfg of %s: %d seed(s), %d function(s), %d block(s), %d instruction(s)@."
    t.image.Image.name (List.length t.seeds) (List.length t.funcs)
    (List.length t.universe) t.n_instrs;
  List.iter
    (fun f ->
      let callees =
        match List.assoc_opt f.fn_entry t.call_graph with
        | Some cs -> cs
        | None -> []
      in
      Format.fprintf fmt "  %s @@ %06x: %d block(s)%s@." f.fn_name f.fn_entry
        (List.length f.fn_blocks)
        (if callees = [] then ""
         else
           " -> "
           ^ String.concat ", "
               (List.map
                  (fun c ->
                    match List.find_opt (fun g -> g.fn_entry = c) t.funcs with
                    | Some g -> g.fn_name
                    | None -> Printf.sprintf "%06x" c)
                  callees)))
    t.funcs;
  if t.vsa.Vsa.code_targets <> [] then
    Format.fprintf fmt "  address-taken targets: %s@."
      (String.concat ", "
         (List.map (Printf.sprintf "%06x") t.vsa.Vsa.code_targets));
  List.iter
    (fun (off, len) ->
      Format.fprintf fmt "  gap @@ %06x: %d byte(s) not reached@." off len)
    t.gaps
