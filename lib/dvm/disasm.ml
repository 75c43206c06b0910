(* Linear sweep: decode every instruction slot in the text section. Slots
   whose opcode byte does not decode are data-in-text (jump tables, string
   constants the toolchain placed in .text) — they are returned as
   explicit gap runs instead of being silently skipped, so clients can
   tell "code" from "bytes that happen to sit in the text section". *)
let linear_sweep (img : Image.t) =
  let code = Image.code_array img in
  let n = Bytes.length img.Image.text in
  let decoded = ref [] and gaps = ref [] in
  let add_gap pos len =
    match !gaps with
    | (s, l) :: rest when s + l = pos -> gaps := (s, l + len) :: rest
    | g -> gaps := (pos, len) :: g
  in
  Array.iteri
    (fun i slot ->
      let pos = i * Isa.instr_size in
      match slot with
      | Some instr -> decoded := (pos, instr) :: !decoded
      | None -> add_gap pos Isa.instr_size)
    code;
  (* trailing partial slot: can never hold an instruction *)
  let tail = Array.length code * Isa.instr_size in
  if tail < n then add_gap tail (n - tail);
  (List.rev !decoded, List.rev !gaps)

let disassemble img = fst (linear_sweep img)

let unreached_gaps (img : Image.t) ~reached =
  let n = Bytes.length img.Image.text in
  let rec go pos gaps =
    if pos >= n then List.rev gaps
    else if pos + Isa.instr_size > n then
      (* trailing partial slot: can never hold an instruction *)
      List.rev
        (match gaps with
         | (s, l) :: rest when s + l = pos -> (s, l + (n - pos)) :: rest
         | _ -> (pos, n - pos) :: gaps)
    else if reached pos then go (pos + Isa.instr_size) gaps
    else
      let gaps =
        match gaps with
        | (s, l) :: rest when s + l = pos -> (s, l + Isa.instr_size) :: rest
        | _ -> (pos, Isa.instr_size) :: gaps
      in
      go (pos + Isa.instr_size) gaps
  in
  go 0 []

let pp_listing fmt (img : Image.t) =
  let funcs = List.map (fun (n, a) -> (a, n)) img.Image.funcs in
  let decoded, gaps = linear_sweep img in
  List.iter
    (fun (off, instr) ->
      (match List.assoc_opt off funcs with
       | Some name -> Format.fprintf fmt "%s:@." name
       | None -> ());
      Format.fprintf fmt "  %06x: %a@." off Isa.pp instr)
    decoded;
  List.iter
    (fun (off, len) ->
      Format.fprintf fmt "  %06x: <%d byte(s) of non-code>@." off len)
    gaps

(* Memoized: the engine's block table and the session's block count
   share one sweep. *)
let basic_block_starts =
  Image.memoize (fun (img : Image.t) ->
      let leaders = Hashtbl.create 64 in
      let text_len = Bytes.length img.Image.text in
      let add off =
        if off >= 0 && off < text_len then Hashtbl.replace leaders off ()
      in
      List.iter (fun (_, a) -> add a) img.Image.funcs;
      add img.Image.entry;
      (* Relocated jump targets are stored image-relative pre-load, so the
         decoded immediates here are image-relative too. *)
      List.iter
        (fun (off, instr) ->
          match instr with
          | Isa.Jmp t -> add t; add (off + Isa.instr_size)
          | Isa.Jz (_, t) | Isa.Jnz (_, t) ->
              add t;
              add (off + Isa.instr_size)
          | Isa.Call t -> add t; add (off + Isa.instr_size)
          | Isa.Callr _ | Isa.Ret | Isa.Hlt | Isa.Kcall _ ->
              add (off + Isa.instr_size)
          | _ -> ())
        (disassemble img);
      List.sort compare (Hashtbl.fold (fun k () acc -> k :: acc) leaders []))
