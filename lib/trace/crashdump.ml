type t = {
  d_pc : int;
  d_regs : int array;
  d_note : string;
  d_pages : (int * bytes) list;
}

let magic = "DDMP"

let to_bytes d =
  let buf = Buffer.create 4096 in
  let u32 v = Buffer.add_int32_le buf (Int32.of_int (v land 0xFFFFFFFF)) in
  Buffer.add_string buf magic;
  u32 d.d_pc;
  u32 (Array.length d.d_regs);
  Array.iter u32 d.d_regs;
  u32 (String.length d.d_note);
  Buffer.add_string buf d.d_note;
  u32 (List.length d.d_pages);
  List.iter
    (fun (base, page) ->
      u32 base;
      u32 (Bytes.length page);
      Buffer.add_bytes buf page)
    d.d_pages;
  Buffer.to_bytes buf

let of_bytes b =
  let pos = ref 0 in
  let fail msg = failwith ("Crashdump.of_bytes: " ^ msg) in
  let need n = if !pos + n > Bytes.length b then fail "truncated" in
  let u32 () =
    need 4;
    let v = Int32.to_int (Bytes.get_int32_le b !pos) land 0xFFFFFFFF in
    pos := !pos + 4;
    v
  in
  (* Each record takes at least [min_size] bytes: check a count against
     the bytes left before allocating for it. *)
  let count ~min_size =
    let n = u32 () in
    if n * min_size > Bytes.length b - !pos then fail "count exceeds input";
    n
  in
  need 4;
  if Bytes.sub_string b 0 4 <> magic then fail "bad magic";
  pos := 4;
  let d_pc = u32 () in
  let d_regs = Array.init (count ~min_size:4) (fun _ -> u32 ()) in
  let note_len = u32 () in
  need note_len;
  let d_note = Bytes.sub_string b !pos note_len in
  pos := !pos + note_len;
  let d_pages =
    List.init (count ~min_size:8) (fun _ ->
        let base = u32 () in
        let len = u32 () in
        need len;
        let page = Bytes.sub b !pos len in
        pos := !pos + len;
        (base, page))
  in
  { d_pc; d_regs; d_note; d_pages }

let find_u32 d addr =
  List.find_map
    (fun (base, page) ->
      if addr >= base && addr + 4 <= base + Bytes.length page then
        Some (Int32.to_int (Bytes.get_int32_le page (addr - base)) land 0xFFFFFFFF)
      else None)
    d.d_pages
