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
