type t = {
  name : string;
  text : bytes;
  data : bytes;
  bss_size : int;
  entry : int;
  imports : string array;
  exports : (string * int) list;
  relocs : int list;
  funcs : (string * int) list;
}

type loaded = {
  image : t;
  base : int;
  text_start : int;
  text_end : int;
  data_start : int;
  data_end : int;
  code : Isa.instr option array;
}

(* Decode the first [len / Isa.instr_size] instruction slots of [text].
   Slots that do not decode -- data placed in text -- are [None];
   executing one is the usual bad-opcode fault, discovered lazily exactly
   as per-fetch decoding would. *)
let decode_slots text ~len =
  Array.init (len / Isa.instr_size) (fun i ->
      match Isa.decode text (i * Isa.instr_size) with
      | instr -> Some instr
      | exception Isa.Invalid_opcode _ -> None)

(* Per-image memo. It is an ephemeron table, so cached values die with
   their image; keys compare physically (images are plain records with no
   identity of their own) and hash on the name. *)
module Memo = Ephemeron.K1.Make (struct
  type nonrec t = t

  let equal = ( == )
  let hash img = Hashtbl.hash img.name
end)

let memoize f =
  let memo = Memo.create 16 in
  fun img ->
    match Memo.find_opt memo img with
    | Some v -> v
    | None ->
        let v = f img in
        Memo.replace memo img v;
        v

(* Pre-load sibling of [loaded.code]: decode the *unrelocated* text once
   per image and share the array across every static consumer (linear
   sweep, baseline CFG, interprocedural ICFG). Address-carrying
   immediates are image-relative here, which is exactly what the static
   analyses want. *)
let code_array =
  memoize (fun img -> decode_slots img.text ~len:(Bytes.length img.text))

let load img mem ~base =
  let text_len = Bytes.length img.text in
  let data_start = base + text_len in
  let data_end = data_start + Bytes.length img.data in
  (* Relocate a private copy of text + data: each relocation is the offset
     of a 32-bit field holding an image-relative address. Memory is then
     written once, page by page, and the code decodes from the copy. *)
  let sections = Bytes.cat img.text img.data in
  List.iter
    (fun off ->
      Bytes.set_int32_le sections off
        (Int32.add (Bytes.get_int32_le sections off) (Int32.of_int base)))
    img.relocs;
  Mem.load_bytes mem base sections;
  Mem.load_bytes mem data_end (Bytes.make img.bss_size '\000');
  {
    image = img;
    base;
    text_start = base;
    text_end = data_start;
    data_start;
    data_end = data_end + img.bss_size;
    code = decode_slots sections ~len:text_len;
  }

let export_addr l name = l.base + List.assoc name l.image.exports

(* --- serialization --------------------------------------------------- *)

let magic = "DXE1"

let to_bytes img =
  let buf = Buffer.create 1024 in
  let u32 v =
    Buffer.add_int32_le buf (Int32.of_int (v land 0xFFFFFFFF))
  in
  let str s =
    u32 (String.length s);
    Buffer.add_string buf s
  in
  Buffer.add_string buf magic;
  str img.name;
  u32 (Bytes.length img.text);
  Buffer.add_bytes buf img.text;
  u32 (Bytes.length img.data);
  Buffer.add_bytes buf img.data;
  u32 img.bss_size;
  u32 img.entry;
  u32 (Array.length img.imports);
  Array.iter str img.imports;
  u32 (List.length img.exports);
  List.iter (fun (n, a) -> str n; u32 a) img.exports;
  u32 (List.length img.relocs);
  List.iter u32 img.relocs;
  u32 (List.length img.funcs);
  List.iter (fun (n, a) -> str n; u32 a) img.funcs;
  Buffer.to_bytes buf

let of_bytes b =
  let pos = ref 0 in
  let fail msg = failwith ("Image.of_bytes: " ^ msg) in
  let need n = if !pos + n > Bytes.length b then fail "truncated" in
  let u32 () =
    need 4;
    let v = Int32.to_int (Bytes.get_int32_le b !pos) land 0xFFFFFFFF in
    pos := !pos + 4;
    v
  in
  let str () =
    let n = u32 () in
    need n;
    let s = Bytes.sub_string b !pos n in
    pos := !pos + n;
    s
  in
  let raw () =
    let n = u32 () in
    need n;
    let s = Bytes.sub b !pos n in
    pos := !pos + n;
    s
  in
  need 4;
  if Bytes.sub_string b 0 4 <> magic then fail "bad magic";
  pos := 4;
  (* A count is checked against the bytes left before anything is
     allocated for it: each record takes at least [min_size] bytes. *)
  let count ~min_size =
    let n = u32 () in
    if n * min_size > Bytes.length b - !pos then fail "count exceeds input";
    n
  in
  let name = str () in
  let text = raw () in
  let data = raw () in
  let bss_size = u32 () in
  let text_len = Bytes.length text in
  let sections_len = text_len + Bytes.length data in
  if sections_len + bss_size > Layout.heap_base - Layout.image_base then
    fail "sections exceed the image window";
  let in_text what off = if off >= text_len then fail (what ^ " outside text") in
  let entry = u32 () in
  in_text "entry" entry;
  let imports = Array.init (count ~min_size:4) (fun _ -> str ()) in
  let exports =
    List.init (count ~min_size:8) (fun _ ->
        let n = str () in
        let off = u32 () in
        (* The assembler exports every label, data ones included, and a
           label may mark the end of the image. *)
        if off > sections_len + bss_size then fail "export outside the image";
        (n, off))
  in
  let relocs =
    List.init (count ~min_size:4) (fun _ ->
        let off = u32 () in
        if off + 4 > sections_len then fail "relocation outside text + data";
        off)
  in
  let funcs =
    List.init (count ~min_size:8) (fun _ ->
        let n = str () in
        let off = u32 () in
        in_text "function" off;
        (n, off))
  in
  { name; text; data; bss_size; entry; imports; exports; relocs; funcs }

type stats = {
  binary_size : int;
  code_size : int;
  num_functions : int;
  num_kernel_imports : int;
}

let stats img =
  {
    binary_size = Bytes.length (to_bytes img);
    code_size = Bytes.length img.text;
    num_functions = List.length img.funcs;
    num_kernel_imports = Array.length img.imports;
  }
