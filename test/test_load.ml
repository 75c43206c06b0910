(* Tests for the prebuilt corpus and the image load path: the embedded
   DXE bytes against a fresh compile of the sources, the one-pass
   [Image.load] against a byte-at-a-time loader, and the DXE decoder on
   malformed input. *)

open Ddt_dvm
module Dxe = Ddt_drivers.Dxe
module Corpus = Ddt_drivers.Corpus

let check_bool = Alcotest.(check bool)
let check_str = Alcotest.(check string)

(* Every image the drivers library hands out, from its thunks. *)
let thunk_images () =
  let open Ddt_drivers in
  List.concat_map
    (fun e -> [ e.Corpus.image (); e.Corpus.fixed_image () ])
    Corpus.all
  @ [ Usb_nic.image (); Usb_nic.fixed_image (); Sdv_sample.image ();
      Sdv_sample.fixed_image () ]
  @ List.map snd (Sdv_sample.synthetic_images ())

(* --- prebuilt corpus ------------------------------------------------------ *)

let test_drift () =
  Alcotest.(check (list string))
    "one prebuilt image per source variant"
    (List.map fst Ddt_driver_sources.Variants.all)
    (List.map fst Dxe.all);
  List.iter
    (fun (name, source) ->
      let compiled =
        Bytes.to_string
          (Image.to_bytes (Ddt_minicc.Codegen.compile ~name source))
      in
      check_bool (name ^ " prebuilt = compiled") true
        (compiled = List.assoc name Dxe.all))
    Ddt_driver_sources.Variants.all

let test_thunks () =
  List.iter
    (fun e ->
      check_str "image name" e.Corpus.short (e.Corpus.image ()).Image.name;
      check_str "fixed image name" (e.Corpus.short ^ "-fixed")
        (e.Corpus.fixed_image ()).Image.name)
    Corpus.all;
  let images = thunk_images () in
  Alcotest.(check (list string))
    "the thunks cover every prebuilt image"
    (List.sort compare (List.map fst Dxe.all))
    (List.sort compare (List.map (fun i -> i.Image.name) images));
  List.iter
    (fun img ->
      check_bool (img.Image.name ^ " decodes its own bytes") true
        (Bytes.to_string (Image.to_bytes img)
         = List.assoc img.Image.name Dxe.all))
    images;
  List.iter2
    (fun a b -> check_bool (a.Image.name ^ " memoized") true (a == b))
    images (thunk_images ())

(* --- one-pass load -------------------------------------------------------- *)

(* The loader as it was: every section byte through [Mem.write_u8], the
   relocations patched in memory, the text decoded from memory. *)
let reference_load (img : Image.t) mem ~base =
  let put addr b =
    Bytes.iteri (fun i c -> Mem.write_u8 mem (addr + i) (Char.code c)) b
  in
  let text_len = Bytes.length img.Image.text in
  put base img.Image.text;
  put (base + text_len) img.Image.data;
  for i = 0 to img.Image.bss_size - 1 do
    Mem.write_u8 mem (base + text_len + Bytes.length img.Image.data + i) 0
  done;
  List.iter
    (fun off ->
      let v = Mem.read_u32 mem (base + off) in
      Mem.write_u32 mem (base + off) ((v + base) land 0xFFFFFFFF))
    img.Image.relocs;
  let text = Mem.read_bytes mem base text_len in
  Array.init (text_len / Isa.instr_size) (fun i ->
      match Isa.decode text (i * Isa.instr_size) with
      | instr -> Some instr
      | exception Isa.Invalid_opcode _ -> None)

let pages mem =
  let acc = ref [] in
  Mem.iter_pages mem (fun a p -> acc := (a, Bytes.to_string p) :: !acc);
  List.sort compare !acc

let check_load_equivalent (img : Image.t) =
  let base = Layout.image_base in
  let mem = Mem.create () and ref_mem = Mem.create () in
  let l = Image.load img mem ~base in
  let ref_code = reference_load img ref_mem ~base in
  let name = img.Image.name in
  check_bool (name ^ ": same pages") true (pages mem = pages ref_mem);
  check_bool (name ^ ": same image bytes") true
    (Mem.read_bytes mem base (l.Image.data_end - base)
     = Mem.read_bytes ref_mem base (l.Image.data_end - base));
  check_bool (name ^ ": same code") true (l.Image.code = ref_code)

let test_load_corpus () =
  List.iter
    (fun (_, dxe) -> check_load_equivalent (Image.of_bytes (Bytes.of_string dxe)))
    Dxe.all

(* A hand-built image whose relocation reaches past the data, into the
   bss or across the end of a text with no data, is refused before memory
   is touched. *)
let test_load_outlying_relocs () =
  let text = Bytes.cat (Isa.encode (Isa.Movi (1, 0x10))) (Isa.encode Isa.Ret) in
  List.iter
    (fun (data, reloc) ->
      let img =
        { Image.name = "outlying"; text; data; bss_size = 16; entry = 0;
          imports = [||]; exports = []; relocs = [ reloc ]; funcs = [] }
      in
      let mem = Mem.create () in
      (match Image.load img mem ~base:Layout.image_base with
       | _ -> Alcotest.fail "loaded"
       | exception Invalid_argument _ -> ());
      check_bool "memory untouched" true (pages mem = []))
    [ (Bytes.make 8 '\001', 24); (Bytes.empty, 14) ]

let test_load_bytes_mmio () =
  let mem = Mem.create () in
  let writes = ref [] in
  Mem.add_mmio mem
    { Mem.mmio_start = 0x2FFE; mmio_size = 3;
      mmio_read = (fun _ -> 0);
      mmio_write = (fun off v -> writes := (off, v) :: !writes) };
  Mem.load_bytes mem 0x2FFC (Bytes.of_string "\001\002\003\004\005\006");
  Alcotest.(check (list (pair int int)))
    "device sees its bytes in order" [ (0, 3); (1, 4); (2, 5) ]
    (List.rev !writes);
  Alcotest.(check (list int))
    "RAM around it is written" [ 1; 2; 6 ]
    [ Mem.read_u8 mem 0x2FFC; Mem.read_u8 mem 0x2FFD; Mem.read_u8 mem 0x3001 ]

(* --- malformed input ------------------------------------------------------ *)

let le32 v =
  let b = Bytes.create 4 in
  Bytes.set_int32_le b 0 (Int32.of_int v);
  Bytes.to_string b

(* A DXE header with a one-byte text section, then [rest]. *)
let dxe_header ~bss_size rest =
  String.concat ""
    ([ "DXE1"; le32 0; le32 1; "\000"; le32 0; le32 bss_size; le32 0 ] @ rest)

(* Rejected with [Failure expected], in under 10 ms and without a large
   allocation. *)
let check_rejected ~decode ~expected input =
  let bytes = Gc.allocated_bytes () and t0 = Sys.time () in
  (match decode (Bytes.of_string input) with
   | _ -> Alcotest.failf "accepted, want %S" expected
   | exception Failure msg -> check_str "message" expected msg);
  check_bool "under 10 ms" true (Sys.time () -. t0 < 0.01);
  check_bool "no large allocation" true (Gc.allocated_bytes () -. bytes < 1e6)

let test_decoder_repros () =
  let imports = dxe_header ~bss_size:0 [ le32 0x7FFFFFF0; le32 0 ] in
  Alcotest.(check int) "33-byte DXE" 33 (String.length imports);
  check_rejected ~decode:Image.of_bytes
    ~expected:"Image.of_bytes: count exceeds input" imports;
  let bss =
    dxe_header ~bss_size:0x7FFFFFFF [ le32 0; le32 0; le32 0; le32 0 ]
  in
  Alcotest.(check int) "41-byte DXE" 41 (String.length bss);
  check_rejected ~decode:Image.of_bytes
    ~expected:"Image.of_bytes: sections exceed the image window" bss

(* One field of a valid image set out of range at a time. *)
let test_decoder_bounds () =
  let text = Bytes.cat (Isa.encode (Isa.Movi (1, 0))) (Isa.encode Isa.Ret) in
  let valid =
    { Image.name = "bounds"; text; data = Bytes.make 8 '\000'; bss_size = 8;
      entry = 8; imports = [| "X" |]; exports = [ ("end", 32) ];
      relocs = [ Isa.imm_field_offset; 20 ]; funcs = [ ("f", 8) ] }
  in
  let decodes img = Image.of_bytes (Image.to_bytes img) = img in
  check_bool "valid at every bound" true (decodes valid);
  List.iter
    (fun (expected, img) ->
      check_rejected ~expected:("Image.of_bytes: " ^ expected)
        ~decode:Image.of_bytes (Bytes.to_string (Image.to_bytes img)))
    [ ("entry outside text", { valid with entry = 16 });
      ("function outside text", { valid with funcs = [ ("f", 16) ] });
      ("export outside the image", { valid with exports = [ ("x", 33) ] });
      ("relocation outside text + data", { valid with relocs = [ 21 ] });
      ("sections exceed the image window",
       { valid with
         bss_size = Layout.heap_base - Layout.image_base - 23 }) ]

(* Truncations and corruptions of every corpus DXE: they decode or fail
   with [Failure] -- never [Out_of_memory] or [Invalid_argument] -- and
   whatever decodes loads within a second. Corruptions land anywhere, in
   the header or in the tables at the end, as single bytes or as whole
   32-bit fields set to extreme counts. *)
let prop_corrupt_dxe =
  let dxes = Array.of_list Dxe.all in
  let gen =
    QCheck.Gen.(
      let* i = int_bound (Array.length dxes - 1) in
      let n = String.length (snd dxes.(i)) in
      let pos =
        frequency
          [ (1, int_bound (n - 1)); (1, int_bound 63);
            (1, int_range (n * 3 / 4) (n - 1)) ]
      in
      let value =
        oneof
          [ oneofl [ 0; 1; 0xFF; 0x7FFFFFF0; 0x7FFFFFFF; 0xFFFFFFFF ];
            int_bound 0xFFFF ]
      in
      let edit = triple pos value bool in
      let+ change =
        oneof
          [ map (fun len -> `Truncate len) (int_bound (n - 1));
            map (fun es -> `Edit es) (list_size (int_range 1 6) edit) ]
      in
      (i, change))
  in
  let apply (i, change) =
    let b = Bytes.of_string (snd dxes.(i)) in
    match change with
    | `Truncate len -> Bytes.sub b 0 len
    | `Edit edits ->
        List.iter
          (fun (pos, v, wide) ->
            if wide && pos + 4 <= Bytes.length b then
              Bytes.set_int32_le b pos (Int32.of_int v)
            else Bytes.set_uint8 b pos (v land 0xFF))
          edits;
        b
  in
  let print (i, change) =
    fst dxes.(i) ^ ": "
    ^
    match change with
    | `Truncate len -> Printf.sprintf "truncated to %d" len
    | `Edit es ->
        String.concat "; "
          (List.map
             (fun (p, v, w) -> Printf.sprintf "%s 0x%x at %d"
                 (if w then "u32" else "u8") v p)
             es)
  in
  QCheck.Test.make ~count:500 ~name:"corrupt DXE decodes or fails cleanly"
    (QCheck.make ~print gen)
    (fun input ->
      match Image.of_bytes (apply input) with
      | exception Failure _ -> true
      | img ->
          let t0 = Sys.time () in
          ignore (Image.load img (Mem.create ()) ~base:Layout.image_base);
          Sys.time () -. t0 < 1.0)

let () =
  Alcotest.run "ddt_load"
    [ ("prebuilt",
       [ Alcotest.test_case "matches a fresh compile" `Quick test_drift;
         Alcotest.test_case "thunks decode once" `Quick test_thunks ]);
      ("load",
       [ Alcotest.test_case "corpus matches byte-wise load" `Quick
           test_load_corpus;
         Alcotest.test_case "outlying relocations refused" `Quick
           test_load_outlying_relocs;
         Alcotest.test_case "load_bytes through mmio" `Quick
           test_load_bytes_mmio ]);
      ("decoder",
       [ Alcotest.test_case "oversized counts and bss" `Quick
           test_decoder_repros;
         Alcotest.test_case "offset bounds" `Quick test_decoder_bounds;
         QCheck_alcotest.to_alcotest prop_corrupt_dxe ]) ]
