let page_size = 4096
let page_bits = 12

type mmio = {
  mmio_start : int;
  mmio_size : int;
  mmio_read : int -> int;
  mmio_write : int -> int -> unit;
}

type t = {
  pages : (int, bytes) Hashtbl.t;
  mutable mmios : mmio list;
}

let create () = { pages = Hashtbl.create 64; mmios = [] }

let add_mmio t m = t.mmios <- m :: t.mmios

let find_mmio t addr =
  List.find_opt
    (fun m -> addr >= m.mmio_start && addr < m.mmio_start + m.mmio_size)
    t.mmios

let page t addr =
  let idx = addr lsr page_bits in
  match Hashtbl.find_opt t.pages idx with
  | Some p -> p
  | None ->
      let p = Bytes.make page_size '\000' in
      Hashtbl.add t.pages idx p;
      p

(* Reads never allocate: an absent page reads as zeros, so a memory
   that is only read (the symbolic engine's shared base image) is never
   mutated by concurrent readers. *)
let read_u8 t addr =
  let addr = addr land 0xFFFFFFFF in
  match find_mmio t addr with
  | Some m -> m.mmio_read (addr - m.mmio_start) land 0xFF
  | None -> (
      match Hashtbl.find_opt t.pages (addr lsr page_bits) with
      | Some p -> Bytes.get_uint8 p (addr land (page_size - 1))
      | None -> 0)

let write_u8 t addr v =
  let addr = addr land 0xFFFFFFFF in
  match find_mmio t addr with
  | Some m -> m.mmio_write (addr - m.mmio_start) (v land 0xFF)
  | None -> Bytes.set_uint8 (page t addr) (addr land (page_size - 1)) (v land 0xFF)

let read_u32 t addr =
  read_u8 t addr
  lor (read_u8 t (addr + 1) lsl 8)
  lor (read_u8 t (addr + 2) lsl 16)
  lor (read_u8 t (addr + 3) lsl 24)

let write_u32 t addr v =
  write_u8 t addr v;
  write_u8 t (addr + 1) (v lsr 8);
  write_u8 t (addr + 2) (v lsr 16);
  write_u8 t (addr + 3) (v lsr 24)

(* One blit per page; a chunk that overlaps an MMIO region goes through
   [write_u8] byte by byte, so the device still sees every write. *)
let load_bytes t addr b =
  let len = Bytes.length b in
  let rec go i =
    if i < len then begin
      let a = (addr + i) land 0xFFFFFFFF in
      let off = a land (page_size - 1) in
      let n = min (len - i) (page_size - off) in
      if
        List.exists
          (fun m -> a < m.mmio_start + m.mmio_size && m.mmio_start < a + n)
          t.mmios
      then
        for j = i to i + n - 1 do
          write_u8 t (addr + j) (Bytes.get_uint8 b j)
        done
      else Bytes.blit b i (page t a) off n;
      go (i + n)
    end
  in
  go 0

let read_bytes t addr len =
  Bytes.init len (fun i -> Char.chr (read_u8 t (addr + i)))

let read_cstring t addr =
  let buf = Buffer.create 32 in
  let rec go i =
    if i < 4096 then
      let c = read_u8 t (addr + i) in
      if c <> 0 then begin
        Buffer.add_char buf (Char.chr c);
        go (i + 1)
      end
  in
  go 0;
  Buffer.contents buf

let write_cstring t addr s =
  String.iteri (fun i c -> write_u8 t (addr + i) (Char.code c)) s;
  write_u8 t (addr + String.length s) 0

let snapshot t =
  let pages = Hashtbl.create (Hashtbl.length t.pages) in
  Hashtbl.iter (fun k v -> Hashtbl.add pages k (Bytes.copy v)) t.pages;
  { pages; mmios = t.mmios }

let iter_pages t f =
  Hashtbl.iter (fun idx p -> f (idx lsl page_bits) p) t.pages
