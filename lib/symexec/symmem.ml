module Expr = Ddt_solver.Expr
module IntMap = Map.Make (Int)

(* A copy-on-write node is a write log: the set of addresses its memory
   wrote while the node was the memory's leaf. [depth] and [frozen_words]
   describe the ancestors, which are frozen once they have a child, so
   both are fixed at creation. *)
type node = {
  parent : node option;
  depth : int;               (* nodes from here to the root, inclusive *)
  frozen_words : int;        (* write-log entries over every ancestor *)
  writes : (int, unit) Hashtbl.t;
}

let page_bits = 6
let page_size = 1 lsl page_bits

(* A page is written in place only by the memory whose leaf is [owner];
   every other memory sharing it copies it first. *)
type page = {
  owner : node;
  slots : Expr.t array;
}

type t = {
  mutable node : node;
  mutable pages : page IntMap.t;
  base : Ddt_dvm.Mem.t;
  symdev : Ddt_hw.Symdev.t option;
  mutable sym_read_hook : string -> Expr.var -> unit;
}

(* The "never written on this path" slot. Constants are masked to their
   width, so no expression the engine stores is a negative [Const]. The
   test is structural: [Marshal] copies the marker, and a copy is not
   physically equal to the original. *)
let unwritten = Expr.Const (Expr.W8, -1)
let is_unwritten = function Expr.Const (_, v) -> v < 0 | _ -> false

(* Base reads are not cached: share one constant per byte value instead
   of allocating one per read. *)
let byte_consts = Array.init 256 Expr.byte

let root_node () =
  { parent = None; depth = 1; frozen_words = 0; writes = Hashtbl.create 64 }

let child_node p =
  {
    parent = Some p;
    depth = p.depth + 1;
    frozen_words = p.frozen_words + Hashtbl.length p.writes;
    writes = Hashtbl.create 16;
  }

let create ~base ~symdev =
  {
    node = root_node ();
    pages = IntMap.empty;
    base;
    symdev;
    sym_read_hook = (fun _ _ -> ());
  }

(* Both sides move to fresh leaves and share the page map, whose pages
   neither leaf owns: the first write to a page on either side copies it. *)
let fork t =
  let old = t.node in
  t.node <- child_node old;
  { t with node = child_node old }

let set_sym_read_hook t f = t.sym_read_hook <- f

let is_mmio t addr =
  match t.symdev with
  | Some d -> Ddt_hw.Symdev.is_device_addr d addr
  | None -> false

(* Store into the slot of [addr] in a page this memory's leaf owns. *)
let set_slot t addr v =
  let idx = addr lsr page_bits in
  let page =
    match IntMap.find_opt idx t.pages with
    | Some p when p.owner == t.node -> p
    | found ->
        let slots =
          match found with
          | Some p -> Array.copy p.slots
          | None -> Array.make page_size unwritten
        in
        let p = { owner = t.node; slots } in
        t.pages <- IntMap.add idx p t.pages;
        p
  in
  page.slots.(addr land (page_size - 1)) <- v

let read_base t addr =
  let v = byte_consts.(Ddt_dvm.Mem.read_u8 t.base addr) in
  (* Concrete-hardware runs map the device into the base image. A
     register read is pinned in the path's memory on first access so
     later reads on that path see the same value. RAM bytes of the base
     never change after set-up and are not copied. *)
  if Ddt_dvm.Mem.find_mmio t.base addr <> None then set_slot t addr v;
  v

let read_u8 t addr =
  let addr = addr land 0xFFFFFFFF in
  if is_mmio t addr then begin
    (* Fully symbolic hardware: every read is a fresh unconstrained value. *)
    let d = Option.get t.symdev in
    let e = Ddt_hw.Symdev.fresh_read d addr in
    (match e with
     | Expr.Var v -> t.sym_read_hook v.Expr.name v
     | _ -> ());
    e
  end
  else
    match IntMap.find_opt (addr lsr page_bits) t.pages with
    | Some p ->
        let v = p.slots.(addr land (page_size - 1)) in
        if is_unwritten v then read_base t addr else v
    | None -> read_base t addr

let write_u8 t addr v =
  let addr = addr land 0xFFFFFFFF in
  if is_mmio t addr then
    (* Symbolic hardware discards register writes. *)
    ()
  else begin
    set_slot t addr v;
    Hashtbl.replace t.node.writes addr ()
  end

let read_u32 t addr =
  let b0 = read_u8 t addr in
  let b1 = read_u8 t (addr + 1) in
  let b2 = read_u8 t (addr + 2) in
  let b3 = read_u8 t (addr + 3) in
  Expr.concat4 b3 b2 b1 b0

let write_u32 t addr v =
  for i = 0 to 3 do
    write_u8 t (addr + i) (Expr.extract v i)
  done

let read_u8_concrete_view t valuation addr = valuation (read_u8 t addr)

(* Addresses either side wrote since their common COW ancestor — the
   only bytes two sibling memories can disagree on, since everything
   below the shared node is frozen at fork time. [None] when the
   memories share no ancestor (different sessions; the caller must not
   merge them). Write logs never contain MMIO addresses, so the diff
   is purely RAM. *)
let cow_diff a b =
  let rec up n k = if k <= 0 then n else up (Option.get n.parent) (k - 1) in
  let da = a.node.depth and db = b.node.depth in
  let na = up a.node (da - db) and nb = up b.node (db - da) in
  let rec ancestor na nb =
    if na == nb then Some na
    else
      match (na.parent, nb.parent) with
      | Some pa, Some pb -> ancestor pa pb
      | _ -> None
  in
  match ancestor na nb with
  | None -> None
  | Some anc ->
      let addrs = Hashtbl.create 32 in
      let collect top =
        let rec go n =
          if not (n == anc) then begin
            Hashtbl.iter (fun addr _ -> Hashtbl.replace addrs addr ()) n.writes;
            match n.parent with Some p -> go p | None -> ()
          end
        in
        go top
      in
      collect a.node;
      collect b.node;
      Some (List.sort compare (Hashtbl.fold (fun k () acc -> k :: acc) addrs []))

let chain_depth t = t.node.depth
let live_words t = t.node.frozen_words + Hashtbl.length t.node.writes

(* --- snapshot projection -------------------------------------------------- *)
(* The marshal-safe part of a memory: the COW node chain and the page
   map — pure data. The shared base image, the symbolic device and the
   read hook are session infrastructure, reattached at restore; dropping
   them here is also what keeps sibling snapshots small (they share every
   node below their fork points and every page neither has written since,
   and Marshal preserves that sharing when siblings travel in one blob,
   including each page's [owner == node] identity). *)

type image = {
  im_node : node;
  im_pages : page IntMap.t;
}

let to_image t = { im_node = t.node; im_pages = t.pages }

let of_image ~base ~symdev im =
  {
    node = im.im_node;
    pages = im.im_pages;
    base;
    symdev;
    sym_read_hook = (fun _ _ -> ());
  }
