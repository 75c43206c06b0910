module Expr = Ddt_solver.Expr
module IntMap = Map.Make (Int)

let page_bits = 6
let page_size = 1 lsl page_bits

(* A copy-on-write node is the write log of the memory whose leaf it
   was: the pages it copied, whose marks are the bytes it wrote, and
   how many marks those are. [depth] and [frozen_words] describe the
   ancestors, which are frozen once they have a child, so both are fixed
   at creation.

   A page is written in place only by the memory whose leaf is [owner];
   every other memory sharing it copies it first, and the copy starts
   with no marks. [lo] and [hi] mark slots 0-31 and 32-63: the bytes
   [owner] wrote while it was the leaf. A node therefore wrote exactly
   the marked slots of its [owned] pages. *)
type node = {
  parent : node option;
  depth : int;               (* nodes from here to the root, inclusive *)
  frozen_words : int;        (* marked bytes over every ancestor *)
  mutable owned : page list; (* pages this node copied, newest first *)
  mutable written : int;     (* marked bytes over [owned] *)
}

and page = {
  owner : node;
  index : int;               (* page number: address lsr page_bits *)
  slots : Expr.t array;
  mutable lo : int;
  mutable hi : int;
}

type t = {
  mutable node : node;
  mutable pages : page IntMap.t;
  base : Ddt_dvm.Mem.t;
  symdev : Ddt_hw.Symdev.t option;
  mutable sym_read_hook : string -> Expr.var -> unit;
}

(* The "never written on this path" slot. Constants are masked to their
   width, so no expression the engine stores is a negative [Const]. *)
let unwritten = Expr.Const (Expr.W8, -1)
let is_unwritten = function Expr.Const (_, v) -> v < 0 | _ -> false

(* Base reads are not cached and constant words are split often: share
   one constant per byte value instead of allocating one per byte. *)
let byte_consts = Array.init 256 Expr.byte

(* Byte [i] of a stored word. *)
let split v i =
  match v with
  | Expr.Const (_, c) -> byte_consts.((c lsr (8 * i)) land 0xFF)
  | _ -> Expr.extract v i

let new_node parent ~depth ~frozen_words =
  { parent; depth; frozen_words; owned = []; written = 0 }

let child_node p =
  new_node (Some p) ~depth:(p.depth + 1)
    ~frozen_words:(p.frozen_words + p.written)

let create ~base ~symdev =
  {
    node = new_node None ~depth:1 ~frozen_words:0;
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

(* The page of number [idx] in a version this memory's leaf owns, copied
   (unmarked) into the map if the leaf does not own it yet. *)
let own t idx =
  match IntMap.find_opt idx t.pages with
  | Some p when p.owner == t.node -> p
  | found ->
      let slots =
        match found with
        | Some p -> Array.copy p.slots
        | None -> Array.make page_size unwritten
      in
      let p = { owner = t.node; index = idx; slots; lo = 0; hi = 0 } in
      t.node.owned <- p :: t.node.owned;
      t.pages <- IntMap.add idx p t.pages;
      p

let rec popcount x = if x = 0 then 0 else 1 + popcount (x land (x - 1))

(* Mark the slots of [bits] (a mask over slots [half * 32 ..]) as
   written by the page's owner, counting only newly marked ones. *)
let mark_half p half bits =
  let old = if half = 0 then p.lo else p.hi in
  let fresh = bits land lnot old in
  if fresh <> 0 then begin
    if half = 0 then p.lo <- old lor fresh else p.hi <- old lor fresh;
    p.owner.written <- p.owner.written + popcount fresh
  end

let mark p off = mark_half p (off lsr 5) (1 lsl (off land 31))

(* Slots [off .. off + 3] of one page. Aligned words never straddle the
   two halves; an unaligned one that does is marked byte by byte. *)
let mark_word p off =
  if off land 31 <= 28 then mark_half p (off lsr 5) (0xF lsl (off land 31))
  else
    for k = 0 to 3 do
      mark p (off + k)
    done

(* Store into the slot of [addr] in a page this memory's leaf owns,
   without marking it: a concrete-hardware register pin is not a write. *)
let set_slot t addr v =
  (own t (addr lsr page_bits)).slots.(addr land (page_size - 1)) <- v

let read_base t addr =
  let v = byte_consts.(Ddt_dvm.Mem.read_u8 t.base addr) in
  (* Concrete-hardware runs map the device into the base image. A
     register read is pinned in the path's memory on first access so
     later reads on that path see the same value. RAM bytes of the base
     never change after set-up and are not copied. *)
  if Ddt_dvm.Mem.find_mmio t.base addr <> None then set_slot t addr v;
  v

(* The slots of a page this path never wrote. Read-only: [own] gives
   every page it creates its own array. *)
let no_slots = Array.make page_size unwritten

let slots_of t addr =
  match IntMap.find_opt (addr lsr page_bits) t.pages with
  | Some p -> p.slots
  | None -> no_slots

(* A RAM byte: the path's slot, or the base image where it has none. *)
let slot_or_base t slots addr off =
  let v = slots.(off) in
  if is_unwritten v then read_base t addr else v

let read_ram t addr =
  slot_or_base t (slots_of t addr) addr (addr land (page_size - 1))

let read_u8 t addr =
  let addr = addr land 0xFFFFFFFF in
  match t.symdev with
  | Some d when Ddt_hw.Symdev.is_device_addr d addr ->
      (* Fully symbolic hardware: every read is a fresh unconstrained value. *)
      let e = Ddt_hw.Symdev.fresh_read d addr in
      (match e with
       | Expr.Var v -> t.sym_read_hook v.Expr.name v
       | _ -> ());
      e
  | _ -> read_ram t addr

let write_u8 t addr v =
  let addr = addr land 0xFFFFFFFF in
  (* Symbolic hardware discards register writes. *)
  if not (is_mmio t addr) then begin
    let off = addr land (page_size - 1) in
    let p = own t (addr lsr page_bits) in
    p.slots.(off) <- v;
    mark p off
  end

(* The word path: the four bytes at [addr] lie in one page (which also
   keeps them below the 0xFFFFFFFF wrap, pages being aligned) and no
   byte is a device register, so one page lookup serves all four. Any
   other word goes byte by byte. *)
let word_path t addr =
  addr land (page_size - 1) <= page_size - 4
  &&
  match t.symdev with
  | Some d -> not (Ddt_hw.Symdev.overlaps_device d addr 4)
  | None -> true

let read_u32 t addr =
  let a = addr land 0xFFFFFFFF in
  if word_path t a then begin
    let s = slots_of t a and off = a land (page_size - 1) in
    let b0 = slot_or_base t s a off in
    let b1 = slot_or_base t s (a + 1) (off + 1) in
    let b2 = slot_or_base t s (a + 2) (off + 2) in
    let b3 = slot_or_base t s (a + 3) (off + 3) in
    Expr.concat4 b3 b2 b1 b0
  end
  else
    let b0 = read_u8 t addr in
    let b1 = read_u8 t (addr + 1) in
    let b2 = read_u8 t (addr + 2) in
    let b3 = read_u8 t (addr + 3) in
    Expr.concat4 b3 b2 b1 b0

let write_u32 t addr v =
  let a = addr land 0xFFFFFFFF in
  if word_path t a then begin
    let off = a land (page_size - 1) in
    let p = own t (a lsr page_bits) in
    let s = p.slots in
    s.(off) <- split v 0;
    s.(off + 1) <- split v 1;
    s.(off + 2) <- split v 2;
    s.(off + 3) <- split v 3;
    mark_word p off
  end
  else
    for i = 0 to 3 do
      write_u8 t (addr + i) (split v i)
    done

(* The addresses of the marked slots of [p], onto [acc]. *)
let marked p acc =
  let base = p.index lsl page_bits in
  let rec go bits off acc =
    if bits = 0 then acc
    else
      go (bits lsr 1) (off + 1)
        (if bits land 1 = 1 then (base + off) :: acc else acc)
  in
  go p.hi 32 (go p.lo 0 acc)

(* Addresses either side wrote since their common COW ancestor — the
   only bytes two sibling memories can disagree on, since everything
   below the shared node is frozen at fork time. [None] when the
   memories share no ancestor (different sessions; the caller must not
   merge them). Marks are never set on MMIO addresses, so the diff is
   purely RAM. *)
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
      let rec collect n acc =
        if n == anc then acc
        else
          let acc = List.fold_left (fun acc p -> marked p acc) acc n.owned in
          match n.parent with Some p -> collect p acc | None -> acc
      in
      Some (List.sort_uniq compare (collect a.node (collect b.node [])))

let chain_depth t = t.node.depth
let live_words t = t.node.frozen_words + t.node.written
