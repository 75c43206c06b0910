module Pci = Ddt_kernel.Pci
module Expr = Ddt_solver.Expr

type t = {
  dev : Pci.assigned;
  bars : (int * int) array;
  (* (start, size) per BAR; a BAR spans at least one 4 KiB page *)
  lo : int;
  hi : int;
  (* the lowest BAR start and the highest BAR end (exclusive): an address
     outside [lo, hi) is RAM without a scan. Empty when there is no BAR. *)
}

let create dev =
  let bars =
    Array.of_list
      (List.mapi
         (fun i bar ->
           let size =
             match List.nth_opt dev.Pci.desc.Pci.bar_sizes i with
             | Some s -> max s 0x1000
             | None -> 0x1000
           in
           (bar, size))
         dev.Pci.bars)
  in
  let lo = Array.fold_left (fun m (bar, _) -> min m bar) max_int bars in
  let hi = Array.fold_left (fun m (bar, size) -> max m (bar + size)) 0 bars in
  { dev; bars; lo; hi }

let device t = t.dev

let bar_of t addr =
  let rec go i =
    if i >= Array.length t.bars then None
    else
      let bar, size = t.bars.(i) in
      if addr >= bar && addr < bar + size then Some (i, addr - bar)
      else go (i + 1)
  in
  go 0

(* Does some BAR intersect [addr, addr + len)? The [lo, hi) hull test
   answers every RAM access outside the device window with two
   comparisons; inside it the BARs are scanned without allocating. *)
let rec scan bars addr last i =
  i < Array.length bars
  &&
  let bar, size = bars.(i) in
  (last >= bar && addr < bar + size) || scan bars addr last (i + 1)

let overlaps_device t addr len =
  let last = addr + len - 1 in
  last >= t.lo && addr < t.hi && scan t.bars addr last 0

let is_device_addr t addr = overlaps_device t addr 1

let fresh_read t addr =
  let name =
    match bar_of t addr with
    | Some (i, off) -> Printf.sprintf "hw_bar%d+0x%x" i off
    | None -> Printf.sprintf "hw_0x%x" addr
  in
  Expr.var (Expr.fresh_var ~name Expr.W8)

type concrete_mode = Random of int

let concrete_mmio t (Random seed) =
  let st = Random.State.make [| seed |] in
  let next () = Random.State.int st 256 in
  Array.to_list
    (Array.map
       (fun (bar, size) ->
         { Ddt_dvm.Mem.mmio_start = bar; mmio_size = size;
           mmio_read = (fun _off -> next ());
           mmio_write = (fun _off _v -> ()) })
       t.bars)
