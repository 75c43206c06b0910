(* Unit tests for ddt_symexec: copy-on-write memory, fork depth, forking
   on symbolic branches, symbolic hardware, concretization, interrupt
   injection. *)

module Expr = Ddt_solver.Expr
module Mem = Ddt_dvm.Mem
module Layout = Ddt_dvm.Layout
module Image = Ddt_dvm.Image
module Kstate = Ddt_kernel.Kstate
module Pci = Ddt_kernel.Pci
module Symdev = Ddt_hw.Symdev
open Ddt_symexec

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let device () =
  Pci.assign_resources
    { Pci.vendor_id = 1; device_id = 2; revision = 0; bar_sizes = [ 0x1000 ];
      irq_line = 9 }
    ~mmio_base:Layout.mmio_base

(* --- Symmem -------------------------------------------------------------- *)

let qtest t = QCheck_alcotest.to_alcotest t

let test_cow_fork_isolation () =
  let base = Mem.create () in
  Mem.write_u32 base 0x1000 0xCAFE;
  let m1 = Symmem.create ~base ~symdev:None in
  check_int "reads through to base" 0xCAFE
    (match Symmem.read_u32 m1 0x1000 with
     | Expr.Const (_, v) -> v
     | _ -> -1);
  Symmem.write_u32 m1 0x1000 (Expr.word 1);
  let m2 = Symmem.fork m1 in
  Symmem.write_u32 m2 0x1000 (Expr.word 2);
  Symmem.write_u32 m1 0x2000 (Expr.word 3);
  check_bool "parent keeps its value" true
    (Symmem.read_u32 m1 0x1000 = Expr.word 1);
  check_bool "child sees its own write" true
    (Symmem.read_u32 m2 0x1000 = Expr.word 2);
  check_bool "child misses parent's post-fork write" true
    (match Symmem.read_u32 m2 0x2000 with Expr.Const (_, 0) -> true | _ -> false);
  check_bool "chain grew" true (Symmem.chain_depth m2 >= 2)

let test_cow_word_byte_roundtrip () =
  let base = Mem.create () in
  let m = Symmem.create ~base ~symdev:None in
  Symmem.write_u32 m 0x1000 (Expr.word 0x11223344);
  check_int "byte 0" 0x44
    (match Symmem.read_u8 m 0x1000 with Expr.Const (_, v) -> v | _ -> -1);
  check_int "byte 3" 0x11
    (match Symmem.read_u8 m 0x1003 with Expr.Const (_, v) -> v | _ -> -1);
  (* A symbolic word decomposes into extracts and recomposes to itself. *)
  let v = Expr.var (Expr.fresh_var Expr.W32) in
  Symmem.write_u32 m 0x2000 v;
  check_bool "symbolic roundtrip" true (Expr.equal (Symmem.read_u32 m 0x2000) v)

let test_symbolic_device_reads () =
  let base = Mem.create () in
  let sd = Symdev.create (device ()) in
  let m = Symmem.create ~base ~symdev:(Some sd) in
  let r1 = Symmem.read_u8 m Layout.mmio_base in
  let r2 = Symmem.read_u8 m Layout.mmio_base in
  check_bool "fresh symbolic per read" true
    (match r1, r2 with
     | Expr.Var a, Expr.Var b -> a.Expr.id <> b.Expr.id
     | _ -> false);
  (* Writes to the device are discarded. *)
  Symmem.write_u8 m Layout.mmio_base (Expr.byte 0x55);
  (match Symmem.read_u8 m Layout.mmio_base with
   | Expr.Var _ -> ()
   | _ -> Alcotest.fail "device write must be discarded")

(* Concrete-hardware runs map a pseudo-random device into the base image:
   a path reads each register once and then keeps that value, and a fork
   inherits it. *)
let test_concrete_device_reads_stable () =
  let base = Mem.create () in
  let sd = Symdev.create (device ()) in
  List.iter (Mem.add_mmio base) (Symdev.concrete_mmio sd (Symdev.Random 7));
  let m = Symmem.create ~base ~symdev:None in
  let r1 = Symmem.read_u32 m Layout.mmio_base in
  check_bool "stable on the path" true
    (Expr.equal r1 (Symmem.read_u32 m Layout.mmio_base));
  let child = Symmem.fork m in
  check_bool "inherited by a fork" true
    (Expr.equal r1 (Symmem.read_u32 child Layout.mmio_base));
  check_int "reads are not writes" 0 (Symmem.live_words m)

(* Differential property: a random interleaving of byte/word writes,
   reads and forks on Symmem agrees with a reference model (a plain map
   per fork lineage). *)
let prop_cow_matches_reference =
  let gen_ops =
    QCheck.Gen.(
      list_size (int_range 1 60)
        (oneof
           [ map2 (fun a v -> `W8 (0x1000 + a, v)) (int_bound 63) (int_bound 255);
             map2
               (fun a v -> `W32 (0x1000 + (4 * a), v land 0xFFFFFFFF))
               (int_bound 15) int;
             map (fun a -> `R8 (0x1000 + a)) (int_bound 63);
             map (fun a -> `R32 (0x1000 + (4 * a))) (int_bound 15);
             return `Fork ]))
  in
  QCheck.Test.make ~count:100 ~name:"cow memory matches reference model"
    (QCheck.make gen_ops)
    (fun ops ->
      let base = Mem.create () in
      (* Active lineage: (symmem, reference byte map). Fork clones both;
         we keep operating on the newest child and occasionally return to
         the parent, which must be unaffected. *)
      let ref_model = Hashtbl.create 64 in
      let read_ref a = try Hashtbl.find ref_model a with Not_found -> 0 in
      let m = ref (Symmem.create ~base ~symdev:None) in
      let parents = ref [] in
      let ok = ref true in
      List.iter
        (fun op ->
          match op with
          | `W8 (a, v) ->
              Symmem.write_u8 !m a (Expr.byte v);
              Hashtbl.replace ref_model a v
          | `W32 (a, v) ->
              Symmem.write_u32 !m a (Expr.word v);
              for i = 0 to 3 do
                Hashtbl.replace ref_model (a + i) ((v lsr (8 * i)) land 0xFF)
              done
          | `R8 a -> (
              match Symmem.read_u8 !m a with
              | Expr.Const (_, v) -> if v <> read_ref a then ok := false
              | _ -> ok := false)
          | `R32 a -> (
              match Symmem.read_u32 !m a with
              | Expr.Const (_, v) ->
                  let expected =
                    read_ref a
                    lor (read_ref (a + 1) lsl 8)
                    lor (read_ref (a + 2) lsl 16)
                    lor (read_ref (a + 3) lsl 24)
                  in
                  if v <> expected then ok := false
              | _ -> ok := false)
          | `Fork ->
              (* Snapshot the reference; continue on the child. *)
              parents := (!m, Hashtbl.copy ref_model) :: !parents;
              m := Symmem.fork !m)
        ops;
      (* Parents must still agree with their snapshots. *)
      List.iter
        (fun (pm, pref) ->
          for a = 0x1000 to 0x1040 do
            match Symmem.read_u8 pm a with
            | Expr.Const (_, v) ->
                let e = try Hashtbl.find pref a with Not_found -> 0 in
                if v <> e then ok := false
            | _ -> ok := false
          done)
        !parents;
      !ok)

(* Reference model for a pool of live sibling memories. Every memory has
   a plain table of the bytes its path wrote (copied on fork) and a model
   copy-on-write chain whose nodes log the addresses written while they
   were the leaf. Forks, snapshot round-trips and device accesses go to
   any memory of the pool, and every memory keeps writing afterwards. *)
type model_node = {
  nid : int;
  nparent : model_node option;
  nwrites : (int, unit) Hashtbl.t;
}

type model_mem = {
  mem : Symmem.t;
  bytes : (int, Expr.t) Hashtbl.t;
  mutable leaf : model_node;
}

type mem_op =
  | M_fork of int
  | M_w8 of int * int * int
  | M_w32 of int * int * int
  | M_wsym of int * int
  | M_over of int * int * int
  | M_r8 of int * int
  | M_r32 of int * int
  | M_mmio_r of int * int
  | M_mmio_w of int * int
  | M_diff of int * int

let pp_mem_op = function
  | M_fork i -> Printf.sprintf "fork %d" i
  | M_w8 (i, a, v) -> Printf.sprintf "w8 %d 0x%x 0x%x" i a v
  | M_w32 (i, a, v) -> Printf.sprintf "w32 %d 0x%x 0x%x" i a v
  | M_wsym (i, a) -> Printf.sprintf "wsym %d 0x%x" i a
  | M_over (i, a, v) -> Printf.sprintf "over %d 0x%x 0x%x" i a v
  | M_r8 (i, a) -> Printf.sprintf "r8 %d 0x%x" i a
  | M_r32 (i, a) -> Printf.sprintf "r32 %d 0x%x" i a
  | M_mmio_r (i, o) -> Printf.sprintf "mmio_r %d +0x%x" i o
  | M_mmio_w (i, o) -> Printf.sprintf "mmio_w %d +0x%x" i o
  | M_diff (i, j) -> Printf.sprintf "diff %d %d" i j

(* The pool's device: two BARs with a RAM gap between them, so words can
   overlap either edge of either BAR. *)
let pool_bars = [ (Layout.mmio_base, 0x1000); (Layout.mmio_base + 0x3000, 0x2000) ]

let pool_device () =
  { Pci.desc =
      { Pci.vendor_id = 1; device_id = 2; revision = 0;
        bar_sizes = List.map snd pool_bars; irq_line = 9 };
    bars = List.map fst pool_bars;
    irq = 9 }

let pool_bar_edges =
  List.concat_map (fun (b, size) -> [ b; b + size ]) pool_bars

let prop_cow_pool_matches_model =
  let open QCheck.Gen in
  (* Windows: two pages either side of 0x1000 (u32 accesses straddle
     page boundaries), the top of the address space (u32 accesses wrap
     to 0), the bottom bytes the wrap lands on, and 16 bytes around each
     BAR edge. *)
  let windows =
    [ (0xF80, 0x107F); (0xFFFFFFF0, 0xFFFFFFFF); (0, 7) ]
    @ List.map (fun e -> (e - 8, e + 7)) pool_bar_edges
  in
  let addr =
    frequency
      [ (6, map (fun o -> 0xF80 + o) (int_bound 0xFF));
        (2, map (fun o -> 0xFFFFFFF0 + o) (int_bound 15));
        (1, int_bound 7);
        (2, map2 (fun e o -> e - 8 + o) (oneofl pool_bar_edges) (int_bound 15)) ]
  in
  (* Word addresses: anywhere in the windows, 4-aligned (the in-page
     word path), the last three bytes of a page (page-straddling), the
     wrap past 0xFFFFFFFF, and overlapping a BAR edge by one to three
     bytes. *)
  let word_addr =
    frequency
      [ (3, addr);
        (3, map (fun a -> a land lnot 3) addr);
        (2, map2 (fun p o -> 0xF80 + (0x40 * p) + 0x3D + o) (int_bound 2) (int_bound 2));
        (1, map (fun o -> 0xFFFFFFFD + o) (int_bound 2));
        (2, map2 (fun e o -> e - 3 + o) (oneofl pool_bar_edges) (int_bound 2)) ]
  in
  let mem_i = int_bound 15 in
  let op =
    frequency
      [ (2, map (fun i -> M_fork i) mem_i);
        (4, map3 (fun i a v -> M_w8 (i, a, v)) mem_i addr (int_bound 0xFF));
        (5, map3 (fun i a v -> M_w32 (i, a, v)) mem_i word_addr
              (int_bound 0x3FFFFFFF));
        (1, map2 (fun i a -> M_wsym (i, a)) mem_i word_addr);
        (2, map3 (fun i a v -> M_over (i, a, v)) mem_i word_addr
              (int_bound 0x3FFFFFFF));
        (4, map2 (fun i a -> M_r8 (i, a)) mem_i addr);
        (4, map2 (fun i a -> M_r32 (i, a)) mem_i word_addr);
        (1, map2 (fun i o -> M_mmio_r (i, o)) mem_i (int_bound 0xFFF));
        (1, map2 (fun i o -> M_mmio_w (i, o)) mem_i (int_bound 0xFFF));
        (2, map2 (fun i j -> M_diff (i, j)) mem_i mem_i) ]
  in
  QCheck.Test.make ~count:300 ~name:"cow memory pool matches per-node model"
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map pp_mem_op ops))
       (list_size (int_range 1 80) op))
    (fun ops ->
      let base = Mem.create () in
      List.iter
        (fun (lo, hi) ->
          for a = lo to hi do
            Mem.write_u8 base a ((a * 7) + 3)
          done)
        windows;
      let sd = Symdev.create (pool_device ()) in
      let is_dev a =
        List.exists (fun (b, size) -> a >= b && a < b + size) pool_bars
      in
      let next_nid = ref 0 in
      let node parent =
        incr next_nid;
        { nid = !next_nid; nparent = parent; nwrites = Hashtbl.create 8 }
      in
      let pool =
        ref
          [| { mem = Symmem.create ~base ~symdev:(Some sd);
               bytes = Hashtbl.create 64; leaf = node None } |]
      in
      let get i = !pool.(i mod Array.length !pool) in
      let add m = pool := Array.append !pool [| m |] in
      let failures = ref [] in
      let expect what ok = if not ok then failures := what :: !failures in
      let model_read m a =
        match Hashtbl.find_opt m.bytes a with
        | Some v -> v
        | None -> Expr.byte (Mem.read_u8 base a)
      in
      (* A device byte reads as a fresh variable; any other byte as the
         model says. *)
      let byte_ok m a v =
        if is_dev a then (match v with Expr.Var _ -> true | _ -> false)
        else Expr.equal v (model_read m a)
      in
      (* Device writes are discarded: neither the bytes nor the log change. *)
      let model_write m a v =
        let a = a land 0xFFFFFFFF in
        if not (is_dev a) then begin
          Hashtbl.replace m.bytes a v;
          Hashtbl.replace m.leaf.nwrites a ()
        end
      in
      let write8 m a v =
        Symmem.write_u8 m.mem a v;
        model_write m a v
      in
      let write32 m a v =
        Symmem.write_u32 m.mem a v;
        for k = 0 to 3 do
          model_write m (a + k) (Expr.extract v k)
        done
      in
      let rec chain n = n :: (match n.nparent with Some p -> chain p | None -> []) in
      let model_diff a b =
        let ca = chain a.leaf and cb = chain b.leaf in
        match List.find_opt (fun n -> List.exists (fun m -> m.nid = n.nid) cb) ca with
        | None -> None
        | Some anc ->
            let acc = Hashtbl.create 16 in
            let above c =
              let rec go = function
                | n :: rest when n.nid <> anc.nid ->
                    Hashtbl.iter (fun k () -> Hashtbl.replace acc k ()) n.nwrites;
                    go rest
                | _ -> ()
              in
              go c
            in
            above ca;
            above cb;
            Some (List.sort compare (Hashtbl.fold (fun k () l -> k :: l) acc []))
      in
      List.iter
        (fun op ->
          (match op with
          | M_fork i ->
              let m = get i in
              let old = m.leaf in
              let child = Symmem.fork m.mem in
              m.leaf <- node (Some old);
              add { mem = child; bytes = Hashtbl.copy m.bytes; leaf = node (Some old) }
          | M_w8 (i, a, v) -> write8 (get i) a (Expr.byte v)
          | M_w32 (i, a, v) -> write32 (get i) a (Expr.word v)
          | M_wsym (i, a) ->
              write32 (get i) a (Expr.var (Expr.fresh_var ~name:"w" Expr.W32))
          | M_over (i, a, v) ->
              (* the same bytes three times over: each counts once *)
              let m = get i in
              write32 m a (Expr.word v);
              write8 m (a + (v land 3)) (Expr.byte (v lsr 2));
              write32 m a (Expr.word (v lsr 1))
          | M_r8 (i, a) ->
              let m = get i in
              expect (Printf.sprintf "r8 0x%x" a)
                (byte_ok m (a land 0xFFFFFFFF) (Symmem.read_u8 m.mem a))
          | M_r32 (i, a) ->
              let m = get i in
              let at k = (a + k) land 0xFFFFFFFF in
              expect (Printf.sprintf "r32 0x%x" a)
                (if List.exists (fun k -> is_dev (at k)) [ 0; 1; 2; 3 ] then
                   match Symmem.read_u32 m.mem a with
                   | Expr.Concat4 (b3, b2, b1, b0) ->
                       byte_ok m (at 0) b0 && byte_ok m (at 1) b1
                       && byte_ok m (at 2) b2 && byte_ok m (at 3) b3
                   | _ -> false
                 else
                   let b k = model_read m (at k) in
                   Expr.equal (Symmem.read_u32 m.mem a)
                     (Expr.concat4 (b 3) (b 2) (b 1) (b 0)))
          | M_mmio_r (i, o) ->
              expect "mmio read is a fresh variable"
                (match Symmem.read_u8 (get i).mem (Layout.mmio_base + o) with
                 | Expr.Var _ -> true
                 | _ -> false)
          | M_mmio_w (i, o) -> write8 (get i) (Layout.mmio_base + o) (Expr.byte 0x5A)
          | M_diff (i, j) ->
              expect "cow_diff"
                (Symmem.cow_diff (get i).mem (get j).mem = model_diff (get i) (get j)));
          Array.iter
            (fun m ->
              let c = chain m.leaf in
              expect "chain_depth" (Symmem.chain_depth m.mem = List.length c);
              expect "live_words"
                (Symmem.live_words m.mem
                 = List.fold_left (fun n x -> n + Hashtbl.length x.nwrites) 0 c))
            !pool)
        ops;
      (* Every memory, every byte of every window, every pair's diff. *)
      Array.iter
        (fun m ->
          List.iter
            (fun (lo, hi) ->
              for a = lo to hi do
                expect (Printf.sprintf "final r8 0x%x" a)
                  (byte_ok m a (Symmem.read_u8 m.mem a))
              done)
            windows)
        !pool;
      Array.iter
        (fun a ->
          Array.iter
            (fun b ->
              expect "final cow_diff"
                (Symmem.cow_diff a.mem b.mem = model_diff a b))
            !pool)
        !pool;
      match !failures with
      | [] -> true
      | fs -> QCheck.Test.fail_reportf "%s" (String.concat ", " (List.rev fs)))

(* --- Symstate -------------------------------------------------------------- *)

(* A fork child is one level deeper than its parent, and the parent,
   which runs on as the other branch, keeps its depth. *)
let test_fork_depth () =
  let mem = Symmem.create ~base:(Mem.create ()) ~symdev:None in
  let ks = Kstate.create ~device:(device ()) () in
  let root = Symstate.create ~id:1 ~mem ~ks in
  let child = Symstate.fork root ~id:2 in
  let grandchild = Symstate.fork child ~id:3 in
  let sibling = Symstate.fork root ~id:4 in
  check_int "root" 1 root.Symstate.depth;
  check_int "chain of two" 3 grandchild.Symstate.depth;
  check_int "forking parent keeps its depth" 2 child.Symstate.depth;
  check_int "root's second child" 2 sibling.Symstate.depth

(* --- Symdev ---------------------------------------------------------------- *)

(* The BAR hull test and the word-range test agree with a scan of every
   BAR, on random layouts: gaps between BARs, sizes rounded up to 0x1000,
   BARs without a [bar_sizes] entry (one page) and BARs at the top of the
   32-bit space. Probes sit on and around every BAR edge. *)
let prop_symdev_range_matches_scan =
  let open QCheck.Gen in
  let start =
    frequency
      [ (2, map (fun p -> p * 0x1000) (int_bound 0xFFFFF));
        (3, map (fun o -> 0xD000_0000 + o) (int_bound 0x8000));
        (2, map (fun o -> 0xFFFF_FFFF - o) (int_bound 0x3000)) ]
  in
  let layout =
    pair (list_size (int_range 0 4) start)
      (list_size (int_range 0 4) (int_bound 0x3000))
  in
  let print (bars, sizes) =
    let hex l = String.concat ";" (List.map (Printf.sprintf "0x%x") l) in
    Printf.sprintf "bars [%s] sizes [%s]" (hex bars) (hex sizes)
  in
  QCheck.Test.make ~count:300 ~name:"device range test matches a BAR scan"
    (QCheck.make ~print layout)
    (fun (bars, sizes) ->
      let sd =
        Symdev.create
          { Pci.desc =
              { Pci.vendor_id = 1; device_id = 2; revision = 0;
                bar_sizes = sizes; irq_line = 9 };
            bars;
            irq = 9 }
      in
      let spans =
        List.mapi
          (fun i b ->
            (b, match List.nth_opt sizes i with Some s -> max s 0x1000 | None -> 0x1000))
          bars
      in
      let dev a = List.exists (fun (b, size) -> a >= b && a < b + size) spans in
      let probes =
        List.concat_map
          (fun (b, size) ->
            List.concat_map (fun e -> List.init 9 (fun k -> e - 4 + k)) [ b; b + size ])
          spans
        @ [ 0; 0x1000; 0xCFFF_FFFF; 0xFFFF_FFFC; 0xFFFF_FFFF ]
      in
      List.for_all
        (fun a ->
          Symdev.is_device_addr sd a = dev a
          && Symdev.overlaps_device sd a 4
             = List.exists (fun k -> dev (a + k)) [ 0; 1; 2; 3 ])
        probes)

(* --- the executor on small driver programs -------------------------------- *)

(* With [concrete], a seeded concrete device is mapped into base memory,
   as the stress baseline does. *)
let engine_for ?(concrete = false) img =
  let base = Mem.create () in
  let loaded = Image.load img base ~base:Layout.image_base in
  let dev = device () in
  let symdev = Symdev.create dev in
  if concrete then
    List.iter (Mem.add_mmio base)
      (Symdev.concrete_mmio symdev (Symdev.Random 7));
  let leaders = (Ddt_staticx.Icfg.build img).Ddt_staticx.Icfg.universe in
  let eng = Exec.create ~leaders loaded base symdev in
  let ks = Kstate.create ~device:dev () in
  (eng, loaded, ks)

let build_engine ?concrete src =
  engine_for ?concrete (Ddt_minicc.Codegen.compile ~name:"unit" src)

let run_to_completion eng st ~name ~addr ~args =
  Exec.start_invocation eng st ~name ~addr ~args;
  Exec.run eng ~max_total_steps:20_000_000;
  Exec.finished eng

let test_fork_on_symbolic_branch () =
  (* The driver branches on a device register: both sides must be
     explored and produce different return values. *)
  let src = {|
    const MMIO = 0xD0000000;
    int driver_entry(void) {
      int status = *(MMIO + 0);
      if (status & 1) { return 100; }
      return 200;
    }
  |} in
  let eng, loaded, ks = build_engine src in
  let st = Exec.new_root_state eng ks in
  let finished =
    run_to_completion eng st ~name:"load"
      ~addr:(loaded.Image.base + loaded.Image.image.Image.entry)
      ~args:[]
  in
  let rets =
    List.filter_map
      (fun s ->
        match s.Symstate.status with
        | Some (Symstate.Returned r) -> Some r
        | _ -> None)
      finished
    |> List.sort compare
  in
  check_bool "both paths explored" true (rets = [ 100; 200 ])

let test_symbolic_args_fork () =
  let src = {|
    int driver_entry(int x) {
      if (x == 1234) { return 1; }
      if (x < 10) { return 2; }
      return 3;
    }
  |} in
  let eng, loaded, ks = build_engine src in
  let st = Exec.new_root_state eng ks in
  let x = Exec.fresh_symbolic eng st ~name:"x" ~origin:"test" Expr.W32 in
  let finished =
    run_to_completion eng st ~name:"load"
      ~addr:(loaded.Image.base + loaded.Image.image.Image.entry)
      ~args:[ x ]
  in
  let rets =
    List.filter_map
      (fun s ->
        match s.Symstate.status with
        | Some (Symstate.Returned r) -> Some r
        | _ -> None)
      finished
    |> List.sort_uniq compare
  in
  check_bool "three-way dispatch covered" true (rets = [ 1; 2; 3 ])

let test_div_by_zero_forks_crash () =
  let src = {|
    const MMIO = 0xD0000000;
    int driver_entry(void) {
      int d = *(MMIO + 0);
      return 1000 / (d & 0xFF);
    }
  |} in
  let eng, loaded, ks = build_engine src in
  let st = Exec.new_root_state eng ks in
  let finished =
    run_to_completion eng st ~name:"load"
      ~addr:(loaded.Image.base + loaded.Image.image.Image.entry)
      ~args:[]
  in
  let crashed =
    List.exists
      (fun s ->
        match s.Symstate.status with
        | Some (Symstate.Crashed c) -> c.Symstate.c_msg = "division by zero"
        | _ -> false)
      finished
  in
  let returned =
    List.exists
      (fun s ->
        match s.Symstate.status with
        | Some (Symstate.Returned _) -> true
        | _ -> false)
      finished
  in
  check_bool "zero divisor path crashes" true crashed;
  check_bool "nonzero divisor path survives" true returned

let test_path_constraints_consistent () =
  (* Contradictory conditions must leave only feasible paths. *)
  let src = {|
    int driver_entry(int x) {
      if (x > 100) {
        if (x < 50) { return 666; }   // infeasible
        return 1;
      }
      return 2;
    }
  |} in
  let eng, loaded, ks = build_engine src in
  let st = Exec.new_root_state eng ks in
  let x = Exec.fresh_symbolic eng st ~name:"x" ~origin:"test" Expr.W32 in
  let finished =
    run_to_completion eng st ~name:"load"
      ~addr:(loaded.Image.base + loaded.Image.image.Image.entry)
      ~args:[ x ]
  in
  let rets =
    List.filter_map
      (fun s ->
        match s.Symstate.status with
        | Some (Symstate.Returned r) -> Some r
        | _ -> None)
      finished
    |> List.sort_uniq compare
  in
  check_bool "dead path never returns" true (not (List.mem 666 rets));
  check_bool "live paths returned" true (rets = [ 1; 2 ])

let test_concretization_constraint_recorded () =
  let eng, _, ks = build_engine "int driver_entry(void) { return 0; }" in
  let st = Exec.new_root_state eng ks in
  let x = Exec.fresh_symbolic eng st ~name:"x" ~origin:"test" Expr.W32 in
  let v = Exec.concretize st x "test" in
  (* The concretization must be recorded as a path constraint, so a
     second concretization yields the same value. *)
  check_int "stable concretization" v (Exec.concretize st x "test")

(* An ISR that crashes on a flag the entry point sets after its kcall:
   only an interrupt injected at the kcall boundary sees the crash. *)
let injection_src = {|
    int g_ready;
    int g_chars[8];
    int isr(int ctx) {
      if (g_ready == 0) {
        int p = 0;
        *(p + 0) = 1;      // crash when fired in the window
      }
      return 1;
    }
    int touch(void) {
      NdisStallExecution(1);
      return 0;
    }
    int initialize(void) {
      g_ready = 0;
      touch();             // kcall boundary: injection site
      g_ready = 1;
      return 0;
    }
    int driver_entry(void) {
      g_chars[0] = initialize;
      g_chars[4] = isr;
      NdisMRegisterMiniport(g_chars);
      NdisMRegisterInterrupt(9);
      return 0;
    }
  |}

(* Run [injection_src]'s entry point, then its initialize on a returned
   state; the finished states of initialize. *)
let run_injection_src ~concrete =
  let eng, loaded, ks = build_engine ~concrete injection_src in
  let st = Exec.new_root_state eng ks in
  ignore
    (run_to_completion eng st ~name:"load"
       ~addr:(loaded.Image.base + loaded.Image.image.Image.entry)
       ~args:[]);
  let _ = Exec.drain_finished eng in
  (* Now run initialize with injection enabled. *)
  let base =
    match
      List.find_opt
        (fun s -> s.Symstate.status = Some (Symstate.Returned 0))
        (Exec.finished eng)
    with
    | Some s -> s
    | None -> st
  in
  let child = Exec.fork_of eng base in
  Exec.start_invocation eng child ~name:"initialize"
    ~addr:(Image.export_addr loaded "initialize")
    ~args:[];
  Exec.run eng ~max_total_steps:20_000_000;
  Exec.finished eng

let test_interrupt_injection_forks () =
  let finished = run_injection_src ~concrete:false in
  let crashed_in_isr =
    List.exists
      (fun s ->
        match s.Symstate.status with
        | Some (Symstate.Crashed _) -> s.Symstate.injections > 0
        | _ -> false)
      finished
  in
  let clean_path =
    List.exists
      (fun s -> s.Symstate.status = Some (Symstate.Returned 0))
      finished
  in
  check_bool "injected interrupt hits the window" true crashed_in_isr;
  check_bool "uninjected path completes" true clean_path;
  (* Symbolic interrupts belong to symbolic hardware: with a concrete
     device mapped (the stress baseline) no site gets an interrupt, so
     the window is never hit. *)
  let finished = run_injection_src ~concrete:true in
  check_bool "some state finished" true (finished <> []);
  List.iter
    (fun s ->
      check_bool "no injected site" true (s.Symstate.injected_sites = []);
      check_bool "returns cleanly" true
        (s.Symstate.status = Some (Symstate.Returned 0)))
    finished

let test_coverage_accounting () =
  let src = {|
    int driver_entry(int x) {
      if (x == 7) { return 1; }
      return 0;
    }
  |} in
  let eng, loaded, ks = build_engine src in
  let st = Exec.new_root_state eng ks in
  let x = Exec.fresh_symbolic eng st ~name:"x" ~origin:"t" Expr.W32 in
  ignore
    (run_to_completion eng st ~name:"load"
       ~addr:(loaded.Image.base + loaded.Image.image.Image.entry)
       ~args:[ x ]);
  check_bool "blocks covered" true (Exec.block_coverage eng >= 3);
  let stats = Exec.stats eng in
  check_bool "states created" true (stats.Exec.st_states_created >= 2)

(* Indirect calls to pcs that have no leader slot — a data address, a
   misaligned text address and [text_end] — must read as "not a block
   start" rather than index past the leader table, and must leave the
   states' fates and the coverage count as they were. *)
let test_wild_indirect_targets () =
  let img =
    Ddt_dvm.Asm.assemble ~name:"wild" {|
.func driver_entry
driver_entry:
    ldw   r1, [sp+4]
    callr r1
    movi  r0, 7
    ret
.data
junk: .word 0xFFFFFFFF, 0xFFFFFFFF, 0xFFFFFFFF, 0xFFFFFFFF
|}
  in
  let eng, loaded, ks = engine_for img in
  let targets =
    [ ("data", loaded.Image.data_start + 8);
      ("misaligned", loaded.Image.text_start + 4);
      ("text_end", loaded.Image.text_end) ]
  in
  let entry = loaded.Image.base + img.Image.entry in
  List.iter
    (fun (name, t) ->
      Exec.start_invocation eng (Exec.new_root_state eng ks) ~name ~addr:entry
        ~args:[ Expr.word t ])
    targets;
  Exec.run eng ~max_total_steps:20_000_000;
  check_bool "no engine incident" true (Exec.incidents eng = []);
  (* Each wild target decodes as garbage; the misaligned one runs one
     shifted instruction first. *)
  let fate name =
    match
      List.find_opt
        (fun s -> s.Symstate.entry_name = name)
        (Exec.finished eng)
    with
    | Some { Symstate.status = Some (Symstate.Crashed c); _ } -> c.Symstate.c_pc
    | _ -> Alcotest.failf "%s: expected a crashed state" name
  in
  check_int "data target crashes there" (loaded.Image.data_start + 8)
    (fate "data");
  check_int "misaligned target runs one shifted instruction"
    (loaded.Image.text_start + 20) (fate "misaligned");
  check_int "text_end target crashes there" loaded.Image.text_end
    (fate "text_end");
  check_bool "only the entry block covered" true
    (Exec.covered_blocks eng = [ entry ]);
  check_int "coverage counts one block" 1 (Exec.block_coverage eng)

(* Loads and stores at constant addresses in two data pages, a push and
   a pop, then a device-register read that forks: each path counts the
   four access opcodes alone, and keeps the two data pages but neither
   the device page nor the page only the push wrote. *)
let test_memory_access_accounting () =
  let img =
    Ddt_dvm.Asm.assemble ~name:"mem" {|
.func driver_entry
driver_entry:
    lea   r4, first
    lea   r5, second
    movi  r1, 0x1234
    stw   [r4+0], r1
    ldw   r2, [r4+0]
    stb   [r5+8], r1
    ldb   r3, [r5+8]
    push  r2
    mov   r6, sp
    pop   r2
    movi  r7, 0xD0000000
    ldw   r8, [r7+0]
    jz    r8, zero
    movi  r0, 1
    ret
zero:
    movi  r0, 2
    ret
.data
first:  .space 4096
second: .space 16
|}
  in
  let eng, loaded, ks = engine_for img in
  let finished =
    run_to_completion eng (Exec.new_root_state eng ks) ~name:"mem"
      ~addr:(loaded.Image.base + img.Image.entry) ~args:[]
  in
  check_int "the device read forked" 2 (List.length finished);
  let reg st r =
    match Symstate.reg_get st r with
    | Expr.Const (_, v) -> v
    | _ -> Alcotest.fail "register not concrete"
  in
  let page a = a land lnot 0xFFF in
  List.iter
    (fun st ->
      let pages = st.Symstate.touched_pages in
      check_int "ldw, stw, ldb, stb and the device ldw" 5
        st.Symstate.mem_accesses;
      check_bool "both data pages" true
        (Symstate.Pages.elements pages
         = List.sort_uniq compare [ page (reg st 4); page (reg st 5) ]);
      check_bool "two pages" true (Symstate.Pages.cardinal pages = 2);
      check_bool "no device page" false
        (Symstate.Pages.mem (page Layout.mmio_base) pages);
      check_bool "no push-only stack page" false
        (Symstate.Pages.mem (page (reg st 6)) pages))
    finished

(* --- the state fault boundary ---------------------------------------------- *)

(* A three-way dispatch on a symbolic argument: three paths, each
   returning its own value. *)
let fault_src = {|
  int driver_entry(int x) {
    if (x == 1234) { return 1; }
    if (x < 10) { return 2; }
    return 3;
  }
|}

(* Run [fault_src] after [arm] installs a raising hook, and
   check the boundary's contract: the session completes, and the one
   faulting state yields exactly one [State_fault] incident whose replay
   script names its entry. Returns that incident and the states that
   returned. *)
let run_with_faulty_hook arm =
  let eng, loaded, ks = build_engine fault_src in
  let st = Exec.new_root_state eng ks in
  let x = Exec.fresh_symbolic eng st ~name:"x" ~origin:"test" Expr.W32 in
  arm eng;
  let finished =
    run_to_completion eng st ~name:"load"
      ~addr:(loaded.Image.base + loaded.Image.image.Image.entry)
      ~args:[ x ]
  in
  let fault =
    match Exec.incidents eng with
    | [ i ] -> i
    | l -> Alcotest.failf "%d incidents, want one" (List.length l)
  in
  check_bool "a state fault" true (fault.Guard.inc_kind = Guard.State_fault);
  Alcotest.(check string) "replay names the entry" "load"
    fault.Guard.inc_replay.Ddt_trace.Replay.rs_entry;
  let returned =
    List.filter
      (fun s ->
        match s.Symstate.status with
        | Some (Symstate.Returned _) -> true
        | _ -> false)
      finished
  in
  (fault, returned)

(* The third newly covered block raises: the state that covered it is
   quarantined; a block is new only once, so no other state faults. *)
let test_new_block_fault () =
  let calls = ref 0 in
  let fault, returned =
    run_with_faulty_hook (fun eng ->
        Exec.set_on_new_block eng (fun _ _ ->
            incr calls;
            if !calls = 3 then failwith "block hook"))
  in
  Alcotest.(check string) "message names the exception"
    (Printexc.to_string (Failure "block hook")) fault.Guard.inc_message;
  check_bool "other states still return" true (returned <> [])

(* The first finished state's hook raises: that state stays finished,
   the hook's fault is one incident, and the others finish normally. *)
let test_state_done_fault () =
  let first = ref true in
  let fault, returned =
    run_with_faulty_hook (fun eng ->
        Exec.set_on_state_done eng (fun _ ->
            if !first then begin
              first := false;
              failwith "done hook"
            end))
  in
  check_bool "a hook fault is a checker exception" true
    (String.starts_with ~prefix:"checker exception:" fault.Guard.inc_message);
  check_int "every path returns" 3 (List.length returned)

(* --- min-touch scheduler ----------------------------------------------------- *)

let mk_states eng ks n =
  List.init n (fun _ -> Exec.new_root_state eng ks)

let sid = function
  | Some s -> s.Symstate.id
  | None -> Alcotest.fail "expected a state"

(* A min-touch queue over states placed at blocks: [key] reads a state's
   block from [blocks], [priority] a block's execution count from
   [counts]; both default to 0. *)
let block_queue blocks counts =
  let lookup tbl k = try Hashtbl.find tbl k with Not_found -> 0 in
  Sched.create
    ~key:(fun s -> lookup blocks s.Symstate.id)
    ~priority:(lookup counts)

let test_sched_min_touch () =
  let eng, _, ks = build_engine "int driver_entry(void) { return 0; }" in
  let sts = mk_states eng ks 4 in
  let ids = List.map (fun s -> s.Symstate.id) sts in
  let nth = List.nth ids in
  let fill ?(counts = Hashtbl.create 1) blocks =
    let q = block_queue blocks counts in
    List.iter (Sched.push q) sts;
    q
  in
  (* Min-touch: the state at the least-run block wins. States 0, 1 and 3
     wait at block 20 (run 5 times), state 2 at block 10 (never run). *)
  let blocks = Hashtbl.create 4 and counts = Hashtbl.create 4 in
  List.iteri
    (fun i id -> Hashtbl.replace blocks id (if i = 2 then 10 else 20))
    ids;
  Hashtbl.replace counts 20 5;
  let q = fill ~counts blocks in
  check_int "min wins" (nth 2) (sid (Sched.pop q));
  check_int "min-touch length after pop" 3 (Sched.length q);
  (* Ties break FIFO, within one block and across equally-run blocks. *)
  let q = fill blocks in
  check_int "fifo tie-break" (nth 0) (sid (Sched.pop q));
  check_int "fifo tie-break (2nd)" (nth 1) (sid (Sched.pop q));
  check_int "fifo tie-break across blocks" (nth 2) (sid (Sched.pop q));
  check_int "fifo tie-break (4th)" (nth 3) (sid (Sched.pop q));
  (* Empty queues answer None. *)
  let q = block_queue (Hashtbl.create 1) (Hashtbl.create 1) in
  check_bool "empty pop" true (Sched.pop q = None)

let test_sched_live_priority () =
  let eng, _, ks = build_engine "int driver_entry(void) { return 0; }" in
  let sts = mk_states eng ks 4 in
  let ids = List.map (fun s -> s.Symstate.id) sts in
  let nth = List.nth ids in
  (* State 0 waits at block 10, states 1 and 3 at block 11, state 2 at
     block 12. A block's count may grow while states wait there (another
     state runs it); a pick reads the live count and must not return a
     state whose block grew hot since it was queued. *)
  let blocks = Hashtbl.create 4 and counts = Hashtbl.create 4 in
  List.iteri (fun i id -> Hashtbl.replace blocks id [| 10; 11; 12; 11 |].(i)) ids;
  let q = block_queue blocks counts in
  List.iter (Sched.push q) sts;
  Hashtbl.replace counts 10 100;
  check_int "stale min skipped" (nth 1) (sid (Sched.pop q));
  check_int "still skipped" (nth 2) (sid (Sched.pop q));
  check_int "third pop" (nth 3) (sid (Sched.pop q));
  check_int "hot block comes last" (nth 0) (sid (Sched.pop q));
  check_int "drained" 0 (Sched.length q)

(* The bucket scan against a reference queue that recomputes every
   priority at each pick and takes the minimum by (priority, push
   sequence). A pool of states is spread over four blocks; steps push an
   idle state, pop, drain, or bump a block's count. Steps are (operation,
   argument): 0-2 push, 3-5 pop, 6 drain, 7-9 bump. *)
let prop_sched_matches_reference =
  QCheck.Test.make ~count:300
    ~name:"bucket scan matches recompute-every-pick reference"
    QCheck.(
      make
        Gen.(
          pair
            (array_size (return 8) (int_bound 3))
            (list_size (int_range 1 60) (pair (int_bound 9) (int_bound 99)))))
    (fun (placement, steps) ->
      let eng, _, ks = build_engine "int driver_entry(void) { return 0; }" in
      let pool = Array.of_list (mk_states eng ks (Array.length placement)) in
      let blocks = Hashtbl.create 8 and counts = Hashtbl.create 4 in
      Array.iteri
        (fun i s -> Hashtbl.replace blocks s.Symstate.id (100 + placement.(i)))
        pool;
      let count b = try Hashtbl.find counts b with Not_found -> 0 in
      let q = block_queue blocks counts in
      (* reference: (sequence, state), plus the sequence counter *)
      let model = ref [] and seq = ref 0 in
      let fails = ref [] in
      let fail fmt = Printf.ksprintf (fun m -> fails := m :: !fails) fmt in
      let live (sq, s) = (count (Hashtbl.find blocks s.Symstate.id), sq) in
      let ref_min () =
        List.fold_left
          (fun best e ->
            match best with
            | Some b when compare (live b) (live e) <= 0 -> best
            | _ -> Some e)
          None !model
      in
      let forget s = model := List.filter (fun (_, s') -> s' != s) !model in
      let queued s = List.exists (fun (_, s') -> s' == s) !model in
      let id = function Some s -> s.Symstate.id | None -> -1 in
      List.iteri
        (fun step (op, arg) ->
          let s = pool.(arg mod Array.length pool) in
          (match op with
          | 0 | 1 | 2 ->
              if not (queued s) then begin
                Sched.push q s;
                incr seq;
                model := (!seq, s) :: !model
              end
          | 3 | 4 | 5 ->
              let want = Option.map snd (ref_min ()) in
              let got = Sched.pop q in
              if id got <> id want then
                fail "step %d: pop %d, reference %d" step (id got) (id want);
              Option.iter forget got
          | 6 ->
              let want =
                List.sort (fun a b -> compare (live a) (live b)) !model
                |> List.map (fun (_, s) -> s.Symstate.id)
              in
              let got = List.map (fun s -> s.Symstate.id) (Sched.drain q) in
              if got <> want then fail "step %d: drain order" step;
              model := []
          | _ ->
              let b = 100 + (arg mod 4) in
              Hashtbl.replace counts b (count b + 1 + (arg mod 3)));
          if Sched.length q <> List.length !model then
            fail "step %d: length %d, reference %d" step (Sched.length q)
              (List.length !model))
        steps;
      match !fails with
      | [] -> true
      | fs -> QCheck.Test.fail_reportf "%s" (String.concat "; " (List.rev fs)))

let () =
  Alcotest.run "ddt_symexec"
    [ ("symmem",
       [ Alcotest.test_case "cow fork isolation" `Quick test_cow_fork_isolation;
         Alcotest.test_case "word/byte roundtrip" `Quick
           test_cow_word_byte_roundtrip;
         Alcotest.test_case "symbolic device" `Quick test_symbolic_device_reads;
         Alcotest.test_case "concrete device reads stable" `Quick
           test_concrete_device_reads_stable;
         qtest prop_cow_matches_reference;
         qtest prop_cow_pool_matches_model ]);
      ("symstate",
       [ Alcotest.test_case "fork depth" `Quick test_fork_depth ]);
      ("symdev", [ qtest prop_symdev_range_matches_scan ]);
      ("executor",
       [ Alcotest.test_case "fork on device branch" `Quick
           test_fork_on_symbolic_branch;
         Alcotest.test_case "symbolic args" `Quick test_symbolic_args_fork;
         Alcotest.test_case "div by zero" `Quick test_div_by_zero_forks_crash;
         Alcotest.test_case "path constraints" `Quick
           test_path_constraints_consistent;
         Alcotest.test_case "concretization" `Quick
           test_concretization_constraint_recorded;
         Alcotest.test_case "interrupt injection" `Quick
           test_interrupt_injection_forks;
         Alcotest.test_case "coverage" `Quick test_coverage_accounting;
         Alcotest.test_case "wild indirect targets" `Quick
           test_wild_indirect_targets;
         Alcotest.test_case "memory access accounting" `Quick
           test_memory_access_accounting ]);
      ("faults",
       [ Alcotest.test_case "new-block hook fault, one job" `Quick
           test_new_block_fault;
         Alcotest.test_case "state-done hook fault, one job" `Quick
           test_state_done_fault ]);
      ("scheduler",
       [ Alcotest.test_case "min-touch order" `Quick test_sched_min_touch;
         Alcotest.test_case "live priority scan" `Quick
           test_sched_live_priority;
         qtest prop_sched_matches_reference ]) ]
