let passive_level = 0
let dispatch_level = 2
let device_level = 6

type alloc_kind =
  | Pool
  | Packet
  | Buffer
  | Packet_pool
  | Buffer_pool
  | Config_handle
  | Mapped_io
  | Interrupt_sync

let string_of_alloc_kind = function
  | Pool -> "pool memory"
  | Packet -> "packet"
  | Buffer -> "buffer"
  | Packet_pool -> "packet pool"
  | Buffer_pool -> "buffer pool"
  | Config_handle -> "configuration handle"
  | Mapped_io -> "mapped I/O space"
  | Interrupt_sync -> "interrupt sync object"

type alloc = {
  a_id : int;
  a_addr : int;
  a_size : int;
  a_kind : alloc_kind;
  a_tag : int;
  a_invocation : int;
  mutable a_freed : bool;
}

type region = {
  r_start : int;
  r_size : int;
  r_writable : bool;
  r_note : string;
}

type lock = {
  mutable l_held : bool;
  mutable l_old_irql : int;
  mutable l_dpr : bool;
  mutable l_seq : int;
}

type timer = {
  mutable t_func : int;
  mutable t_ctx : int;
  mutable t_armed : bool;
  mutable t_periodic : bool;
}

type t = {
  dev : Pci.assigned;
  mutable registry : (string * int) list;
  allocs : (int, alloc) Hashtbl.t;
  mutable next_alloc_id : int;
  mutable heap_ptr : int;
  locks : (int, lock) Hashtbl.t;
  mutable lock_seq : int;
  mutable cur_irql : int;
  mutable dpc_flag : bool;
  mutable isr_flag : bool;
  timers : (int, timer) Hashtbl.t;
  entry_points : (string, int) Hashtbl.t;
  mutable drv_ctx : int;
  mutable isr_reg : bool;
  mutable invocation_counter : int;
  mutable region_list : region list;
  mutable kcalls : int;
}

let create ?(registry = []) ~device () =
  {
    dev = device;
    registry;
    allocs = Hashtbl.create 32;
    next_alloc_id = 0;
    heap_ptr = Ddt_dvm.Layout.heap_base;
    locks = Hashtbl.create 8;
    lock_seq = 0;
    cur_irql = passive_level;
    dpc_flag = false;
    isr_flag = false;
    timers = Hashtbl.create 8;
    entry_points = Hashtbl.create 8;
    drv_ctx = 0;
    isr_reg = false;
    invocation_counter = 0;
    region_list = [];
    kcalls = 0;
  }

let copy t =
  let copy_tbl tbl copy_v =
    let t' = Hashtbl.create (Hashtbl.length tbl) in
    Hashtbl.iter (fun k v -> Hashtbl.add t' k (copy_v v)) tbl;
    t'
  in
  {
    t with
    registry = t.registry;
    allocs = copy_tbl t.allocs (fun a -> { a with a_freed = a.a_freed });
    locks = copy_tbl t.locks (fun l -> { l with l_held = l.l_held });
    timers = copy_tbl t.timers (fun tm -> { tm with t_armed = tm.t_armed });
    entry_points = copy_tbl t.entry_points (fun x -> x);
    region_list = t.region_list;
  }

let device t = t.dev
let registry_find t name = List.assoc_opt name t.registry
let irql t = t.cur_irql

let set_irql t v = t.cur_irql <- v

let in_dpc t = t.dpc_flag
let set_in_dpc t v = t.dpc_flag <- v
let in_isr t = t.isr_flag
let set_in_isr t v = t.isr_flag <- v

let entry_point t name = Hashtbl.find_opt t.entry_points name
let set_entry_point t name addr = Hashtbl.replace t.entry_points name addr
let driver_ctx t = t.drv_ctx
let set_driver_ctx t v = t.drv_ctx <- v
let isr_registered t = t.isr_reg
let set_isr_registered t v = t.isr_reg <- v

let begin_invocation t =
  t.invocation_counter <- t.invocation_counter + 1

let invocation t = t.invocation_counter

(* --- allocation ------------------------------------------------------- *)

let grant t r = t.region_list <- r :: t.region_list

let revoke_at t start =
  match List.find_opt (fun r -> r.r_start = start) t.region_list with
  | None -> ()
  | Some r ->
      t.region_list <- List.filter (fun r' -> r' != r) t.region_list

let region_containing t addr =
  List.find_opt
    (fun r -> addr >= r.r_start && addr < r.r_start + r.r_size)
    t.region_list

let heap_alloc t ~size ~kind ~tag =
  let size = max size 4 in
  let addr = t.heap_ptr in
  (* Red zone between allocations so off-by-one accesses land outside
     every granted region. *)
  t.heap_ptr <- addr + ((size + 3) land lnot 3) + 32;
  t.next_alloc_id <- t.next_alloc_id + 1;
  let a =
    { a_id = t.next_alloc_id; a_addr = addr; a_size = size; a_kind = kind;
      a_tag = tag; a_invocation = t.invocation_counter; a_freed = false }
  in
  Hashtbl.replace t.allocs a.a_id a;
  grant t
    { r_start = addr; r_size = size; r_writable = true;
      r_note = string_of_alloc_kind kind };
  a

let scratch_alloc t ~size ~note =
  let size = max size 4 in
  let addr = t.heap_ptr in
  t.heap_ptr <- addr + ((size + 3) land lnot 3) + 32;
  grant t { r_start = addr; r_size = size; r_writable = true; r_note = note };
  addr

let handle_alloc t ~kind ~tag =
  t.next_alloc_id <- t.next_alloc_id + 1;
  let a =
    { a_id = t.next_alloc_id; a_addr = 0; a_size = 0; a_kind = kind;
      a_tag = tag; a_invocation = t.invocation_counter; a_freed = false }
  in
  Hashtbl.replace t.allocs a.a_id a;
  a

let handle_of_alloc a = Ddt_dvm.Layout.kernel_base + (a.a_id * 16)

let alloc_of_handle t h =
  let id = (h - Ddt_dvm.Layout.kernel_base) / 16 in
  match Hashtbl.find_opt t.allocs id with
  | Some a when handle_of_alloc a = h -> Some a
  | _ -> None

let alloc_of_addr t addr =
  Hashtbl.fold
    (fun _ a acc ->
      if a.a_addr = addr && a.a_addr <> 0 then Some a else acc)
    t.allocs None

let free_alloc t a =
  a.a_freed <- true;
  if a.a_addr <> 0 then revoke_at t a.a_addr

let live_allocs t =
  Hashtbl.fold (fun _ a acc -> if a.a_freed then acc else a :: acc) t.allocs []
  |> List.sort (fun a b -> compare a.a_id b.a_id)

let live_allocs_of_invocation t inv =
  List.filter (fun a -> a.a_invocation = inv) (live_allocs t)

(* --- spinlocks -------------------------------------------------------- *)

let lock_at t addr = Hashtbl.find_opt t.locks addr

let init_lock t addr =
  Hashtbl.replace t.locks addr
    { l_held = false; l_old_irql = passive_level; l_dpr = false; l_seq = 0 }

let destroy_lock t addr = Hashtbl.remove t.locks addr

let acquire_lock t addr ~dpr =
  let l =
    match lock_at t addr with
    | Some l -> l
    | None ->
        (* Windows tolerates uninitialized NDIS spinlocks being zeroed
           memory; model them as implicitly initialized. *)
        init_lock t addr;
        Option.get (lock_at t addr)
  in
  if l.l_held then
    Bugcheck.crash Bugcheck.Verifier_detected
      "deadlock: recursive acquisition of spinlock 0x%x (the CPU would spin \
       forever at raised IRQL)" addr;
  l.l_held <- true;
  l.l_dpr <- dpr;
  t.lock_seq <- t.lock_seq + 1;
  l.l_seq <- t.lock_seq;
  if not dpr then begin
    l.l_old_irql <- t.cur_irql;
    set_irql t dispatch_level
  end

let release_lock t addr ~dpr =
  match lock_at t addr with
  | None | Some { l_held = false; _ } ->
      Bugcheck.crash Bugcheck.Spin_lock_not_owned
        "release of spinlock 0x%x which is not held" addr
  | Some l ->
      l.l_held <- false;
      if not dpr then
        (* Restores whatever IRQL the matching acquire saved — if the lock
           was acquired with the Dpr variant this restores a stale value,
           which is exactly the Intel Pro/100 bug of Table 2. *)
        set_irql t l.l_old_irql

let held_locks t =
  Hashtbl.fold (fun addr l acc -> if l.l_held then (addr, l) :: acc else acc)
    t.locks []
  |> List.sort (fun (_, a) (_, b) -> compare b.l_seq a.l_seq)

(* --- timers ----------------------------------------------------------- *)

let timer_at t addr = Hashtbl.find_opt t.timers addr

let init_timer t ~addr ~func ~ctx =
  Hashtbl.replace t.timers addr
    { t_func = func; t_ctx = ctx; t_armed = false; t_periodic = false }

let set_timer t ~addr ~periodic =
  match timer_at t addr with
  | None ->
      Bugcheck.crash Bugcheck.Bad_timer
        "NdisMSetTimer on uninitialized timer object 0x%x" addr
  | Some tm ->
      tm.t_armed <- true;
      tm.t_periodic <- periodic

let cancel_timer t ~addr =
  match timer_at t addr with
  | None -> ()
  | Some tm -> tm.t_armed <- false

let due_timers t =
  Hashtbl.fold (fun addr tm acc -> if tm.t_armed then (addr, tm) :: acc else acc)
    t.timers []

let disarm_timer t addr =
  match timer_at t addr with
  | Some tm -> if not tm.t_periodic then tm.t_armed <- false
  | None -> ()

let kcall_count t = t.kcalls
let bump_kcall t = t.kcalls <- t.kcalls + 1
