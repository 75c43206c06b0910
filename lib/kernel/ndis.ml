let status_success = 0
let status_failure = 1

let entry_point_names =
  [ "initialize"; "query"; "set"; "send"; "isr"; "dpc"; "halt"; "reset" ]

let handle_of_alloc (a : Kstate.alloc) =
  Ddt_dvm.Layout.kernel_base + (a.Kstate.a_id * 16)

(* Passive-level-only APIs crash at elevated IRQL, like the real kernel. *)
let require_passive ks name =
  if Kstate.irql ks >= Kstate.dispatch_level then
    Bugcheck.crash Bugcheck.Irql_not_less_or_equal
      "%s called at IRQL %d (requires PASSIVE_LEVEL)" name (Kstate.irql ks)

let bad_handle name h =
  Bugcheck.crash Bugcheck.Bad_handle "%s: invalid handle 0x%x" name h

(* --- registration ----------------------------------------------------- *)

let ndis_m_register_miniport ks (m : Mach.t) =
  let chars = m.Mach.arg 0 in
  List.iteri
    (fun i name ->
      let addr = m.Mach.read_u32 (chars + (4 * i)) in
      if addr <> 0 then Kstate.set_entry_point ks name addr)
    entry_point_names;
  (match Kstate.entry_point ks "initialize" with
   | None ->
       Bugcheck.crash Bugcheck.Null_handler
         "NdisMRegisterMiniport: no Initialize handler"
   | Some _ -> ());
  m.Mach.set_ret status_success

let ndis_m_set_attributes ks (m : Mach.t) =
  Kstate.set_driver_ctx ks (m.Mach.arg 0);
  m.Mach.set_ret status_success

let ndis_m_register_interrupt ks (m : Mach.t) =
  let _vector = m.Mach.arg 0 in
  (match Kstate.entry_point ks "isr" with
   | None ->
       Bugcheck.crash Bugcheck.Null_handler
         "NdisMRegisterInterrupt without an ISR handler"
   | Some _ -> ());
  Kstate.set_isr_registered ks true;
  m.Mach.set_ret status_success

let ndis_m_deregister_interrupt ks (m : Mach.t) =
  Kstate.set_isr_registered ks false;
  m.Mach.set_ret status_success

(* --- configuration (registry) ------------------------------------------ *)

let ndis_open_configuration ks (m : Mach.t) =
  require_passive ks "NdisOpenConfiguration";
  let out = m.Mach.arg 0 in
  let a = Kstate.handle_alloc ks ~kind:Kstate.Config_handle ~tag:0 in
  m.Mach.write_u32 out (handle_of_alloc a);
  m.Mach.set_ret status_success

let ndis_read_configuration ks (m : Mach.t) =
  require_passive ks "NdisReadConfiguration";
  let handle = m.Mach.arg 0 in
  let name_ptr = m.Mach.arg 1 in
  let default = m.Mach.arg 2 in
  (match Kstate.alloc_of_handle ks handle with
   | Some { Kstate.a_kind = Kstate.Config_handle; a_freed = false; _ } -> ()
   | _ -> bad_handle "NdisReadConfiguration" handle);
  let name = Mach.read_cstring m name_ptr in
  let value =
    match Kstate.registry_find ks name with
    | Some v -> v
    | None -> default
  in
  m.Mach.set_ret value

let ndis_close_configuration ks (m : Mach.t) =
  require_passive ks "NdisCloseConfiguration";
  let handle = m.Mach.arg 0 in
  (match Kstate.alloc_of_handle ks handle with
   | Some ({ Kstate.a_kind = Kstate.Config_handle; a_freed = false; _ } as a) ->
       Kstate.free_alloc ks a
   | _ -> bad_handle "NdisCloseConfiguration" handle);
  m.Mach.set_ret status_success

(* --- memory ------------------------------------------------------------ *)

let ndis_allocate_memory_with_tag ks (m : Mach.t) =
  let out = m.Mach.arg 0 in
  let size = m.Mach.arg 1 in
  let tag = m.Mach.arg 2 in
  let a = Kstate.heap_alloc ks ~size ~kind:Kstate.Pool ~tag in
  m.Mach.write_u32 out a.Kstate.a_addr;
  m.Mach.set_ret status_success

let free_by_addr ks name addr =
  match Kstate.alloc_of_addr ks addr with
  | Some a when not a.Kstate.a_freed -> Kstate.free_alloc ks a
  | Some _ ->
      Bugcheck.crash Bugcheck.Verifier_detected "%s: double free of 0x%x" name
        addr
  | None ->
      Bugcheck.crash Bugcheck.Verifier_detected
        "%s: free of unallocated address 0x%x" name addr

let ndis_free_memory ks (m : Mach.t) =
  let addr = m.Mach.arg 0 in
  free_by_addr ks "NdisFreeMemory" addr;
  m.Mach.set_ret status_success

let ex_allocate_pool_with_tag ks (m : Mach.t) =
  let pool_type = m.Mach.arg 0 in
  let size = m.Mach.arg 1 in
  let tag = m.Mach.arg 2 in
  (* Pool type 1 = paged: forbidden at DISPATCH_LEVEL. *)
  if pool_type = 1 then require_passive ks "ExAllocatePoolWithTag(paged)";
  let a = Kstate.heap_alloc ks ~size ~kind:Kstate.Pool ~tag in
  m.Mach.set_ret a.Kstate.a_addr

let ex_free_pool_with_tag ks (m : Mach.t) =
  let addr = m.Mach.arg 0 in
  free_by_addr ks "ExFreePoolWithTag" addr;
  m.Mach.set_ret status_success

(* --- packets and buffers ------------------------------------------------ *)

let alloc_handle_api ks (m : Mach.t) kind =
  let out = m.Mach.arg 0 in
  let a = Kstate.handle_alloc ks ~kind ~tag:0 in
  m.Mach.write_u32 out (handle_of_alloc a);
  m.Mach.set_ret status_success

let free_handle_api ks (m : Mach.t) name kind =
  let h = m.Mach.arg 0 in
  (match Kstate.alloc_of_handle ks h with
   | Some a when a.Kstate.a_kind = kind && not a.Kstate.a_freed ->
       Kstate.free_alloc ks a
   | _ -> bad_handle name h);
  m.Mach.set_ret status_success

let ndis_allocate_packet_pool ks m = alloc_handle_api ks m Kstate.Packet_pool

let ndis_free_packet_pool ks m =
  free_handle_api ks m "NdisFreePacketPool" Kstate.Packet_pool

let ndis_allocate_buffer_pool ks m = alloc_handle_api ks m Kstate.Buffer_pool

let ndis_free_buffer_pool ks m =
  free_handle_api ks m "NdisFreeBufferPool" Kstate.Buffer_pool

let packet_descriptor_size = 48

let ndis_allocate_packet ks (m : Mach.t) =
  let out = m.Mach.arg 0 in
  let pool = m.Mach.arg 1 in
  (match Kstate.alloc_of_handle ks pool with
   | Some { Kstate.a_kind = Kstate.Packet_pool; a_freed = false; _ } -> ()
   | _ -> bad_handle "NdisAllocatePacket" pool);
  let a =
    Kstate.heap_alloc ks ~size:packet_descriptor_size ~kind:Kstate.Packet
      ~tag:0
  in
  m.Mach.write_u32 out a.Kstate.a_addr;
  m.Mach.set_ret status_success

let ndis_free_packet ks (m : Mach.t) =
  free_by_addr ks "NdisFreePacket" (m.Mach.arg 0);
  m.Mach.set_ret status_success

let buffer_descriptor_size = 16

let ndis_allocate_buffer ks (m : Mach.t) =
  let out = m.Mach.arg 0 in
  let pool = m.Mach.arg 1 in
  let va = m.Mach.arg 2 in
  let len = m.Mach.arg 3 in
  (match Kstate.alloc_of_handle ks pool with
   | Some { Kstate.a_kind = Kstate.Buffer_pool; a_freed = false; _ } -> ()
   | _ -> bad_handle "NdisAllocateBuffer" pool);
  let a =
    Kstate.heap_alloc ks ~size:buffer_descriptor_size ~kind:Kstate.Buffer
      ~tag:0
  in
  m.Mach.write_u32 a.Kstate.a_addr va;
  m.Mach.write_u32 (a.Kstate.a_addr + 4) len;
  m.Mach.write_u32 out a.Kstate.a_addr;
  m.Mach.set_ret status_success

let ndis_free_buffer ks (m : Mach.t) =
  free_by_addr ks "NdisFreeBuffer" (m.Mach.arg 0);
  m.Mach.set_ret status_success

let ndis_m_indicate_receive_packet ks (m : Mach.t) =
  let _pkt = m.Mach.arg 0 in
  ignore ks;
  m.Mach.set_ret status_success

(* --- spinlocks ---------------------------------------------------------- *)

let ndis_allocate_spin_lock ks (m : Mach.t) =
  Kstate.init_lock ks (m.Mach.arg 0);
  m.Mach.set_ret status_success

let ndis_free_spin_lock ks (m : Mach.t) =
  Kstate.destroy_lock ks (m.Mach.arg 0);
  m.Mach.set_ret status_success

let ndis_acquire_spin_lock ks (m : Mach.t) =
  Kstate.acquire_lock ks (m.Mach.arg 0) ~dpr:false;
  m.Mach.set_ret status_success

let ndis_release_spin_lock ks (m : Mach.t) =
  Kstate.release_lock ks (m.Mach.arg 0) ~dpr:false;
  m.Mach.set_ret status_success

let ndis_dpr_acquire_spin_lock ks (m : Mach.t) =
  Kstate.acquire_lock ks (m.Mach.arg 0) ~dpr:true;
  m.Mach.set_ret status_success

let ndis_dpr_release_spin_lock ks (m : Mach.t) =
  Kstate.release_lock ks (m.Mach.arg 0) ~dpr:true;
  m.Mach.set_ret status_success

(* --- timers ------------------------------------------------------------- *)

let ndis_m_initialize_timer ks (m : Mach.t) =
  let addr = m.Mach.arg 0 in
  let func = m.Mach.arg 1 in
  let ctx = m.Mach.arg 2 in
  Kstate.init_timer ks ~addr ~func ~ctx;
  m.Mach.set_ret status_success

let ndis_m_set_timer ks (m : Mach.t) =
  Kstate.set_timer ks ~addr:(m.Mach.arg 0) ~periodic:false;
  m.Mach.set_ret status_success

let ndis_m_set_periodic_timer ks (m : Mach.t) =
  Kstate.set_timer ks ~addr:(m.Mach.arg 0) ~periodic:true;
  m.Mach.set_ret status_success

let ndis_m_cancel_timer ks (m : Mach.t) =
  Kstate.cancel_timer ks ~addr:(m.Mach.arg 0);
  m.Mach.set_ret status_success

(* --- hardware ----------------------------------------------------------- *)

let ndis_m_map_io_space ks (m : Mach.t) =
  require_passive ks "NdisMMapIoSpace";
  let out = m.Mach.arg 0 in
  let bar_index = m.Mach.arg 1 in
  let dev = Kstate.device ks in
  (match List.nth_opt dev.Pci.bars bar_index with
   | None -> m.Mach.set_ret status_failure
   | Some bar ->
       let size =
         match List.nth_opt dev.Pci.desc.Pci.bar_sizes bar_index with
         | Some s -> max s 0x1000
         | None -> 0x1000
       in
       Kstate.grant ks
         { Kstate.r_start = bar; r_size = size; r_writable = true;
           r_note = "mapped I/O space" };
       m.Mach.write_u32 out bar;
       m.Mach.set_ret status_success)

let ndis_read_pci_slot_information ks (m : Mach.t) =
  let offset = m.Mach.arg 0 in
  let buf = m.Mach.arg 1 in
  let len = m.Mach.arg 2 in
  let dev = Kstate.device ks in
  for i = 0 to len - 1 do
    m.Mach.write_u8 (buf + i) (Pci.read_config dev (offset + i))
  done;
  m.Mach.set_ret len

(* --- memory utilities ----------------------------------------------------- *)

(* The kernel validates that the driver owns every byte it asks the kernel
   to touch (§3.1.1: DDT hooks the kernel API functions and analyzes their
   arguments) — out-of-range requests are exactly how drivers corrupt the
   kernel with its own help, so the checked build bugchecks. *)
let validate_driver_range ks name addr len =
  if len > 0 then begin
    let ok a =
      (* Granted regions plus the device BARs. *)
      (match Kstate.region_containing ks a with Some _ -> true | None -> false)
      ||
      let dev = Kstate.device ks in
      List.exists
        (fun bar -> a >= bar && a < bar + 0x4000)
        dev.Pci.bars
    in
    (* Endpoints suffice: regions are contiguous and the red zones make
       straddling impossible without one endpoint escaping. *)
    if not (ok addr && ok (addr + len - 1)) then
      Bugcheck.crash Bugcheck.Verifier_detected
        "%s: range [0x%x, 0x%x) is not owned by the driver" name addr
        (addr + len)
  end

let ndis_move_memory ks (m : Mach.t) =
  let dst = m.Mach.arg 0 in
  let src = m.Mach.arg 1 in
  let len = m.Mach.arg 2 in
  validate_driver_range ks "NdisMoveMemory" dst len;
  validate_driver_range ks "NdisMoveMemory" src len;
  (* Copy expression-by-expression: symbolic bytes stay symbolic across
     the kernel boundary (the kernel treats driver buffers as opaque).
     Direction matters for overlapping ranges, like memmove. *)
  if dst <= src then
    for i = 0 to len - 1 do
      m.Mach.write_expr_u8 (dst + i) (m.Mach.read_expr_u8 (src + i))
    done
  else
    for i = len - 1 downto 0 do
      m.Mach.write_expr_u8 (dst + i) (m.Mach.read_expr_u8 (src + i))
    done;
  m.Mach.set_ret status_success

let ndis_zero_memory ks (m : Mach.t) =
  let dst = m.Mach.arg 0 in
  let len = m.Mach.arg 1 in
  validate_driver_range ks "NdisZeroMemory" dst len;
  for i = 0 to len - 1 do
    m.Mach.write_u8 (dst + i) 0
  done;
  m.Mach.set_ret status_success

let ndis_equal_memory ks (m : Mach.t) =
  let a = m.Mach.arg 0 in
  let b = m.Mach.arg 1 in
  let len = m.Mach.arg 2 in
  validate_driver_range ks "NdisEqualMemory" a len;
  validate_driver_range ks "NdisEqualMemory" b len;
  let rec go i = i >= len || (m.Mach.read_u8 (a + i) = m.Mach.read_u8 (b + i) && go (i + 1)) in
  m.Mach.set_ret (if go 0 then 1 else 0)

(* DMA common buffers: a virtual/physical pair; in this machine the
   "physical" address the device sees equals the virtual one. *)
let ndis_m_allocate_shared_memory ks (m : Mach.t) =
  let va_out = m.Mach.arg 0 in
  let pa_out = m.Mach.arg 1 in
  let size = m.Mach.arg 2 in
  let a = Kstate.heap_alloc ks ~size ~kind:Kstate.Pool ~tag:0x444D41 in
  m.Mach.write_u32 va_out a.Kstate.a_addr;
  m.Mach.write_u32 pa_out a.Kstate.a_addr;
  m.Mach.set_ret status_success

let ndis_m_free_shared_memory ks (m : Mach.t) =
  free_by_addr ks "NdisMFreeSharedMemory" (m.Mach.arg 0);
  m.Mach.set_ret status_success

(* --- misc ---------------------------------------------------------------- *)

let ndis_stall_execution _ks (m : Mach.t) =
  let _us = m.Mach.arg 0 in
  m.Mach.set_ret status_success

let ndis_write_error_log_entry _ks (m : Mach.t) = m.Mach.set_ret status_success

let ke_get_current_irql ks (m : Mach.t) = m.Mach.set_ret (Kstate.irql ks)

let ke_bugcheck_ex _ks (m : Mach.t) =
  Bugcheck.crash Bugcheck.Verifier_detected "KeBugCheckEx(0x%x) from driver"
    (m.Mach.arg 0)

let installed = ref false

let install () =
  if not !installed then begin
    installed := true;
    List.iter
      (fun (name, impl) -> Kapi.register name impl)
      [ ("NdisMRegisterMiniport", ndis_m_register_miniport);
        ("NdisMSetAttributes", ndis_m_set_attributes);
        ("NdisMRegisterInterrupt", ndis_m_register_interrupt);
        ("NdisMDeregisterInterrupt", ndis_m_deregister_interrupt);
        ("NdisOpenConfiguration", ndis_open_configuration);
        ("NdisReadConfiguration", ndis_read_configuration);
        ("NdisCloseConfiguration", ndis_close_configuration);
        ("NdisAllocateMemoryWithTag", ndis_allocate_memory_with_tag);
        ("NdisFreeMemory", ndis_free_memory);
        ("ExAllocatePoolWithTag", ex_allocate_pool_with_tag);
        ("ExFreePoolWithTag", ex_free_pool_with_tag);
        ("NdisAllocatePacketPool", ndis_allocate_packet_pool);
        ("NdisFreePacketPool", ndis_free_packet_pool);
        ("NdisAllocateBufferPool", ndis_allocate_buffer_pool);
        ("NdisFreeBufferPool", ndis_free_buffer_pool);
        ("NdisAllocatePacket", ndis_allocate_packet);
        ("NdisFreePacket", ndis_free_packet);
        ("NdisAllocateBuffer", ndis_allocate_buffer);
        ("NdisFreeBuffer", ndis_free_buffer);
        ("NdisMIndicateReceivePacket", ndis_m_indicate_receive_packet);
        ("NdisAllocateSpinLock", ndis_allocate_spin_lock);
        ("NdisFreeSpinLock", ndis_free_spin_lock);
        ("NdisAcquireSpinLock", ndis_acquire_spin_lock);
        ("NdisReleaseSpinLock", ndis_release_spin_lock);
        ("NdisDprAcquireSpinLock", ndis_dpr_acquire_spin_lock);
        ("NdisDprReleaseSpinLock", ndis_dpr_release_spin_lock);
        ("NdisMInitializeTimer", ndis_m_initialize_timer);
        ("NdisMSetTimer", ndis_m_set_timer);
        ("NdisMSetPeriodicTimer", ndis_m_set_periodic_timer);
        ("NdisMCancelTimer", ndis_m_cancel_timer);
        ("NdisMMapIoSpace", ndis_m_map_io_space);
        ("NdisReadPciSlotInformation", ndis_read_pci_slot_information);
        ("NdisMoveMemory", ndis_move_memory);
        ("NdisZeroMemory", ndis_zero_memory);
        ("NdisEqualMemory", ndis_equal_memory);
        ("NdisMAllocateSharedMemory", ndis_m_allocate_shared_memory);
        ("NdisMFreeSharedMemory", ndis_m_free_shared_memory);
        ("NdisStallExecution", ndis_stall_execution);
        ("NdisWriteErrorLogEntry", ndis_write_error_log_entry);
        ("KeGetCurrentIrql", ke_get_current_irql);
        ("KeBugCheckEx", ke_bugcheck_ex) ]
  end
