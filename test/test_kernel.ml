(* Unit tests for ddt_kernel: state management, locks/IRQL, timers,
   allocation tracking, API dispatch through a concrete Mach. *)

open Ddt_kernel

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let device () =
  Pci.assign_resources
    { Pci.vendor_id = 0x10EC; device_id = 0x8029; revision = 1;
      bar_sizes = [ 0x1000 ]; irq_line = 9 }
    ~mmio_base:Ddt_dvm.Layout.mmio_base

let fresh_ks ?registry () = Kstate.create ?registry ~device:(device ()) ()

(* A concrete Mach over a plain byte table, for driving kernel APIs from
   tests without any engine. *)
let concrete_mach ks =
  let mem = Hashtbl.create 64 in
  let read_u8 a = try Hashtbl.find mem a with Not_found -> 0 in
  let write_u8 a v = Hashtbl.replace mem a (v land 0xFF) in
  let read_u32 a =
    read_u8 a lor (read_u8 (a + 1) lsl 8) lor (read_u8 (a + 2) lsl 16)
    lor (read_u8 (a + 3) lsl 24)
  in
  let write_u32 a v =
    for i = 0 to 3 do write_u8 (a + i) ((v lsr (8 * i)) land 0xFF) done
  in
  let args = ref [||] in
  let ret = ref 0 in
  let mach =
    {
      Mach.arg = (fun i -> !args.(i));
      arg_expr = (fun i -> Ddt_solver.Expr.word !args.(i));
      set_ret = (fun v -> ret := v);
      get_ret = (fun () -> !ret);
      set_ret_expr = (fun _ -> ());
      read_u32;
      write_u32;
      read_u8;
      write_u8;
      read_expr_u32 = (fun a -> Ddt_solver.Expr.word (read_u32 a));
      write_expr_u32 = (fun _ _ -> ());
      read_expr_u8 = (fun a -> Ddt_solver.Expr.byte (read_u8 a));
      write_expr_u8 =
        (fun a e ->
          match e with
          | Ddt_solver.Expr.Const (_, v) -> write_u8 a v
          | _ -> ());
      fresh_symbolic = (fun _ w -> Ddt_solver.Expr.const w 0);
      assume = (fun _ -> ());
      fork = (fun _alts -> () (* concrete: stay on the primary path *));
      discard = (fun _ -> ());
      kstate = (fun () -> ks);
    }
  in
  let call name actual_args =
    args := Array.of_list actual_args;
    Kapi.call ks mach name;
    !ret
  in
  (mach, call, write_u32, read_u32, write_u8)

let () = Ndis.install (); Portcls.install ()

(* --- allocation tracking ------------------------------------------------ *)

let test_alloc_free () =
  let ks = fresh_ks () in
  let a = Kstate.heap_alloc ks ~size:64 ~kind:Kstate.Pool ~tag:7 in
  check_bool "granted" true
    (Kstate.region_containing ks a.Kstate.a_addr <> None);
  check_int "one live" 1 (List.length (Kstate.live_allocs ks));
  Kstate.free_alloc ks a;
  check_int "none live" 0 (List.length (Kstate.live_allocs ks));
  check_bool "revoked" true (Kstate.region_containing ks a.Kstate.a_addr = None)

let test_red_zone () =
  let ks = fresh_ks () in
  let a = Kstate.heap_alloc ks ~size:16 ~kind:Kstate.Pool ~tag:0 in
  let b = Kstate.heap_alloc ks ~size:16 ~kind:Kstate.Pool ~tag:0 in
  check_bool "red zone gap" true
    (b.Kstate.a_addr >= a.Kstate.a_addr + 16 + 16);
  (* An off-by-one access past [a] lands in no region. *)
  check_bool "gap unowned" true
    (Kstate.region_containing ks (a.Kstate.a_addr + 16) = None)

let test_invocation_ledger () =
  let ks = fresh_ks () in
  Kstate.begin_invocation ks;
  let inv = Kstate.invocation ks in
  let _ = Kstate.heap_alloc ks ~size:8 ~kind:Kstate.Pool ~tag:0 in
  let b = Kstate.heap_alloc ks ~size:8 ~kind:Kstate.Packet ~tag:0 in
  Kstate.free_alloc ks b;
  check_int "one live from invocation" 1
    (List.length (Kstate.live_allocs_of_invocation ks inv));
  Kstate.begin_invocation ks;
  check_int "none from new invocation" 0
    (List.length (Kstate.live_allocs_of_invocation ks (Kstate.invocation ks)))

(* --- locks and IRQL ----------------------------------------------------- *)

let test_lock_irql_discipline () =
  let ks = fresh_ks () in
  check_int "passive initially" Kstate.passive_level (Kstate.irql ks);
  Kstate.init_lock ks 0x1000;
  Kstate.acquire_lock ks 0x1000 ~dpr:false;
  check_int "raised to dispatch" Kstate.dispatch_level (Kstate.irql ks);
  Kstate.release_lock ks 0x1000 ~dpr:false;
  check_int "restored" Kstate.passive_level (Kstate.irql ks)

let test_dpr_release_restores_stale_irql () =
  (* The Intel Pro/100 failure mode: Dpr acquire at DISPATCH, then a plain
     release drops the IRQL to whatever the lock object last saved. *)
  let ks = fresh_ks () in
  Kstate.init_lock ks 0x1000;
  Kstate.set_irql ks Kstate.dispatch_level;
  Kstate.acquire_lock ks 0x1000 ~dpr:true;
  check_int "still dispatch" Kstate.dispatch_level (Kstate.irql ks);
  Kstate.release_lock ks 0x1000 ~dpr:false;
  check_int "stale passive restored" Kstate.passive_level (Kstate.irql ks)

let test_release_unheld_bugchecks () =
  let ks = fresh_ks () in
  Kstate.init_lock ks 0x1000;
  (match Kstate.release_lock ks 0x1000 ~dpr:false with
   | exception Bugcheck.Bugcheck (Bugcheck.Spin_lock_not_owned, _) -> ()
   | _ -> Alcotest.fail "expected bugcheck")

let test_uninitialized_timer_bugchecks () =
  let ks = fresh_ks () in
  (match Kstate.set_timer ks ~addr:0x2000 ~periodic:false with
   | exception Bugcheck.Bugcheck (Bugcheck.Bad_timer, _) -> ()
   | _ -> Alcotest.fail "expected bugcheck");
  Kstate.init_timer ks ~addr:0x2000 ~func:0x400100 ~ctx:5;
  Kstate.set_timer ks ~addr:0x2000 ~periodic:false;
  check_int "armed" 1 (List.length (Kstate.due_timers ks))

(* --- interrupt orchestration --------------------------------------------- *)

let test_interrupt_protocol () =
  let ks = fresh_ks () in
  check_bool "no isr yet" true (Intr.begin_isr ks = None);
  Kstate.set_entry_point ks "isr" 0x400200;
  Kstate.set_entry_point ks "dpc" 0x400300;
  Kstate.set_driver_ctx ks 77;
  Kstate.set_isr_registered ks true;
  (match Intr.begin_isr ks with
   | Some (call, saved) ->
       check_int "isr addr" 0x400200 call.Intr.call_addr;
       check_bool "ctx arg" true (call.Intr.call_args = [ 77 ]);
       check_int "saved irql" Kstate.passive_level saved;
       check_int "device level" Kstate.device_level (Kstate.irql ks);
       check_bool "in isr" true (Kstate.in_isr ks);
       (* ISR queues the DPC. *)
       (match Intr.after_isr ks ~saved_irql:saved ~isr_ret:3 with
        | Some dpc ->
            check_int "dpc addr" 0x400300 dpc.Intr.call_addr;
            check_bool "in dpc" true (Kstate.in_dpc ks);
            check_int "dispatch" Kstate.dispatch_level (Kstate.irql ks);
            Intr.finish ks ~saved_irql:saved;
            check_int "restored" Kstate.passive_level (Kstate.irql ks);
            check_bool "out of dpc" false (Kstate.in_dpc ks)
        | None -> Alcotest.fail "expected dpc")
   | None -> Alcotest.fail "expected isr")

let test_dpc_deferred_at_dispatch () =
  let ks = fresh_ks () in
  Kstate.set_entry_point ks "isr" 0x400200;
  Kstate.set_entry_point ks "dpc" 0x400300;
  Kstate.set_isr_registered ks true;
  Kstate.set_irql ks Kstate.dispatch_level;
  (match Intr.begin_isr ks with
   | Some (_, saved) ->
       check_int "saved dispatch" Kstate.dispatch_level saved;
       check_bool "dpc deferred when interrupted code was at dispatch" true
         (Intr.after_isr ks ~saved_irql:saved ~isr_ret:3 = None)
   | None -> Alcotest.fail "expected isr")

(* --- API dispatch -------------------------------------------------------- *)

let test_ndis_config_apis () =
  let ks = fresh_ks ~registry:[ ("Speed", 100) ] () in
  let _, call, _, read_u32, write_u8 = concrete_mach ks in
  let out_ptr = 0x5000 in
  check_int "open ok" 0 (call "NdisOpenConfiguration" [ out_ptr ]);
  let handle = read_u32 out_ptr in
  check_bool "kernel handle" true (handle >= Ddt_dvm.Layout.kernel_base);
  (* Write the parameter name string where the kernel will read it. *)
  let name_ptr = 0x5100 in
  String.iteri (fun i c -> write_u8 (name_ptr + i) (Char.code c)) "Speed";
  write_u8 (name_ptr + 5) 0;
  check_int "registry value" 100
    (call "NdisReadConfiguration" [ handle; name_ptr; 42 ]);
  let other = 0x5200 in
  String.iteri (fun i c -> write_u8 (other + i) (Char.code c)) "Nope";
  write_u8 (other + 4) 0;
  check_int "default value" 42
    (call "NdisReadConfiguration" [ handle; other; 42 ]);
  check_int "close ok" 0 (call "NdisCloseConfiguration" [ handle ]);
  check_int "nothing live" 0 (List.length (Kstate.live_allocs ks))

let test_ndis_alloc_apis () =
  let ks = fresh_ks () in
  let _, call, _, read_u32, _ = concrete_mach ks in
  let out = 0x5000 in
  check_int "alloc ok" 0 (call "NdisAllocateMemoryWithTag" [ out; 128; 99 ]);
  let addr = read_u32 out in
  check_bool "heap addr" true (addr >= Ddt_dvm.Layout.heap_base);
  check_int "free ok" 0 (call "NdisFreeMemory" [ addr; 128; 0 ]);
  (match call "NdisFreeMemory" [ addr; 128; 0 ] with
   | exception Bugcheck.Bugcheck (Bugcheck.Verifier_detected, _) -> ()
   | _ -> Alcotest.fail "double free must bugcheck")

let test_passive_only_at_dispatch_crashes () =
  let ks = fresh_ks () in
  let _, call, _, _, _ = concrete_mach ks in
  Kstate.set_irql ks Kstate.dispatch_level;
  (match call "NdisOpenConfiguration" [ 0x5000 ] with
   | exception Bugcheck.Bugcheck (Bugcheck.Irql_not_less_or_equal, _) -> ()
   | _ -> Alcotest.fail "expected IRQL bugcheck")

let test_miniport_registration () =
  let ks = fresh_ks () in
  let _, call, write_u32, _, _ = concrete_mach ks in
  let chars = 0x6000 in
  List.iteri
    (fun i addr -> write_u32 (chars + (4 * i)) addr)
    [ 0x400100; 0x400200; 0x400300; 0x400400; 0x400500; 0x400600; 0x400700; 0 ];
  check_int "register ok" 0 (call "NdisMRegisterMiniport" [ chars ]);
  check_bool "initialize" true
    (Kstate.entry_point ks "initialize" = Some 0x400100);
  check_bool "halt" true (Kstate.entry_point ks "halt" = Some 0x400700);
  check_bool "no reset" true (Kstate.entry_point ks "reset" = None);
  check_int "set attributes" 0 (call "NdisMSetAttributes" [ 0xABCD ]);
  check_int "driver ctx" 0xABCD (Kstate.driver_ctx ks);
  check_int "register interrupt" 0 (call "NdisMRegisterInterrupt" [ 9 ]);
  check_bool "isr live" true (Kstate.isr_registered ks)

let test_memory_utilities () =
  let ks = fresh_ks () in
  let _, call, write_u32, read_u32, write_u8 = concrete_mach ks in
  let a = Kstate.heap_alloc ks ~size:32 ~kind:Kstate.Pool ~tag:0 in
  let b = Kstate.heap_alloc ks ~size:32 ~kind:Kstate.Pool ~tag:0 in
  let src = a.Kstate.a_addr and dst = b.Kstate.a_addr in
  write_u32 src 0xAABBCCDD;
  write_u8 (src + 4) 0x7F;
  check_int "move ok" 0 (call "NdisMoveMemory" [ dst; src; 8 ]);
  check_int "copied word" 0xAABBCCDD (read_u32 dst);
  check_int "zero ok" 0 (call "NdisZeroMemory" [ dst; 8 ]);
  check_int "zeroed" 0 (read_u32 dst);
  check_int "equal after zeroing both" 1
    (let _ = call "NdisZeroMemory" [ src; 8 ] in
     call "NdisEqualMemory" [ src; dst; 8 ]);
  (* Out-of-bounds request: the checked kernel bugchecks. *)
  (match call "NdisMoveMemory" [ dst; src; 64 ] with
   | exception Bugcheck.Bugcheck (Bugcheck.Verifier_detected, _) -> ()
   | _ -> Alcotest.fail "overlong copy must bugcheck")

let test_shared_memory () =
  let ks = fresh_ks () in
  let _, call, _, read_u32, _ = concrete_mach ks in
  let va_out = 0x5000 and pa_out = 0x5004 in
  check_int "alloc ok" 0
    (call "NdisMAllocateSharedMemory" [ va_out; pa_out; 256 ]);
  let va = read_u32 va_out in
  check_int "va = pa in this machine" va (read_u32 pa_out);
  check_int "tracked as a resource" 1 (List.length (Kstate.live_allocs ks));
  check_int "free ok" 0 (call "NdisMFreeSharedMemory" [ va ]);
  check_int "released" 0 (List.length (Kstate.live_allocs ks))

let test_packet_and_buffer_pools () =
  let ks = fresh_ks () in
  let _, call, _, read_u32, _ = concrete_mach ks in
  let out = 0x5000 in
  check_int "packet pool" 0 (call "NdisAllocatePacketPool" [ out; 16 ]);
  let pool = read_u32 out in
  check_int "packet" 0 (call "NdisAllocatePacket" [ out; pool ]);
  let pkt = read_u32 out in
  check_bool "packet memory granted" true
    (Kstate.region_containing ks pkt <> None);
  check_int "free packet" 0 (call "NdisFreePacket" [ pkt ]);
  check_int "free pool" 0 (call "NdisFreePacketPool" [ pool ]);
  (match call "NdisAllocatePacket" [ out; pool ] with
   | exception Bugcheck.Bugcheck (Bugcheck.Bad_handle, _) -> ()
   | _ -> Alcotest.fail "allocation from a freed pool must bugcheck")

let test_map_io_and_pci_slot () =
  let ks = fresh_ks () in
  let _, call, _, read_u32, _ = concrete_mach ks in
  let out = 0x5000 in
  check_int "map ok" 0 (call "NdisMMapIoSpace" [ out; 0 ]);
  let bar = read_u32 out in
  check_int "bar address" Ddt_dvm.Layout.mmio_base bar;
  check_bool "mmio granted" true (Kstate.region_containing ks bar <> None);
  (* PCI config space through the kernel. *)
  let buf = 0x5100 in
  check_int "read 2 bytes" 2
    (call "NdisReadPciSlotInformation" [ 0; buf; 2 ]);
  let _, _, _, read_u32', _ = concrete_mach ks in
  ignore read_u32';
  ()

let test_usb_descriptor_and_urbs () =
  Usb.install ();
  let ks = fresh_ks () in
  let _, call, write_u32, read_u32, _ = concrete_mach ks in
  (* Enumeration descriptor. *)
  let buf = 0x5000 in
  check_int "descriptor length" 18 (call "UsbGetDeviceDescriptor" [ buf; 18 ]);
  let bytes = Usb.descriptor_bytes Usb.default_descriptor in
  check_int "bLength" bytes.(0) 18;
  (* OUT transfer: reports full length, discards data. *)
  let a = Kstate.heap_alloc ks ~size:64 ~kind:Kstate.Pool ~tag:0 in
  let urb = Kstate.scratch_alloc ks ~size:32 ~note:"urb" in
  write_u32 (urb + 0) 2;                 (* endpoint *)
  write_u32 (urb + 4) 0;                 (* OUT *)
  write_u32 (urb + 8) a.Kstate.a_addr;
  write_u32 (urb + 12) 64;
  check_int "submit ok" 0 (call "UsbSubmitUrb" [ urb ]);
  check_int "status success" 0 (read_u32 (urb + 16));
  check_int "actual = requested for OUT" 64 (read_u32 (urb + 20));
  (* Unowned buffer bugchecks. *)
  write_u32 (urb + 8) 0x123456;
  (match call "UsbSubmitUrb" [ urb ] with
   | exception Bugcheck.Bugcheck (Bugcheck.Verifier_detected, _) -> ()
   | _ -> Alcotest.fail "unowned transfer buffer must bugcheck");
  (* Interrupt endpoint registration behaves like an ISR. *)
  check_int "register ok" 0
    (call "UsbRegisterInterruptEndpoint" [ 1; 0x400100; 77 ]);
  check_bool "isr live" true (Kstate.isr_registered ks);
  check_bool "handler recorded" true
    (Kstate.entry_point ks "isr" = Some 0x400100);
  check_int "isr ctx" 77 (Intr.isr_ctx ks);
  (match call "UsbRegisterInterruptEndpoint" [ 1; 0; 0 ] with
   | exception Bugcheck.Bugcheck (Bugcheck.Null_handler, _) -> ()
   | _ -> Alcotest.fail "null handler must bugcheck")

let test_pci_config_space () =
  let dev = device () in
  check_int "vendor lo" 0xEC (Pci.read_config dev 0);
  check_int "vendor hi" 0x10 (Pci.read_config dev 1);
  check_int "device lo" 0x29 (Pci.read_config dev 2);
  check_int "irq line" 9 (Pci.read_config dev 0x3C);
  (* BAR 0 was assigned at mmio_base. *)
  let bar0 =
    Pci.read_config dev 0x10
    lor (Pci.read_config dev 0x11 lsl 8)
    lor (Pci.read_config dev 0x12 lsl 16)
    lor (Pci.read_config dev 0x13 lsl 24)
  in
  check_int "bar0" Ddt_dvm.Layout.mmio_base bar0

let test_kstate_copy_isolation () =
  let ks = fresh_ks () in
  Kstate.init_lock ks 0x1000;
  let a = Kstate.heap_alloc ks ~size:8 ~kind:Kstate.Pool ~tag:0 in
  let ks2 = Kstate.copy ks in
  Kstate.acquire_lock ks2 0x1000 ~dpr:false;
  Kstate.free_alloc ks2 (Option.get (Kstate.alloc_of_addr ks2 a.Kstate.a_addr));
  check_bool "original lock free" true
    ((Option.get (Kstate.lock_at ks 0x1000)).Kstate.l_held = false);
  check_int "original alloc live" 1 (List.length (Kstate.live_allocs ks));
  check_int "copy alloc freed" 0 (List.length (Kstate.live_allocs ks2))

let () =
  Alcotest.run "ddt_kernel"
    [ ("allocation",
       [ Alcotest.test_case "alloc/free" `Quick test_alloc_free;
         Alcotest.test_case "red zones" `Quick test_red_zone;
         Alcotest.test_case "invocation ledger" `Quick test_invocation_ledger ]);
      ("locks",
       [ Alcotest.test_case "irql discipline" `Quick test_lock_irql_discipline;
         Alcotest.test_case "stale irql on wrong release" `Quick
           test_dpr_release_restores_stale_irql;
         Alcotest.test_case "release unheld bugchecks" `Quick
           test_release_unheld_bugchecks ]);
      ("timers",
       [ Alcotest.test_case "uninitialized timer" `Quick
           test_uninitialized_timer_bugchecks ]);
      ("interrupts",
       [ Alcotest.test_case "isr/dpc protocol" `Quick test_interrupt_protocol;
         Alcotest.test_case "dpc deferred at dispatch" `Quick
           test_dpc_deferred_at_dispatch ]);
      ("apis",
       [ Alcotest.test_case "configuration" `Quick test_ndis_config_apis;
         Alcotest.test_case "allocation" `Quick test_ndis_alloc_apis;
         Alcotest.test_case "irql enforcement" `Quick
           test_passive_only_at_dispatch_crashes;
         Alcotest.test_case "miniport registration" `Quick
           test_miniport_registration;
         Alcotest.test_case "memory utilities" `Quick test_memory_utilities;
         Alcotest.test_case "shared memory" `Quick test_shared_memory;
         Alcotest.test_case "packet/buffer pools" `Quick
           test_packet_and_buffer_pools;
         Alcotest.test_case "map io + pci slot" `Quick test_map_io_and_pci_slot;
         Alcotest.test_case "usb descriptors and urbs" `Quick
           test_usb_descriptor_and_urbs;
         Alcotest.test_case "pci config space" `Quick test_pci_config_space;
         Alcotest.test_case "copy isolation" `Quick test_kstate_copy_isolation ]) ]
