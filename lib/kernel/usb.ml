type descriptor = {
  u_vendor : int;
  u_product : int;
  u_class : int;
  u_max_packet : int;
  u_num_endpoints : int;
}

let default_descriptor =
  { u_vendor = 0x0BDA; u_product = 0x8150; u_class = 0xFF; u_max_packet = 64;
    u_num_endpoints = 3 }

let descriptor_bytes d =
  [| 18;                        (* bLength *)
     1;                         (* bDescriptorType: DEVICE *)
     0x00; 0x02;                (* bcdUSB 2.0 *)
     d.u_class;                 (* bDeviceClass *)
     0;                         (* bDeviceSubClass *)
     0;                         (* bDeviceProtocol *)
     d.u_max_packet;            (* bMaxPacketSize0 *)
     d.u_vendor land 0xFF; (d.u_vendor lsr 8) land 0xFF;
     d.u_product land 0xFF; (d.u_product lsr 8) land 0xFF;
     0x00; 0x01;                (* bcdDevice *)
     1; 2; 0;                   (* string indexes *)
     d.u_num_endpoints |]

let status_success = 0
let status_stall = 1

let usb_get_device_descriptor _ks (m : Mach.t) =
  let buf = m.Mach.arg 0 in
  let len = m.Mach.arg 1 in
  let bytes = descriptor_bytes default_descriptor in
  let n = min len (Array.length bytes) in
  for i = 0 to n - 1 do
    m.Mach.write_u8 (buf + i) bytes.(i)
  done;
  m.Mach.set_ret n

let urb_endpoint = 0
let urb_direction = 4
let urb_buffer = 8
let urb_length = 12
let urb_status = 16
let urb_actual = 20

let usb_submit_urb ks (m : Mach.t) =
  let urb = m.Mach.arg 0 in
  let endpoint = m.Mach.read_u32 (urb + urb_endpoint) in
  let direction = m.Mach.read_u32 (urb + urb_direction) in
  let buffer = m.Mach.read_u32 (urb + urb_buffer) in
  let length = m.Mach.read_u32 (urb + urb_length) in
  if length > 4096 then
    Bugcheck.crash Bugcheck.Verifier_detected
      "UsbSubmitUrb: transfer length %d exceeds the pipe maximum" length;
  (match Kstate.region_containing ks buffer with
   | None when length > 0 ->
       Bugcheck.crash Bugcheck.Verifier_detected
         "UsbSubmitUrb: transfer buffer 0x%x is not owned by the driver"
         buffer
   | _ -> ());
  if direction = 1 then begin
    (* IN transfer: fully symbolic hardware — every byte of the payload
       and the actual-length are unconstrained device outputs. *)
    for i = 0 to length - 1 do
      m.Mach.write_expr_u8 (buffer + i)
        (m.Mach.fresh_symbolic
           (Printf.sprintf "usb_ep%d[%d]" endpoint i)
           Ddt_solver.Expr.W8)
    done;
    let actual =
      m.Mach.fresh_symbolic
        (Printf.sprintf "usb_ep%d_len" endpoint)
        Ddt_solver.Expr.W32
    in
    (* The bus guarantees no more than the requested length was
       transferred — but nothing more (short packets are normal). *)
    m.Mach.assume
      (Ddt_solver.Expr.cmp Ddt_solver.Expr.Leu actual
         (Ddt_solver.Expr.word length));
    m.Mach.write_expr_u32 (urb + urb_actual) actual
  end
  else
    (* OUT transfer: the symbolic device discards writes. *)
    m.Mach.write_u32 (urb + urb_actual) length;
  m.Mach.write_u32 (urb + urb_status) status_success;
  m.Mach.set_ret status_success

let usb_register_interrupt_endpoint ks (m : Mach.t) =
  let _endpoint = m.Mach.arg 0 in
  let handler = m.Mach.arg 1 in
  let ctx = m.Mach.arg 2 in
  if handler = 0 then
    Bugcheck.crash Bugcheck.Null_handler
      "UsbRegisterInterruptEndpoint: null completion handler";
  Kstate.set_entry_point ks "isr" handler;
  Kstate.set_entry_point ks "isr_ctx" ctx;
  Kstate.set_isr_registered ks true;
  m.Mach.set_ret status_success

let usb_unregister_interrupt_endpoint ks (m : Mach.t) =
  Kstate.set_isr_registered ks false;
  m.Mach.set_ret status_success

let installed = ref false

let install () =
  if not !installed then begin
    installed := true;
    List.iter
      (fun (name, impl) -> Kapi.register name impl)
      [ ("UsbGetDeviceDescriptor", usb_get_device_descriptor);
        ("UsbSubmitUrb", usb_submit_urb);
        ("UsbRegisterInterruptEndpoint", usb_register_interrupt_endpoint);
        ("UsbUnregisterInterruptEndpoint", usb_unregister_interrupt_endpoint) ]
  end

let _ = status_stall
