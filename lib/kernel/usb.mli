(** Mini-USB bus support — lifting the paper's §6.1 limitation ("DDT does
    not yet support USB ... this can be overcome by extending QEMU").

    USB devices have no MMIO: all device I/O goes through URBs (USB
    request blocks) submitted to the bus driver. That makes USB a pure
    kernel-API surface, which suits DDT even better than PCI: symbolic
    hardware is implemented by the bus itself — every IN transfer fills
    the driver's buffer with fresh symbolic bytes, and OUT transfers are
    discarded. The "shell" of §4.2 is the 18-byte device descriptor the
    enumeration returns.

    URB layout (word offsets): +0 endpoint, +4 direction (0 OUT / 1 IN),
    +8 buffer, +12 requested length, +16 status (out), +20 actual length
    (out). APIs:
    - [UsbGetDeviceDescriptor (buf, len)] — copy the enumeration
      descriptor;
    - [UsbSubmitUrb (urb)] — perform a transfer synchronously;
    - [UsbRegisterInterruptEndpoint (endpoint, handler, ctx)] — attach a
      completion handler, enabling symbolic interrupt injection exactly
      like a PCI ISR. *)

type descriptor = {
  u_vendor : int;
  u_product : int;
  u_class : int;
  u_max_packet : int;
  u_num_endpoints : int;
}

val default_descriptor : descriptor
(** The descriptor every enumeration returns. *)

val descriptor_bytes : descriptor -> int array
(** The 18-byte standard device descriptor. *)

val install : unit -> unit
(** Register the USB APIs with {!Kapi}. Idempotent. *)
