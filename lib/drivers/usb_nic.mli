(** A USB network adapter driver — the extension corpus entry exercising
    the mini-USB bus (the paper's §6.1 "no USB support" limitation,
    lifted here).

    Seeded bugs:
    + the receive completion handler trusts the device-reported actual
      transfer length and uses it to index a fixed-size ring slot
      (memory corruption — the USB twin of the RTL8029 registry bug);
    + the interrupt-endpoint completion handler runs against state that
      initialization publishes only after registering it (race). *)

val image : unit -> Ddt_dvm.Image.t
val fixed_image : unit -> Ddt_dvm.Image.t
