(** The Intel 82801AA AC'97-alike audio driver. Carries its single
    Table 2 bug: during playback, the interrupt handler dereferences a
    position pointer that the Play path publishes only after starting the
    stream — an interrupt in that window causes a BSOD. *)

val image : unit -> Ddt_dvm.Image.t
val fixed_image : unit -> Ddt_dvm.Image.t
val registry : (string * int) list
val descriptor : Ddt_kernel.Pci.descriptor
