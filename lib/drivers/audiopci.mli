(** The Ensoniq AudioPCI-alike sound-card driver (portcls/WDM class),
    carrying its four Table 2 bugs:

    + crash when [ExAllocatePoolWithTag] returns NULL: the driver checks
      the result, but a later error-handling path uses the null pointer
      anyway;
    + crash when [PcNewInterruptSync] fails: the error path dereferences
      the (null) sync object;
    + race condition in the initialization routine: the ISR is live
      before the DMA buffer it touches unconditionally is set up;
    + race conditions with interrupts while playing audio: playback state
      is published to the ISR before the current-buffer pointer is set. *)

val image : unit -> Ddt_dvm.Image.t
val fixed_image : unit -> Ddt_dvm.Image.t
val registry : (string * int) list
val descriptor : Ddt_kernel.Pci.descriptor
