(** The AMD PCNet-alike NIC driver, carrying its two Table 2 bugs:

    + memory allocated with [NdisAllocateMemoryWithTag] (the receive ring)
      is never freed, not even by Halt;
    + packets and buffers (and their pools) are not freed when a later
      step of initialization fails.

    The fixed variant releases everything on both paths. *)

val image : unit -> Ddt_dvm.Image.t
val fixed_image : unit -> Ddt_dvm.Image.t
val registry : (string * int) list
val descriptor : Ddt_kernel.Pci.descriptor
