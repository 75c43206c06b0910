(** The RTL8029-alike NE2000-class NIC driver (smallest driver of
    Table 1), carrying its five Table 2 bugs:

    + missing [NdisCloseConfiguration] when initialization fails
      (resource leak);
    + no range check on the [MaximumMulticastList] registry parameter,
      later used as an array index (memory corruption);
    + interrupt arriving before timer initialization passes an
      uninitialized timer object to the kernel (race → BSOD);
    + unexpected OID in QueryInformation dereferences a never-initialized
      handler pointer (segfault);
    + the same in SetInformation (segfault).

    [fixed_image] repairs all five — DDT must report nothing on it. *)

val image : unit -> Ddt_dvm.Image.t
val fixed_image : unit -> Ddt_dvm.Image.t
val registry : (string * int) list
val descriptor : Ddt_kernel.Pci.descriptor
