(** The Intel Pro/100 (DDK sample) NIC driver. Carries its Table 2 bug:
    the deferred procedure call (DPC) routine releases a spinlock it
    acquired with [NdisDprAcquireSpinLock] using plain
    [NdisReleaseSpinLock] — prohibited by the API contract because it
    restores a stale IRQL and can hang or crash the kernel. *)

val image : unit -> Ddt_dvm.Image.t
val fixed_image : unit -> Ddt_dvm.Image.t
val registry : (string * int) list
val descriptor : Ddt_kernel.Pci.descriptor
