(** The DVM physical memory map shared by the loader, kernel and engines. *)

val image_base : int        (** driver image (text+data+bss) load address *)
val heap_base : int         (** kernel pool allocations handed to the driver *)
val heap_limit : int
val stack_top : int         (** initial [sp]; the stack grows down *)
val stack_limit : int       (** lowest legal stack address *)
val kernel_base : int       (** kernel-owned objects (opaque handles) *)
val mmio_base : int         (** device BARs are allocated from here *)
val return_sentinel : int
(** Pseudo return address pushed by the engines when the kernel invokes a
    driver function; a [Ret] to this address ends the nested invocation. *)

val null_guard : int
(** Addresses below this fault as null-pointer dereferences. *)
