(** Fully symbolic hardware (§3.3, §4.1.4 of the paper).

    A symbolic device ignores all writes to its registers and produces a
    fresh unconstrained symbolic value for every read. The symbolic engine
    consults {!is_device_addr}/{!fresh_read}. The stress baseline instead
    maps {!concrete_mmio} into base memory, which replaces the symbolic
    reads with seeded pseudo-random values; replay keeps the symbolic
    reads and pins each one to its recorded value.

    Every RAM access of the symbolic engine asks whether it touches the
    device, so the test is cheap: {!create} records the hull of the BARs
    (lowest start, highest end) and an address outside it is answered
    with two comparisons, without a BAR scan or an allocation. *)

type t

val create : Ddt_kernel.Pci.assigned -> t

val device : t -> Ddt_kernel.Pci.assigned
val is_device_addr : t -> int -> bool
(** Is the byte at this address inside a BAR? An address below the
    lowest BAR or at or above the highest BAR end is rejected with two
    comparisons; neither test allocates. *)

val overlaps_device : t -> int -> int -> bool
(** [overlaps_device t addr len]: does any byte of [addr, addr + len)
    lie inside a BAR? [Symmem]'s word path asks it with [len = 4] to
    decide whether a word may bypass the per-byte device check. *)

val fresh_read : t -> int -> Ddt_solver.Expr.t
(** A fresh symbolic byte for a device-register read; names encode the
    register offset so traces show provenance ("hw_bar0+0x04"). *)

(** {1 Concrete stand-ins} *)

type concrete_mode = Random of int  (** seed *)

val concrete_mmio : t -> concrete_mode -> Ddt_dvm.Mem.mmio list
(** One MMIO region per BAR, each read a seeded pseudo-random byte.
    Writes are discarded. *)
