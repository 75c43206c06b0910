(** Concrete byte-addressed memory with MMIO hooks.

    Backed by 4 KiB pages allocated on demand. MMIO regions divert
    accesses to device callbacks (byte granularity); everything else is
    plain RAM. The concrete interpreter ({!Interp}) runs on it directly;
    the symbolic engine layers its copy-on-write store over it. *)

type t

val create : unit -> t

val read_u8 : t -> int -> int
val write_u8 : t -> int -> int -> unit
val read_u32 : t -> int -> int
val write_u32 : t -> int -> int -> unit

val load_bytes : t -> int -> bytes -> unit
val read_bytes : t -> int -> int -> bytes

type mmio = {
  mmio_start : int;
  mmio_size : int;
  mmio_read : int -> int;          (** byte offset within region -> byte *)
  mmio_write : int -> int -> unit; (** byte offset, byte value *)
}

val add_mmio : t -> mmio -> unit
val find_mmio : t -> int -> mmio option

val iter_pages : t -> (int -> bytes -> unit) -> unit
(** For crash dumps: iterate (page_base, contents) over allocated pages. *)
