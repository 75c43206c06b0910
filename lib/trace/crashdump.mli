(** Crash dumps: a binary snapshot of the failed machine state, the
    WinDbg-crash-dump analog of §3.5. Contains the program counter,
    register file, a note describing the failure, and the touched memory
    pages. *)

type t = {
  d_pc : int;
  d_regs : int array;
  d_note : string;
  d_pages : (int * bytes) list;   (** (base address, 4 KiB contents) *)
}

val to_bytes : t -> bytes
(** The on-disk format, all integers 32-bit little-endian: the magic
    ["DDMP"], [d_pc], the register count and registers, the note's
    length and bytes, then the page count and, per page, its base,
    length and contents. *)

