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
val of_bytes : bytes -> t
(** Checks each register and page count against the bytes left before
    allocating for it. @raise Failure on malformed input. *)

val find_u32 : t -> int -> int option
(** Read a 32-bit word out of the dumped pages. *)

val pp_summary : Format.formatter -> t -> unit
