(** DXE — the DVM executable image format.

    A DXE image is what a "closed-source binary driver" is in this system:
    text and data sections, an entry point, an import table naming the
    kernel API functions the driver calls, exported symbols, and a
    relocation list. Drivers are shipped, loaded and tested in this form
    only; the testing stack never sees their source.

    Addresses inside an image are image-relative; {!load} rebases them. *)

type t = {
  name : string;
  text : bytes;                (** executable section *)
  data : bytes;                (** initialized data (includes zeroed space) *)
  bss_size : int;
  entry : int;                 (** image-relative entry offset *)
  imports : string array;      (** [Kcall n] calls [imports.(n)] *)
  exports : (string * int) list;
  relocs : int list;           (** image-relative offsets of 32-bit address
                                   fields to be rebased at load time *)
  funcs : (string * int) list; (** function symbols, for image statistics *)
}

type loaded = {
  image : t;
  base : int;
  text_start : int;
  text_end : int;              (** exclusive *)
  data_start : int;
  data_end : int;              (** exclusive; covers data + bss *)
  code : Isa.instr option array;
  (** decode-once instruction array, one slot per [Isa.instr_size] bytes
      of text, built from the {e relocated} bytes at load time. [None]
      marks an undecodable slot (data in text). Shared by the concrete
      interpreter and the symbolic engine — replaces the per-consumer
      decode caches. *)
}

val load : t -> Mem.t -> base:int -> loaded
(** Copies sections into memory at [base] and patches relocations. The
    relocations are applied to a private copy of text + data, which is
    blitted into memory page by page and from which [code] is decoded.
    @raise Invalid_argument if a relocated field is not inside text +
    data, which {!of_bytes} and the assembler rule out. *)

val code_array : t -> Isa.instr option array
(** Pre-load sibling of {!field-loaded.code}: the {e unrelocated} text
    decoded once per image (address immediates stay image-relative).
    Memoized per image value, so the linear sweep and the
    interprocedural ICFG index one shared array instead of
    re-decoding the text section. Do not mutate the result. *)

val memoize : (t -> 'a) -> t -> 'a
(** [memoize f] computes [f img] once per image value (compared
    physically) and keeps the result for as long as the image lives. *)

val export_addr : loaded -> string -> int
(** Absolute address of an exported symbol. @raise Not_found *)


(** {1 Serialization} — the on-disk binary form. *)

val to_bytes : t -> bytes
val of_bytes : bytes -> t
(** Checks every count against the bytes left before allocating for it,
    bounds text + data + bss by the image window
    ([Layout.heap_base - Layout.image_base]), and requires the entry and
    every function to lie in text, every export in the image, and every
    relocated 32-bit field in text + data.
    @raise Failure on a malformed image. *)

(** {1 Statistics} (Table 1 of the paper) *)

type stats = {
  binary_size : int;           (** size of the serialized image *)
  code_size : int;             (** text section size *)
  num_functions : int;
  num_kernel_imports : int;
}

val stats : t -> stats
