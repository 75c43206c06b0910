(** Disassembler for DXE images: linear sweep over the text section. *)

val disassemble : Image.t -> (int * Isa.instr) list
(** Every [(image-relative offset, instruction)] the linear sweep
    decodes. *)

val unreached_gaps : Image.t -> reached:(int -> bool) -> (int * int) list
(** [(offset, length)] byte runs of the text section whose instruction
    slots the [reached] predicate rejects — used with a recursive-descent
    reachability set to report data-in-text and dead bytes that a plain
    linear sweep would count as code. A trailing partial slot (shorter
    than one instruction) is always a gap. *)

val pp_listing : Format.formatter -> Image.t -> unit
(** Human-readable listing with function labels interleaved; undecodable
    runs print as [<N byte(s) of non-code>]. *)
