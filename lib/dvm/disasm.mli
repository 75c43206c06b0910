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

val basic_block_starts : Image.t -> int list
(** Image-relative offsets of basic-block leaders: function entries,
    branch targets, and fall-throughs after branches/calls/returns. Used
    for the coverage accounting of Figures 2 and 3. This is the {e linear
    sweep} universe; [Ddt_staticx.Icfg] refines it to the statically
    reachable subset. Computed once per image value. *)
