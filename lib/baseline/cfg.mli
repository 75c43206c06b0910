(** Control-flow graphs over DXE binaries, for the static-analysis
    baseline.

    Functions are delimited by the image's function symbols, each
    extending to the next symbol. Basic blocks are the reachable blocks
    of {!Ddt_staticx.Icfg} that start inside the function; successors
    stay inside it (calls, direct or indirect, are plain instructions,
    and flow leaving the extent is an exit). Because the input is a binary,
    call arguments are recovered syntactically: the analyzer walks
    backwards from the [push] that set up argument 0 and recognizes the
    compiler's addressing idioms ("base + constant offset" for lock/ctx
    fields, frame-slot loads for locals). This token recovery is exactly
    the kind of brittleness that makes static analysis of binaries hard —
    which the paper leans on when motivating DDT. *)

type token =
  | Tok_offset of int       (** context-relative constant offset *)
  | Tok_local of int        (** frame-slot offset *)
  | Tok_unknown

type kcall_site = {
  kc_name : string;         (** imported kernel API *)
  kc_arg0 : token;
  kc_pos : int;             (** image-relative offset *)
}

type block = {
  b_start : int;                       (** image-relative offset *)
  b_instrs : (int * Ddt_dvm.Isa.instr) list;
  b_kcalls : kcall_site list;          (** in order *)
  b_succs : int list;                  (** successor block starts *)
  b_is_exit : bool;
  (** ends in [ret]/[hlt], or flows out of the function *)
}

type func = {
  f_name : string;
  f_start : int;
  f_blocks : (int, block) Hashtbl.t;
  f_entry : int;
}

val build : Ddt_dvm.Image.t -> func list
