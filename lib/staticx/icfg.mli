(** Sound interprocedural CFG over a DXE image.

    Construction is recursive-descent disassembly seeded from the image
    entry point, declared function symbols, and the address-taken code
    targets of the {!Vsa} pass (which is how interrupt / DPC / miniport
    handlers registered through data tables are found). Plain exported
    labels are not seeds — the assembler exports every label, and seeding
    mid-block labels would split blocks at points no control transfer
    reaches.
    The reachable leaders ({!field:t.universe}) are the one block
    universe: the symbolic engine keys coverage and scheduling on them,
    sessions report coverage against them, and the static baseline's
    CFG uses these blocks.
    The linear sweep of [Ddt_dvm.Disasm] is used only to report the text
    bytes no descent path reaches ({!field:t.gaps}), so data-in-text never
    inflates the block universe.

    Soundness assumptions (documented in DESIGN.md):
    - instructions are fixed-size and non-overlapping, so descent and
      sweep agree on boundaries;
    - every address-taken code value is a relocation slot (the assembler
      and Mini-C compiler guarantee this: code addresses only arise from
      [lea] and relocated data words), hence the VSA target set
      over-approximates every [callr] target;
    - [kcall] transfers to the kernel and returns to the next instruction
      (kernel APIs that re-enter the driver do so through registered
      handlers, which are address-taken and therefore seeds). *)

type term =
  | T_fall              (** runs into the next leader *)
  | T_jmp of int
  | T_branch of int     (** conditional: target, plus fall-through *)
  | T_call of int       (** direct call; continues at fall-through *)
  | T_callr of int list (** indirect call: conservative target set *)
  | T_ret
  | T_stop              (** [hlt], or an undecodable instruction *)

type block = {
  bb_start : int;                      (** image-relative leader *)
  bb_instrs : (int * Ddt_dvm.Isa.instr) list;  (** in address order *)
  bb_term : term;
  bb_succs : int list;                 (** intra-procedural successor leaders *)
  bb_calls : int list;                 (** callee entry offsets (direct + indirect) *)
  bb_kcalls : (int * string) list;     (** [(instr offset, import name)] *)
}

type func = {
  fn_entry : int;
  fn_name : string;
  fn_blocks : int list;                (** sorted leaders, entry included *)
  fn_rets : int list;                  (** leaders of blocks ending in [ret] *)
}

type t = {
  image : Ddt_dvm.Image.t;
  vsa : Vsa.t;
  blocks : (int, block) Hashtbl.t;
  universe : int list;           (** sorted leaders of all reachable blocks *)
  funcs : func list;             (** sorted by entry *)
  seeds : int list;              (** sorted descent seeds *)
  call_graph : (int * int list) list;
  (** [(function entry, sorted callee entries)], sorted by caller *)
  leader_of : (int, int) Hashtbl.t;
  (** reached instruction offset -> its block's leader *)
  gaps : (int * int) list;       (** unreached text byte runs, sorted *)
  n_instrs : int;                (** reached instruction count *)
}

val build : Ddt_dvm.Image.t -> t
(** Deterministic: equal images produce structurally equal results. *)

val block : t -> int -> block option
(** Look up a block by leader offset. *)

val func_of_block : t -> int -> func option
(** The function a reachable leader belongs to. *)

val pp : Format.formatter -> t -> unit
(** Deterministic human-readable summary (functions, blocks, call graph,
    gaps). *)
