(** A symbolic execution state: conceptually a complete system snapshot
    (§4.1.2) — CPU registers holding expressions, copy-on-write symbolic
    memory, the path condition, a forked copy of the kernel state, the
    stack of pending interrupt continuations, and the execution trace. *)

module Expr = Ddt_solver.Expr

module Pages : Set.S with type elt = int
(** Sets of 4 KiB page base addresses. *)

type crash = {
  c_code : string;
  c_msg : string;
  c_pc : int;
}

type status =
  | Returned of int            (** invocation finished; concretized r0 *)
  | Crashed of crash
  | Discarded of string
  | Exhausted                  (** step budget or fuel ran out *)

(** Saved CPU context for nested (interrupt) driver invocations. *)
type saved_ctx = {
  s_regs : Expr.t array;
  s_pc : int;
  s_int : bool;
}

type post_action =
  | Pa_after_isr of saved_ctx * int    (** saved context, saved IRQL *)
  | Pa_after_dpc of saved_ctx * int
  | Pa_after_timer of saved_ctx * int

(** An open merge token this state is committed to: when the state
    reaches [mt_pc] (its branch's reconvergence point), it reports to
    the merge pool ({!Merge}) instead of executing on. Forking under an
    open token commits both children, so a state carries a stack of
    tags — innermost (most recently opened) token first. *)
type merge_tag = {
  mt_token : int;
  mt_pc : int;
}

type t = {
  id : int;
  depth : int;
  (** 1 for a root state, the parent's depth + 1 for a fork child: its
      depth in the execution tree of fork successors (§3.5) *)
  regs : Expr.t array;
  mutable pc : int;
  mutable int_enabled : bool;
  mem : Symmem.t;
  mutable constraints : Expr.t list;
  ks : Ddt_kernel.Kstate.t;
  mutable pending : post_action list;
  mutable trace : Ddt_trace.Event.t list;       (** newest first *)
  mutable mem_accesses : int;
  (** loads and stores the driver executed on this path ([Ldw], [Ldb],
      [Stw], [Stb]; not pushes, pops or kernel accesses); copied to
      children on fork *)
  mutable touched_pages : Pages.t;
  (** pages of those accesses whose address simplified to a constant
      outside the device's ranges: the pages a crash dump holds; copied
      to children on fork. A merge survivor keeps its own count and
      pages, as it keeps its own [trace]. *)
  mutable choices : (string * string) list;     (** annotation decisions *)
  mutable sym_inputs : (Expr.var * string) list;
  mutable injections : int;
  mutable injected_sites : int list;
  mutable steps : int;
  mutable last_block : int;
  (** absolute address of the last basic-block leader this state executed
      (0 before the first); copied to children on fork. The scheduler
      keys the state by it. *)
  mutable status : status option;
  mutable entry_name : string;
  mutable replay_inputs : (string * int) list;
  (** replay mode: pending (name, value) pins, oldest first *)
  mutable replay_choices : (string * string) list;
  (** replay mode: pending (api, alternative) decisions, oldest first *)
  mutable tags : merge_tag list;
  (** open merge tokens, innermost first; shared structurally with
      children on fork (the engine tells the pool about the new carrier
      via {!Merge.note_fork}) *)
}

val create : id:int -> mem:Symmem.t -> ks:Ddt_kernel.Kstate.t -> t
val fork : t -> id:int -> t
(** A child one level deeper than its parent, with copies of its
    registers, memory and kernel state. *)

val record : t -> Ddt_trace.Event.t -> unit
(** Prepend an event to [trace]. *)
val add_constraint : t -> Expr.t -> unit
val reg_get : t -> int -> Expr.t
val reg_set : t -> int -> Expr.t -> unit
val terminated : t -> bool
