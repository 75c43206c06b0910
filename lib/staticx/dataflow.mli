(** Interprocedural, flow-sensitive dataflow framework over the {!Icfg}.

    Layer 1, the {e value pre-pass} ({!analyze}): a per-function Kildall
    fixpoint recovering, in terms of symbolic incoming arguments, the
    abstract machine state at every block — registers, frame slots, the
    operand stack, and the set of globals tested nonzero on this path
    (branch guards, including ones flowing through the Mini-C compiler's
    short-circuit [&&] bool merges via per-value implication sets).  Its
    stabilized output is a per-block {e event stream}: kernel calls with
    recovered argument values, loads and stores with recovered
    addresses, each carrying the guard set in force.

    Layer 2, the {e client fixpoint} ({!Make}): a context-tabulated
    interprocedural worklist over a client join-semilattice.  The client
    domain only sees events; call/return plumbing — bottom-up function
    summaries, context widening beyond a cap, dependency re-enqueueing
    when a summary improves — is owned by the framework, which is what
    makes further checker rules drop-in ({!Lockirql}, {!Racepair} are
    the first two instances).

    Soundness boundary (see DESIGN.md): stores through non-global
    pointers are assumed not to alias driver globals (globals are only
    addressed via [lea]); kernel calls write driver memory only through
    pointer arguments. *)

(** {1 Abstract values} *)

type base =
  | Bconst                 (** pure constant; the value is [disp] *)
  | Bimage                 (** image-relative address [disp] *)
  | Bglobal of int         (** value loaded from data word at offset g *)
  | Barg of int            (** i-th incoming argument of this function *)
  | Bframe                 (** frame address fp+[disp] ([disp] signed) *)
  | Btop

type av = {
  base : base;
  disp : int;
  nz : int list option;
  (** "if this value is nonzero, each listed global was tested nonzero";
      [None] is the universal (vacuous) set — the value cannot be
      nonzero.  Joins intersect; [None] is the identity.  This is what
      carries a guard through the compiler's short-circuit [&&] merge
      blocks. *)
  z : int list option;     (** same, for "this value is zero" *)
}

val av_top : av
val av_const : int -> av
val av_image : int -> av
val join_av : av -> av -> av
val pp_av : Format.formatter -> av -> unit

val av_subst : args:av list option -> av -> av
(** Substitute a callee-relative value into caller terms through the
    actual argument vector of a call site ([Barg i] -> caller's i-th
    argument; callee frame addresses degrade to top). *)

(** {1 Events}

    The interface between the value pre-pass and client analyses.
    Events appear in program order within a block; [guards] is the set
    of globals known nonzero when the event executes. *)

type event =
  | E_kcall of { ev_off : int; name : string; args : av list option;
                 guards : int list }
      (** [args]: operand-stack snapshot, top first — arg i is element
          i; [None] when stack tracking was lost *)
  | E_load of { ev_off : int; addr : av; guards : int list }
  | E_store of { ev_off : int; addr : av; value : av; guards : int list }

(** {1 Value pre-pass} *)

type vstate = {
  regs : av array;
  frame : (int * av) list;      (** signed fp offset -> value, sorted *)
  stack : av list;              (** operand stack, head = top *)
  stack_ok : bool;              (** false once push/pop tracking lost *)
  guards : int list;            (** globals known nonzero here, sorted *)
}

type binfo = {
  bi_in : vstate;               (** joined state at block entry *)
  bi_events : event list;       (** in program order *)
  bi_succ : (int * vstate) list;(** refined per-successor exit states *)
  bi_call_args : av list option;(** stack snapshot at a [T_call(r)] *)
}

type finfo = {
  fi_func : Icfg.func;
  fi_blocks : (int * binfo) list;
  fi_ret : av;                  (** join of r0 over ret blocks *)
}

type t = {
  icfg : Icfg.t;
  funcs : (int * finfo) list;   (** keyed by [fn_entry], sorted *)
}

val analyze : Icfg.t -> t
(** Runs the per-function value fixpoints bottom-up over the call graph
    (so callee return values are visible to callers; cycle members see
    top).  Deterministic. *)

val block_info : t -> int -> binfo option

(** {1 Handler-role recovery} *)

type roles = {
  ro_map : (int * Ddt_annot.Annot.handler_role) list;
      (** function entry -> strongest registered role, sorted *)
  ro_interrupt : int list;
      (** function entries reachable from ISR/DPC handlers (inclusive) *)
  ro_roots : (int * Ddt_annot.Annot.handler_role) list;
      (** analysis roots: registered handlers plus uncalled functions *)
}

val roles : t -> model:Ddt_annot.Annot.api_model -> roles
(** Recovers which functions run in interrupt context from the API
    model's registration contracts: handler tables written at run time
    ([lea table; ...; lea code; stw]) or pre-initialized in relocated
    data, whose base reaches a [Reg_table] API, and code pointers passed
    to [Reg_arg] APIs. *)

(** {1 Interprocedural client fixpoint} *)

module type DOMAIN = sig
  type t

  val name : string
  val equal : t -> t -> bool
  val join : t -> t -> t

  val widen : t -> t -> t
  (** context widening: must over-approximate [join] and bound chains *)

  val entry : role:Ddt_annot.Annot.handler_role -> t
  (** initial state when a root entry point is invoked by the kernel *)

  val transfer : t -> event -> t

  val enter_call : t -> args:av list option -> t
  (** caller state at a call site -> callee entry context *)

  val leave_call : caller:t -> args:av list option -> exit_:t option -> t
  (** merge the callee summary back; [exit_ = None] when no summary is
      available yet (unresolved indirect call, recursion in progress) *)
end

module Make (D : DOMAIN) : sig
  type result

  val run :
    ?max_contexts:int ->
    ?pick:(int -> int) ->
    t ->
    roots:(int * Ddt_annot.Annot.handler_role) list ->
    result
  (** Context-tabulated summary fixpoint.  An instance is a (function,
      entry context) pair keyed by [D.equal]; beyond [max_contexts]
      per function, contexts collapse into one [D.widen]ed instance.
      [pick] chooses which pending work item to service next (given the
      queue length, return an index) — the fixpoint is independent of
      this order, which the QCheck property test exercises. *)

  val iter_in_states :
    result ->
    (fn:Icfg.func -> widened:bool -> ctx:D.t -> leader:int -> din:D.t ->
     dout:D.t option ->
     unit) ->
    unit
  (** Visit every analyzed (instance, block) with the block's IN state
      and (when the block completed) its OUT state, which at [T_call]
      blocks includes the callee's summarized effect — something a
      client-side event {!replay} cannot reconstruct.  Deterministic
      order: instance creation order, then block order. *)

  val replay :
    result -> din:D.t -> leader:int -> f:(D.t -> event -> unit) -> D.t
  (** Re-fold a block's event stream from a client state, visiting each
      event with the state in force just before it; returns the state
      after the last event (the pre-terminator state — for a ret block,
      the function exit state). *)

  val summaries : result -> (int * D.t * D.t option) list
  (** [(fn_entry, entry ctx, summary)] per instance, creation order. *)
end
