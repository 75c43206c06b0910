(** Interprocedural lockset + IRQL abstract interpretation.

    A client of {!Dataflow.Make}: the abstract state is the
    acquisition-ordered must/may lockset plus the IRQL floor implied by
    the entry point's concurrency role.  Lock objects are named
    structurally ({!tok}) so a lock acquired in a caller is recognized
    inside a helper and vice versa — the helper-function blind spot of
    the intraprocedural baseline ([Ddt_baseline.Absint]).  All rules
    fire on must-facts only; conditional acquire/release pairs join to
    [Maybe] and stay silent, removing the baseline's path-insensitivity
    false positive.

    Rules: [lock-double-acquire], [lock-extra-release],
    [lock-wrong-variant], [lock-out-of-order] (non-LIFO release),
    [lock-forgotten-release], [irql-passive-api]. *)

type tclass =
  | Tc_img                 (** lock object at image offset [td] *)
  | Tc_gptr of int         (** at offset [td] of [*global g] *)
  | Tc_arg of int          (** at offset [td] of argument [i] *)
  | Tc_frame               (** at frame offset [td] (local lock) *)

type tok = { tc : tclass; td : int }

type hold = Held of Ddt_annot.Annot.lock_variant | Maybe

type site = {
  s_fn : Icfg.func;
  s_interrupt : bool;
      (** this instance runs at DISPATCH_LEVEL (ISR/DPC closure) *)
  s_lockset : tok list;
      (** must-held, context-independent tokens, sorted — comparable
          across functions *)
  s_event : Dataflow.event;
}

type result = {
  r_findings : (string * string * int * string) list;
      (** (rule, function, position, message), sorted, deduplicated *)
  r_sites : site list;
      (** every event of every analyzed instance with the lockset in
          force — the input to {!Racepair} *)
}

val analyze :
  ?pick:(int -> int) ->
  Dataflow.t ->
  model:Ddt_annot.Annot.api_model ->
  roles:Dataflow.roles ->
  result
(** [pick] is forwarded to {!Dataflow.Make.run}: it chooses which
    pending worklist item is serviced next.  The result is independent
    of it (the QCheck property test exercises this with random
    permutation picks). *)
