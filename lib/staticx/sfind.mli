(** Purely static findings over the {!Icfg}.

    Three intraprocedural rule families, all conservative enough to be
    false-positive-free on clean drivers (asserted by the fixed-corpus
    tests and goldens):

    - [unreachable-code]: text byte runs no recursive-descent path reaches
      (decodable dead code as well as data-in-text; the finding reports
      both, the block universe excludes both);
    - [stack-imbalance]: a path through a function on which the net
      stack-pointer displacement at a [ret] is nonzero while still
      statically known — the return address read will miss;
    - [const-arg-contract]: a kernel-API call site whose argument the
      {!Dataflow} value pre-pass proves constant on every path, and
      which violates an {!Ddt_annot.Annot.arg_contract}.

    Plus, when the kernel-API [model] of the driver's class is supplied,
    the interprocedural {!Dataflow} rules — must-lockset/IRQL
    ({!Lockirql}: [lock-double-acquire], [lock-extra-release],
    [lock-wrong-variant], [lock-out-of-order], [lock-forgotten-release],
    [irql-passive-api]) and static race pairs ({!Racepair}:
    [race-unguarded-deref], [race-unguarded-use]).  These also hold the
    no-false-positive line on the fixed corpus: every rule fires on
    must-facts only.

    The value pre-pass runs at most once per call, when [contracts] is
    non-empty or a [model] is given, and both rule groups read it.

    Findings are deterministic: a pure function of the image, contract
    list and model, sorted by (position, rule). *)

type finding = {
  f_rule : string;
  f_func : string;      (** enclosing function name, or [""] *)
  f_pos : int;          (** image-relative offset *)
  f_msg : string;
}

val analyze :
  ?contracts:Ddt_annot.Annot.arg_contract list ->
  ?model:Ddt_annot.Annot.api_model ->
  Icfg.t ->
  finding list
