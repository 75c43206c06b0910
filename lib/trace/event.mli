(** Execution-trace events (§3.5 of the paper).

    DDT's traces record memory accesses with address/value/kind, creation and propagation of symbolic values,
    constraints added at branches, and whether each branch forked. Each
    symbolic state carries its trace as a prepend-only list, so forking
    shares the common prefix structurally — the trace analog of the
    copy-on-write state representation. *)

type t =
  | E_branch of { pc : int; taken : bool; forked : bool;
                  cond : Ddt_solver.Expr.t }
  | E_mem of { pc : int; write : bool; addr : Ddt_solver.Expr.t;
               width : int; value : Ddt_solver.Expr.t }
  | E_sym_create of { name : string; origin : string;
                      var : Ddt_solver.Expr.var }
      (** a fresh symbolic value entered the system (device read,
          annotation, symbolic entry argument) *)
  | E_concretize of { pc : int; expr : Ddt_solver.Expr.t; value : int;
                      reason : string }
  | E_kcall of { pc : int; name : string }
  | E_kcall_ret of { name : string }
  | E_entry of { name : string; addr : int }
  | E_entry_ret of { name : string; ret : int }
  | E_interrupt of { site : string; phase : string }
      (** symbolic interrupt injected: where, and isr/dpc/timer phase *)
  | E_choice of { label : string; choice : string }
      (** which alternative an annotation fork took on this path *)
  | E_merge of { pc : int; absorbed : int; cond : Ddt_solver.Expr.t }
      (** recorded on the surviving state when a sibling state was fused
          into it at merge point [pc]; [cond] is the absorbed path's
          guard (the [ite] condition selecting its values) *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string

val summarize : t list -> string
(** A short multi-line digest: counts per event class plus the last few
    events; used in bug reports. *)
