(** Execution-trace events (§3.5 of the paper).

    DDT's traces record the creation and propagation of symbolic values,
    constraints added at branches, and whether each branch forked. Each
    symbolic state carries its trace as a prepend-only list, so forking
    shares the common prefix structurally — the trace analog of the
    copy-on-write state representation. Loads and stores are not
    events: a state counts them and keeps the set of pages they touched
    ([Symstate.mem_accesses], [Symstate.touched_pages]), which is all
    the bug summary and the crash dump read of them. *)

type t =
  | E_branch of { pc : int; taken : bool; forked : bool;
                  cond : Ddt_solver.Expr.t }
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

val summarize : mem_accesses:int -> t list -> string
(** A short multi-line digest used in bug reports: the path's
    [mem_accesses] and counts per event class, then its last 12
    events. *)
