(** Execution-tree reconstruction (§3.5 of the paper).

    Every branch that forked has a flag in the trace, so the set of
    explored states — each knowing its parent — reconstructs the tree of
    paths; each leaf is a machine state, and the path from the root to a
    failed leaf is the evidence presented to the developer. *)

type 'l node = {
  t_id : int;
  t_parent : int;            (** 0 for roots *)
  t_label : 'l;              (** status or description of the state *)
  t_forks : int;             (** forked branches recorded on this path *)
  mutable t_children : int list;
}

type 'l t

val build : (int * int * 'l * int) list -> 'l t
(** [(id, parent, label, forks)] per explored state. A label is kept as
    it is and formatted only when the tree is printed. *)

val node : 'l t -> int -> 'l node option
val roots : 'l t -> int list
val size : 'l t -> int
val depth : 'l t -> int
val path_to_root : 'l t -> int -> int list
(** Leaf to root, inclusive. *)

val pp_with :
  (Format.formatter -> 'l -> unit) -> Format.formatter -> 'l t -> unit
(** Indented rendering of the whole tree, each label by the printer. *)

val pp : Format.formatter -> string t -> unit
(** [pp_with] for text labels. *)
