(** The machine interface kernel code runs against.

    The kernel executes natively (concretely) while the driver may be
    running symbolically — DDT's selective symbolic execution (§3.2).
    Kernel API implementations therefore access driver-visible memory and
    kcall arguments only through this record. Its one implementation is
    the symbolic engine's ([Ddt_symexec.Exec]; the stress baseline runs
    that engine with a concrete device), which concretizes symbolic
    values on demand and records concretization constraints.

    [fork] is the annotation/fork primitive: the current path is replaced
    by one successor per alternative, each an independent state. Code
    after a [fork] call never runs on the original path, so kernel
    functions must perform shared side effects before forking and
    per-successor effects inside the alternative callbacks. *)

type t = {
  arg : int -> int;
  (** kcall argument [i], concretized if symbolic *)
  arg_expr : int -> Ddt_solver.Expr.t;
  set_ret : int -> unit;
  get_ret : unit -> int;
  (** concretized current value of the return register *)
  set_ret_expr : Ddt_solver.Expr.t -> unit;
  read_u32 : int -> int;
  write_u32 : int -> int -> unit;
  read_u8 : int -> int;
  write_u8 : int -> int -> unit;
  read_expr_u32 : int -> Ddt_solver.Expr.t;
  write_expr_u32 : int -> Ddt_solver.Expr.t -> unit;
  read_expr_u8 : int -> Ddt_solver.Expr.t;
  write_expr_u8 : int -> Ddt_solver.Expr.t -> unit;
  fresh_symbolic : string -> Ddt_solver.Expr.width -> Ddt_solver.Expr.t;
  (** a new unconstrained symbolic value *)
  assume : Ddt_solver.Expr.t -> unit;
  (** add a path constraint; discards the path if infeasible *)
  fork : (string * (t -> unit)) list -> unit;
  (** replace this path by one successor per alternative; never returns
      normally *)
  discard : string -> unit;
  (** kill the current path (DDT's [ddt_discard_state]) *)
  kstate : unit -> Kstate.t;
  (** the kernel state of the path this machine is bound to — fork
      alternative callbacks receive a machine bound to the forked path,
      so annotations can adjust that path's kernel bookkeeping *)
}

val read_cstring : t -> int -> string
(** NUL-terminated string through [read_u8] (capped at 256 bytes). *)

exception Path_terminated of string
(** Raised by [discard]/[fork] implementations to unwind out of a kernel
    call whose path is being abandoned or split. *)
