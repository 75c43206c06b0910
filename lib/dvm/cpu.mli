(** The DVM CPU: 16 general registers, a program counter and an
    interrupt-enable flag. *)

type t = {
  regs : int array;
  mutable pc : int;
  mutable int_enabled : bool;
  mutable halted : bool;
}

val create : unit -> t
val get : t -> Isa.reg -> int
val set : t -> Isa.reg -> int -> unit
