(** The concrete DVM interpreter.

    The concrete reference for the tests and the micro benchmark. Trace
    replay (§3.5 of the paper) and the stress-testing baseline run on
    the symbolic engine in [ddt_symexec] instead (the stress baseline
    with a concrete device); both executors share {!Isa} decoding and
    these fault semantics. *)

type fault =
  | Null_deref
  | Div_by_zero
  | Bad_opcode
  | Stack_overflow
  | Bad_jump

exception Fault of fault * int
(** [(fault, pc)] *)

type env = {
  mem : Mem.t;
  cpu : Cpu.t;
  mutable kcall : int -> unit;
  (** Import-table dispatch; reads args from the stack, returns in [r0]. *)
  mutable on_step : int -> unit;                       (** pc before exec *)
  mutable steps : int;                                 (** instructions run *)
  mutable fuel : int;                                  (** remaining budget *)
  mutable image : Image.loaded option;
  (** when set, aligned in-text fetches use the image's decode-once
      {!Image.loaded.code} array instead of decoding from memory *)
}

val create : ?fuel:int -> ?image:Image.loaded -> Mem.t -> env

type stop = Sentinel | Halted | Out_of_fuel

val step : env -> unit
(** Execute one instruction. @raise Fault *)

val run : env -> stop
(** Run until the return sentinel, [Hlt], or fuel exhaustion. *)

val call_function : env -> addr:int -> args:int list -> int
(** Push [args] (right-to-left) and the return sentinel, run the function
    at [addr] to completion, pop the arguments, return [r0]. This is how
    the (native) kernel invokes driver entry points and how interrupts
    nest an ISR invocation into the current execution. *)
