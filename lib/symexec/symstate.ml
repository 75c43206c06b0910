module Expr = Ddt_solver.Expr
module Pages = Set.Make (Int)

type crash = {
  c_code : string;
  c_msg : string;
  c_pc : int;
}

type status =
  | Returned of int
  | Crashed of crash
  | Discarded of string
  | Exhausted

type saved_ctx = {
  s_regs : Expr.t array;
  s_pc : int;
  s_int : bool;
}

type post_action =
  | Pa_after_isr of saved_ctx * int
  | Pa_after_dpc of saved_ctx * int
  | Pa_after_timer of saved_ctx * int

(* An open merge token this state is committed to: when the state
   reaches [mt_pc] (the branch's immediate post-dominator), it reports
   to the merge pool instead of executing on. Forking under an open
   token commits both children, so the list is a stack — innermost
   (most recently opened) token first. *)
type merge_tag = {
  mt_token : int;
  mt_pc : int;
}

type t = {
  id : int;
  depth : int;
  regs : Expr.t array;
  mutable pc : int;
  mutable int_enabled : bool;
  mem : Symmem.t;
  mutable constraints : Expr.t list;
  ks : Ddt_kernel.Kstate.t;
  mutable pending : post_action list;
  mutable trace : Ddt_trace.Event.t list;
  mutable mem_accesses : int;
  mutable touched_pages : Pages.t;
  mutable choices : (string * string) list;
  mutable sym_inputs : (Expr.var * string) list;
  mutable injections : int;
  mutable injected_sites : int list;
  mutable steps : int;
  mutable last_block : int;
  mutable status : status option;
  mutable entry_name : string;
  mutable replay_inputs : (string * int) list;
  mutable replay_choices : (string * string) list;
  mutable tags : merge_tag list;
}

let create ~id ~mem ~ks =
  {
    id;
    depth = 1;
    regs = Array.make Ddt_dvm.Isa.num_regs (Expr.word 0);
    pc = 0;
    int_enabled = true;
    mem;
    constraints = [];
    ks;
    pending = [];
    trace = [];
    mem_accesses = 0;
    touched_pages = Pages.empty;
    choices = [];
    sym_inputs = [];
    injections = 0;
    injected_sites = [];
    steps = 0;
    last_block = 0;
    status = None;
    entry_name = "";
    replay_inputs = [];
    replay_choices = [];
    tags = [];
  }

let fork t ~id =
  {
    t with
    id;
    depth = t.depth + 1;
    regs = Array.copy t.regs;
    mem = Symmem.fork t.mem;
    ks = Ddt_kernel.Kstate.copy t.ks;
    status = None;
  }

let record t ev = t.trace <- ev :: t.trace

let add_constraint t c = t.constraints <- c :: t.constraints
let reg_get t r = t.regs.(r)
let reg_set t r e = t.regs.(r) <- e
let terminated t = t.status <> None
