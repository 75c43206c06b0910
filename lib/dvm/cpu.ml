type t = {
  regs : int array;
  mutable pc : int;
  mutable int_enabled : bool;
  mutable halted : bool;
}

let create () =
  { regs = Array.make Isa.num_regs 0; pc = 0; int_enabled = true;
    halted = false }

let get t r = t.regs.(r)
let set t r v = t.regs.(r) <- v land 0xFFFFFFFF
