type fault =
  | Null_deref
  | Div_by_zero
  | Bad_opcode
  | Stack_overflow
  | Bad_jump

exception Fault of fault * int

type env = {
  mem : Mem.t;
  cpu : Cpu.t;
  mutable kcall : int -> unit;
  mutable on_step : int -> unit;
  mutable steps : int;
  mutable fuel : int;
  mutable image : Image.loaded option;
}

let create ?(fuel = 50_000_000) ?image mem =
  { mem; cpu = Cpu.create ();
    kcall = (fun n -> failwith (Printf.sprintf "unbound kcall %d" n));
    on_step = (fun _ -> ()); steps = 0; fuel; image }

let mask32 v = v land 0xFFFFFFFF

let to_signed32 v = if v land 0x80000000 <> 0 then v - 0x100000000 else v

let alu op a b pc =
  match op with
  | Isa.Add -> mask32 (a + b)
  | Isa.Sub -> mask32 (a - b)
  | Isa.Mul -> mask32 (a * b)
  | Isa.Divu -> if b = 0 then raise (Fault (Div_by_zero, pc)) else a / b
  | Isa.Remu -> if b = 0 then raise (Fault (Div_by_zero, pc)) else a mod b
  | Isa.And -> a land b
  | Isa.Or -> a lor b
  | Isa.Xor -> a lxor b
  | Isa.Shl -> mask32 (a lsl (b land 31))
  | Isa.Shru -> a lsr (b land 31)
  | Isa.Shrs -> mask32 (to_signed32 a asr (b land 31))

let cmp op a b =
  let holds =
    match op with
    | Isa.Eq -> a = b
    | Isa.Ne -> a <> b
    | Isa.Ltu -> a < b
    | Isa.Leu -> a <= b
    | Isa.Lts -> to_signed32 a < to_signed32 b
    | Isa.Les -> to_signed32 a <= to_signed32 b
  in
  if holds then 1 else 0

(* A data access's 32-bit address; the null guard page faults. *)
let data_addr pc addr =
  let addr = mask32 addr in
  if addr < Layout.null_guard then raise (Fault (Null_deref, pc));
  addr

let read_u32 env pc addr = Mem.read_u32 env.mem (data_addr pc addr)
let read_u8 env pc addr = Mem.read_u8 env.mem (data_addr pc addr)
let write_u32 env pc addr v = Mem.write_u32 env.mem (data_addr pc addr) v
let write_u8 env pc addr v = Mem.write_u8 env.mem (data_addr pc addr) v

let push env pc v =
  let sp = Cpu.get env.cpu Isa.sp - 4 in
  if sp < Layout.stack_limit then raise (Fault (Stack_overflow, pc));
  Cpu.set env.cpu Isa.sp sp;
  write_u32 env pc sp v

let pop env pc =
  let sp = Cpu.get env.cpu Isa.sp in
  let v = read_u32 env pc sp in
  Cpu.set env.cpu Isa.sp (sp + 4);
  v

let decode_mem env pc =
  let b = Mem.read_bytes env.mem pc Isa.instr_size in
  try Isa.decode b 0
  with Isa.Invalid_opcode _ -> raise (Fault (Bad_opcode, pc))

let fetch env pc =
  (* Aligned fetches inside the loaded text hit the decode-once array
     built at [Image.load]; anything else (no image attached, or a jump
     to an unaligned/out-of-text address) decodes straight from memory. *)
  match env.image with
  | Some l
    when pc >= l.Image.text_start && pc < l.Image.text_end
         && (pc - l.Image.text_start) land (Isa.instr_size - 1) = 0 -> (
      match l.Image.code.((pc - l.Image.text_start) / Isa.instr_size) with
      | Some i -> i
      | None -> raise (Fault (Bad_opcode, pc)))
  | _ -> decode_mem env pc

let step env =
  let cpu = env.cpu in
  let pc = cpu.Cpu.pc in
  env.on_step pc;
  env.steps <- env.steps + 1;
  let instr = fetch env pc in
  let next = pc + Isa.instr_size in
  let g = Cpu.get cpu and s = Cpu.set cpu in
  match instr with
  | Isa.Nop -> cpu.Cpu.pc <- next
  | Isa.Hlt -> cpu.Cpu.halted <- true
  | Isa.Mov (rd, rs) -> s rd (g rs); cpu.Cpu.pc <- next
  | Isa.Movi (rd, imm) | Isa.Lea (rd, imm) -> s rd imm; cpu.Cpu.pc <- next
  | Isa.Alu (op, rd, rs1, rs2) ->
      s rd (alu op (g rs1) (g rs2) pc);
      cpu.Cpu.pc <- next
  | Isa.Alui (op, rd, rs1, imm) ->
      s rd (alu op (g rs1) imm pc);
      cpu.Cpu.pc <- next
  | Isa.Cmp (op, rd, rs1, rs2) ->
      s rd (cmp op (g rs1) (g rs2));
      cpu.Cpu.pc <- next
  | Isa.Cmpi (op, rd, rs1, imm) ->
      s rd (cmp op (g rs1) imm);
      cpu.Cpu.pc <- next
  | Isa.Ldw (rd, rs1, off) ->
      s rd (read_u32 env pc (g rs1 + off));
      cpu.Cpu.pc <- next
  | Isa.Ldb (rd, rs1, off) ->
      s rd (read_u8 env pc (g rs1 + off));
      cpu.Cpu.pc <- next
  | Isa.Stw (rs1, off, rs2) ->
      write_u32 env pc (g rs1 + off) (g rs2);
      cpu.Cpu.pc <- next
  | Isa.Stb (rs1, off, rs2) ->
      write_u8 env pc (g rs1 + off) (g rs2);
      cpu.Cpu.pc <- next
  | Isa.Push rs -> push env pc (g rs); cpu.Cpu.pc <- next
  | Isa.Pop rd -> s rd (pop env pc); cpu.Cpu.pc <- next
  | Isa.Jmp imm -> cpu.Cpu.pc <- imm
  | Isa.Jz (rs, imm) -> cpu.Cpu.pc <- (if g rs = 0 then imm else next)
  | Isa.Jnz (rs, imm) -> cpu.Cpu.pc <- (if g rs <> 0 then imm else next)
  | Isa.Call imm ->
      push env pc next;
      cpu.Cpu.pc <- imm
  | Isa.Callr rs ->
      let target = g rs in
      if target < Layout.null_guard then raise (Fault (Bad_jump, pc));
      push env pc next;
      cpu.Cpu.pc <- target
  | Isa.Ret -> cpu.Cpu.pc <- pop env pc
  | Isa.Kcall n ->
      cpu.Cpu.pc <- next;
      env.kcall n
  | Isa.Cli -> cpu.Cpu.int_enabled <- false; cpu.Cpu.pc <- next
  | Isa.Sti -> cpu.Cpu.int_enabled <- true; cpu.Cpu.pc <- next

type stop = Sentinel | Halted | Out_of_fuel

let run env =
  let rec go () =
    if env.cpu.Cpu.halted then Halted
    else if env.cpu.Cpu.pc = Layout.return_sentinel then Sentinel
    else if env.fuel <= 0 then Out_of_fuel
    else begin
      env.fuel <- env.fuel - 1;
      step env;
      go ()
    end
  in
  go ()

let call_function env ~addr ~args =
  let saved_pc = env.cpu.Cpu.pc in
  List.iter (fun a -> push env addr a) (List.rev args);
  push env addr Layout.return_sentinel;
  env.cpu.Cpu.pc <- addr;
  ignore (run env : stop);
  (* Pop the arguments (the callee's Ret consumed the sentinel). *)
  Cpu.set env.cpu Isa.sp (Cpu.get env.cpu Isa.sp + (4 * List.length args));
  env.cpu.Cpu.pc <- saved_pc;
  Cpu.get env.cpu 0
