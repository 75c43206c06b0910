(* Tests for ddt_dvm: ISA encoding, assembler, interpreter, images (their
   basic-block leaders come from Ddt_staticx.Icfg). *)

open Ddt_dvm

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* --- ISA encode/decode ------------------------------------------------ *)

let sample_instrs =
  [ Isa.Nop; Isa.Hlt; Isa.Mov (1, 2); Isa.Movi (3, 0xDEADBEEF);
    Isa.Lea (4, 0x1234); Isa.Alu (Isa.Add, 1, 2, 3);
    Isa.Alui (Isa.Shrs, 5, 6, 31); Isa.Cmp (Isa.Lts, 0, 1, 2);
    Isa.Cmpi (Isa.Leu, 7, 8, 100); Isa.Ldw (1, 2, -4 land 0xFFFFFFFF);
    Isa.Ldb (3, 4, 7); Isa.Stw (5, 16, 6); Isa.Stb (7, 1, 8);
    Isa.Push 9; Isa.Pop 10; Isa.Jmp 0x400000; Isa.Jz (1, 0x400100);
    Isa.Jnz (2, 0x400200); Isa.Call 0x400300; Isa.Callr 3; Isa.Ret;
    Isa.Kcall 12; Isa.Cli; Isa.Sti ]

let test_encode_roundtrip () =
  List.iter
    (fun i ->
      let b = Isa.encode i in
      check_int "size" Isa.instr_size (Bytes.length b);
      check_bool (Isa.to_string i) true (Isa.decode b 0 = i))
    sample_instrs

let prop_random_alu_roundtrip =
  let gen =
    QCheck.Gen.(
      let* op = int_bound 10 in
      let* rd = int_bound 15 in
      let* rs1 = int_bound 15 in
      let* imm = map (fun v -> v land 0xFFFFFFFF) int in
      return (op, rd, rs1, imm))
  in
  QCheck.Test.make ~count:300 ~name:"alui encode/decode roundtrip"
    (QCheck.make gen)
    (fun (op, rd, rs1, imm) ->
      let ops =
        [| Isa.Add; Isa.Sub; Isa.Mul; Isa.Divu; Isa.Remu; Isa.And; Isa.Or;
           Isa.Xor; Isa.Shl; Isa.Shru; Isa.Shrs |]
      in
      let i = Isa.Alui (ops.(op), rd, rs1, imm) in
      Isa.decode (Isa.encode i) 0 = i)

(* --- assembler + interpreter ------------------------------------------ *)

let load_program ?fuel src =
  let img = Asm.assemble ~name:"test" src in
  let mem = Mem.create () in
  let loaded = Image.load img mem ~base:Layout.image_base in
  let env = Interp.create ?fuel ~image:loaded mem in
  (env, loaded, loaded.Image.base + img.Image.entry)

let run_program ?(setup = fun _ -> ()) src =
  let env, loaded, entry = load_program src in
  setup env;
  Cpu.set env.Interp.cpu Isa.sp Layout.stack_top;
  let r0 = Interp.call_function env ~addr:entry ~args:[] in
  (r0, env, loaded)

(* Point the cpu at [entry] with the return sentinel on the stack, as
   [Interp.call_function] does, so [Interp.run] can be driven directly. *)
let enter env entry =
  let sp = Layout.stack_top - 4 in
  Mem.write_u32 env.Interp.mem sp Layout.return_sentinel;
  Cpu.set env.Interp.cpu Isa.sp sp;
  env.Interp.cpu.Cpu.pc <- entry

(* Run [src] expecting a fault: the fault kind, the faulting pc as an
   instruction index into the text, and the instructions executed up to
   and including the faulting one. *)
let run_to_fault src =
  let env, loaded, entry = load_program src in
  Cpu.set env.Interp.cpu Isa.sp Layout.stack_top;
  match Interp.call_function env ~addr:entry ~args:[] with
  | _ -> Alcotest.fail "expected a fault"
  | exception Interp.Fault (f, pc) ->
      (f, (pc - loaded.Image.text_start) / Isa.instr_size, env.Interp.steps)

let test_factorial () =
  (* Iterative factorial of 10 using the standard calling convention. *)
  let src = {|
    .entry main
    .func main
    main:
      movi r1, 10      ; n
      movi r0, 1       ; acc
    loop:
      jz r1, done
      mul r0, r0, r1
      sub r1, r1, 1
      jmp loop
    done:
      ret
  |} in
  let r0, _, _ = run_program src in
  check_int "10!" 3628800 r0

let test_call_convention () =
  (* add3(a, b, c) = a + b + c, called with (7, 30, 500). *)
  let src = {|
    .entry main
    .func add3
    add3:
      push fp
      mov fp, sp
      ldw r1, [fp+8]
      ldw r2, [fp+12]
      ldw r3, [fp+16]
      add r0, r1, r2
      add r0, r0, r3
      mov sp, fp
      pop fp
      ret
    .func main
    main:
      movi r1, 500
      push r1
      movi r1, 30
      push r1
      movi r1, 7
      push r1
      call add3
      add sp, sp, 12
      ret
  |} in
  let r0, _, _ = run_program src in
  check_int "sum" 537 r0

let test_data_section () =
  let src = {|
    .entry main
    .func main
    main:
      lea r1, table
      ldw r0, [r1+4]
      lea r2, greeting
      ldb r3, [r2+1]
      add r0, r0, r3
      ret
    .data
    table: .word 10, 20, 30
    greeting: .asciz "Hi"
  |} in
  let r0, _, _ = run_program src in
  check_int "20 + 'i'" (20 + Char.code 'i') r0

let test_byte_ops_and_space () =
  let src = {|
    .entry main
    .func main
    main:
      lea r1, buf
      movi r2, 0xAB
      stb [r1+5], r2
      ldb r0, [r1+5]
      ldb r3, [r1+4]
      add r0, r0, r3
      ret
    .data
    buf: .space 16
  |} in
  let r0, _, _ = run_program src in
  check_int "stb/ldb" 0xAB r0

let test_null_deref_faults () =
  let src = {|
    .entry main
    .func main
    main:
      movi r1, 0
      ldw r0, [r1+8]
      ret
  |} in
  let f, at, steps = run_to_fault src in
  check_bool "null-deref fault" true (f = Interp.Null_deref);
  check_int "faulting instruction" 1 at;
  check_int "steps" 2 steps

let test_div_by_zero_faults () =
  let src = {|
    .entry main
    .func main
    main:
      movi r1, 5
      movi r2, 0
      divu r0, r1, r2
      ret
  |} in
  let f, at, steps = run_to_fault src in
  check_bool "div-by-zero fault" true (f = Interp.Div_by_zero);
  check_int "faulting instruction" 2 at;
  check_int "steps" 3 steps

let test_stack_overflow_faults () =
  let src = {|
    .entry main
    .func main
    main:
      movi r0, 1
    loop:
      push r0
      jmp loop
  |} in
  let f, at, steps = run_to_fault src in
  check_bool "stack-overflow fault" true (f = Interp.Stack_overflow);
  check_int "faulting instruction" 1 at;
  (* [call_function] pushed the return sentinel; every push that keeps
     sp at or above the limit succeeds, and the next one faults. *)
  let pushes = (Layout.stack_top - 4 - Layout.stack_limit) / 4 in
  check_int "steps" (1 + (2 * pushes) + 1) steps

let test_hlt_stops () =
  let env, loaded, entry = load_program {|
    .entry main
    .func main
    main:
      movi r0, 42
      hlt
      movi r0, 7
      ret
  |} in
  enter env entry;
  check_bool "halted" true (Interp.run env = Interp.Halted);
  check_int "r0" 42 (Cpu.get env.Interp.cpu 0);
  check_int "steps" 2 env.Interp.steps;
  check_int "pc stays on the hlt" (loaded.Image.text_start + Isa.instr_size)
    env.Interp.cpu.Cpu.pc

(* Fuel runs out after exactly [fuel] instructions, wherever that falls
   in the loop, and a second run with [more] fuel continues from there as
   if the budget had been [fuel + more] all along. *)
let prop_fuel_exact =
  QCheck.Test.make ~count:100 ~name:"fuel exhaustion is step-exact"
    QCheck.(pair (int_range 1 50) (int_range 0 50))
    (fun (fuel, more) ->
      let env, loaded, entry = load_program ~fuel {|
        .entry main
        .func main
        main:
          movi r0, 0
        loop:
          add r0, r0, 1
          jmp loop
      |} in
      enter env entry;
      (* step 1 is the movi; even steps are adds, odd ones the jmp *)
      let expect n =
        ( Interp.Out_of_fuel, n, 0, n / 2,
          loaded.Image.text_start
          + (if n mod 2 = 0 then 2 else 1) * Isa.instr_size )
      in
      let observe stop =
        ( stop, env.Interp.steps, env.Interp.fuel, Cpu.get env.Interp.cpu 0,
          env.Interp.cpu.Cpu.pc )
      in
      let first = observe (Interp.run env) in
      env.Interp.fuel <- more;
      let second = observe (Interp.run env) in
      first = expect fuel && second = expect (fuel + more))

let test_kcall_dispatch () =
  let src = {|
    .entry main
    .func main
    main:
      movi r1, 21
      push r1
      kcall DoubleIt
      add sp, sp, 4
      ret
  |} in
  let img = Asm.assemble ~name:"test" src in
  check_int "one import" 1 (Array.length img.Image.imports);
  Alcotest.(check string) "import name" "DoubleIt" img.Image.imports.(0);
  let mem = Mem.create () in
  let loaded = Image.load img mem ~base:Layout.image_base in
  let env = Interp.create ~image:loaded mem in
  env.Interp.kcall <-
    (fun n ->
      check_int "import index" 0 n;
      let sp = Cpu.get env.Interp.cpu Isa.sp in
      let arg0 = Mem.read_u32 mem sp in
      Cpu.set env.Interp.cpu 0 (2 * arg0));
  Cpu.set env.Interp.cpu Isa.sp Layout.stack_top;
  let r0 =
    Interp.call_function env ~addr:(loaded.Image.base + img.Image.entry)
      ~args:[]
  in
  check_int "doubled" 42 r0

let test_mmio_hook () =
  let src = {|
    .entry main
    .func main
    main:
      movi r1, 0xD0000000
      movi r2, 0x55
      stb [r1+0], r2
      ldb r0, [r1+0]
      ret
  |} in
  let img = Asm.assemble ~name:"test" src in
  let mem = Mem.create () in
  let writes = ref [] in
  Mem.add_mmio mem
    { Mem.mmio_start = Layout.mmio_base; mmio_size = 0x1000;
      mmio_read = (fun off -> if off = 0 then 0x77 else 0);
      mmio_write = (fun off v -> writes := (off, v) :: !writes) };
  let loaded = Image.load img mem ~base:Layout.image_base in
  let env = Interp.create ~image:loaded mem in
  Cpu.set env.Interp.cpu Isa.sp Layout.stack_top;
  let r0 =
    Interp.call_function env ~addr:(loaded.Image.base + img.Image.entry)
      ~args:[]
  in
  check_int "read from device" 0x77 r0;
  check_bool "write reached device" true (!writes = [ (0, 0x55) ])

let test_image_serialization () =
  let src = {|
    .entry main
    .func helper
    helper:
      ret
    .func main
    main:
      call helper
      kcall SomeImport
      ret
    .data
    v: .word main
  |} in
  let img = Asm.assemble ~name:"roundtrip" src in
  let img' = Image.of_bytes (Image.to_bytes img) in
  check_bool "roundtrip equal" true (img = img');
  let s = Image.stats img in
  check_int "functions" 2 s.Image.num_functions;
  check_int "imports" 1 s.Image.num_kernel_imports;
  check_int "code size" (4 * Isa.instr_size) s.Image.code_size

let test_relocation () =
  (* A .word holding a code label must point at the loaded address. *)
  let src = {|
    .entry main
    .func main
    main:
      lea r1, fnptr
      ldw r2, [r1+0]
      call r2
      ret
    .func target
    target:
      movi r0, 99
      ret
    .data
    fnptr: .word target
  |} in
  let r0, _, _ = run_program src in
  check_int "indirect call through data" 99 r0

let test_basic_blocks () =
  let src = {|
    .entry main
    .func main
    main:
      movi r0, 1
      jz r0, a
      movi r0, 2
    a:
      ret
  |} in
  let img = Asm.assemble ~name:"bb" src in
  let blocks = (Ddt_staticx.Icfg.build img).Ddt_staticx.Icfg.universe in
  (* main (0), fall-through after jz (16), target a (24). *)
  check_bool "has entry block" true (List.mem 0 blocks);
  check_bool "has fallthrough" true (List.mem 16 blocks);
  check_bool "has branch target" true (List.mem 24 blocks)

let test_interrupt_nesting () =
  (* Simulate an interrupt: nested call_function mid-run mutates a global
     the main code then observes. *)
  let src = {|
    .entry main
    .func isr
    isr:
      lea r1, flag
      movi r2, 1
      stw [r1+0], r2
      ret
    .func main
    main:
      lea r1, flag
      ldw r0, [r1+0]
      ret
    .data
    flag: .word 0
  |} in
  let img = Asm.assemble ~name:"irq" src in
  let mem = Mem.create () in
  let loaded = Image.load img mem ~base:Layout.image_base in
  let env = Interp.create ~image:loaded mem in
  Cpu.set env.Interp.cpu Isa.sp Layout.stack_top;
  let isr = Image.export_addr loaded "isr" in
  let main = Image.export_addr loaded "main" in
  let fired = ref false in
  env.Interp.on_step <-
    (fun pc ->
      if (not !fired) && pc = main then begin
        fired := true;
        (* Deliver the "interrupt" before main's first instruction. *)
        ignore (Interp.call_function env ~addr:isr ~args:[])
      end);
  let r0 = Interp.call_function env ~addr:main ~args:[] in
  check_int "ISR ran first" 1 r0

let test_asm_errors () =
  let expect_error src =
    match Asm.assemble ~name:"bad" src with
    | exception Asm.Error _ -> ()
    | _ -> Alcotest.fail ("should not assemble: " ^ src)
  in
  expect_error "bogus r0, r1";                      (* unknown mnemonic *)
  expect_error "movi r99, 1";                       (* bad register *)
  expect_error "jmp nowhere";                       (* undefined symbol *)
  expect_error "a: nop\na: nop";                    (* duplicate label *)
  expect_error ".data\nmovi r0, 1";                 (* code in .data *)
  expect_error ".word 5";                           (* data in .text *)
  expect_error "ldw r0, [r1+x]"                     (* bad offset *)

let test_disasm_listing () =
  let img = Asm.assemble ~name:"lst" {|
    .entry main
    .func main
    main:
      movi r0, 42
      ret
  |} in
  let listing = Format.asprintf "%a" Disasm.pp_listing img in
  let has needle =
    let n = String.length needle and l = String.length listing in
    let rec go i =
      i + n <= l && (String.sub listing i n = needle || go (i + 1))
    in
    go 0
  in
  check_bool "function label shown" true (has "main:");
  check_bool "instruction shown" true (has "movi r0, 42");
  check_bool "ret shown" true (has "ret")

(* Property: any sequence of valid instructions survives the image
   encode -> load -> disassemble pipeline intact. *)
let prop_image_disasm_roundtrip =
  let gen_instr =
    QCheck.Gen.(
      let reg = int_bound 15 in
      let imm = map (fun v -> v land 0xFFFFFFFF) int in
      oneof
        [ return Isa.Nop;
          map2 (fun a b -> Isa.Mov (a, b)) reg reg;
          map2 (fun a v -> Isa.Movi (a, v)) reg imm;
          (let* a = reg and* b = reg and* c = reg in
           return (Isa.Alu (Isa.Xor, a, b, c)));
          map2 (fun a v -> Isa.Cmpi (Isa.Leu, a, 0, v)) reg imm;
          map2 (fun a v -> Isa.Ldw (a, 1, v)) reg (int_bound 0xFFF);
          map (fun v -> Isa.Kcall (v land 0xFF)) imm;
          return Isa.Ret ])
  in
  QCheck.Test.make ~count:100 ~name:"image encode/disasm roundtrip"
    (QCheck.make QCheck.Gen.(list_size (int_range 1 40) gen_instr))
    (fun instrs ->
      let text = Buffer.create 256 in
      List.iter (fun i -> Buffer.add_bytes text (Isa.encode i)) instrs;
      let img =
        { Image.name = "prop"; text = Buffer.to_bytes text;
          data = Bytes.empty; bss_size = 0; entry = 0; imports = [||];
          exports = []; relocs = []; funcs = [ ("f", 0) ] }
      in
      let img' = Image.of_bytes (Image.to_bytes img) in
      List.map snd (Disasm.disassemble img') = instrs)

let qtest t = QCheck_alcotest.to_alcotest t

let () =
  Alcotest.run "ddt_dvm"
    [ ("isa",
       [ Alcotest.test_case "encode/decode samples" `Quick test_encode_roundtrip;
         qtest prop_random_alu_roundtrip;
         qtest prop_image_disasm_roundtrip ]);
      ("interp",
       [ Alcotest.test_case "factorial" `Quick test_factorial;
         Alcotest.test_case "calling convention" `Quick test_call_convention;
         Alcotest.test_case "data section" `Quick test_data_section;
         Alcotest.test_case "byte ops" `Quick test_byte_ops_and_space;
         Alcotest.test_case "null deref fault" `Quick test_null_deref_faults;
         Alcotest.test_case "div by zero fault" `Quick test_div_by_zero_faults;
         Alcotest.test_case "stack overflow fault" `Quick
           test_stack_overflow_faults;
         Alcotest.test_case "hlt stops" `Quick test_hlt_stops;
         QCheck_alcotest.to_alcotest prop_fuel_exact;
         Alcotest.test_case "kcall dispatch" `Quick test_kcall_dispatch;
         Alcotest.test_case "mmio hook" `Quick test_mmio_hook;
         Alcotest.test_case "interrupt nesting" `Quick test_interrupt_nesting ]);
      ("image",
       [ Alcotest.test_case "serialization roundtrip" `Quick
           test_image_serialization;
         Alcotest.test_case "relocation" `Quick test_relocation;
         Alcotest.test_case "basic blocks" `Quick test_basic_blocks ]);
      ("tools",
       [ Alcotest.test_case "assembler diagnostics" `Quick test_asm_errors;
         Alcotest.test_case "disassembly listing" `Quick test_disasm_listing ]) ]
