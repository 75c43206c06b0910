(* Interprocedural, flow-sensitive dataflow framework over the Icfg.

   Two layers:

   1. A *value pre-pass* ([analyze]): a per-function Kildall fixpoint
      computing, at every block, an abstract machine state (registers,
      frame slots, operand stack, nonzero-global guard set) in terms of
      symbolic incoming arguments ([Barg]).  Its stabilized output is a
      per-block *event stream* — kernel calls with recovered argument
      values, loads and stores with recovered addresses, each annotated
      with the guard set in force — plus per-successor refined states
      (branch guards) and call-site argument vectors.

   2. A *client fixpoint* ([Make]): a context-tabulated interprocedural
      worklist over a join-semilattice client domain.  The client only
      sees the event stream; call/return plumbing (function summaries,
      context widening, dependency re-enqueueing) is owned here, so new
      checkers are instances, not engines.

   Soundness boundary (documented in DESIGN.md): stores through
   non-global pointers (heap/context) are assumed not to alias driver
   globals — globals are only addressed through [lea], which the Mini-C
   compiler guarantees.  Kernel calls may write driver memory only
   through pointer arguments (out-params). *)

module Isa = Ddt_dvm.Isa
module Image = Ddt_dvm.Image
module Annot = Ddt_annot.Annot

let nregs = 16
let sort_uniq = List.sort_uniq compare

(* --- abstract values -------------------------------------------------- *)

type base =
  | Bconst                 (* pure constant; the value is [disp] *)
  | Bimage                 (* image-relative address [disp] *)
  | Bglobal of int         (* value loaded from data word at offset g *)
  | Barg of int            (* i-th incoming argument of this function *)
  | Bframe                 (* frame address fp+[disp] ([disp] signed) *)
  | Btop

type av = {
  base : base;
  disp : int;
  nz : int list option;
  (* "if this value is nonzero, each listed global was tested nonzero";
     [None] is the universal (vacuous) set — the value cannot be
     nonzero.  Joins intersect, [None] is the identity. *)
  z : int list option;     (* same, for "this value is zero" *)
}

let signed v =
  let v = v land 0xFFFFFFFF in
  if v land 0x80000000 <> 0 then v - 0x100000000 else v

let av_top = { base = Btop; disp = 0; nz = Some []; z = Some [] }

let av_const k =
  let k = k land 0xFFFFFFFF in
  { base = Bconst;
    disp = k;
    nz = (if k = 0 then None else Some []);
    z = (if k = 0 then Some [] else None) }

(* Image addresses are rebased at load and never zero. *)
let av_image a = { base = Bimage; disp = a; nz = Some []; z = None }
let av_frame d = { base = Bframe; disp = d; nz = Some []; z = None }
let av_arg i = { base = Barg i; disp = 0; nz = Some []; z = Some [] }

let inter_opt a b =
  match (a, b) with
  | None, x | x, None -> x
  | Some a, Some b -> Some (List.filter (fun g -> List.mem g b) a)

let union_opt a b =
  match (a, b) with
  | None, _ | _, None -> None
  | Some a, Some b -> Some (sort_uniq (a @ b))

let join_av a b =
  if a = b then a
  else
    let same = a.base = b.base && a.disp = b.disp in
    { base = (if same then a.base else Btop);
      disp = (if same then a.disp else 0);
      nz = inter_opt a.nz b.nz;
      z = inter_opt a.z b.z }

let pp_av fmt v =
  (match v.base with
   | Bconst -> Format.fprintf fmt "%#x" v.disp
   | Bimage -> Format.fprintf fmt "img+%#x" v.disp
   | Bglobal g -> Format.fprintf fmt "[g%#x]%s" g
                    (if v.disp = 0 then "" else Printf.sprintf "%+d" v.disp)
   | Barg i -> Format.fprintf fmt "arg%d%s" i
                 (if v.disp = 0 then "" else Printf.sprintf "%+d" v.disp)
   | Bframe -> Format.fprintf fmt "fp%+d" v.disp
   | Btop -> Format.fprintf fmt "?");
  ignore fmt

(* Substitute a callee-relative value into caller terms through the
   actual argument vector of a call site. *)
let av_subst ~args v =
  match v.base with
  | Barg i -> (
      match args with
      | Some l when i < List.length l -> (
          let a = List.nth l i in
          match a.base with
          | Btop -> av_top
          | Bconst -> av_const (a.disp + v.disp)
          | _ -> { a with disp = a.disp + v.disp; nz = Some []; z = Some [] })
      | _ -> av_top)
  | Bframe -> av_top (* callee-frame addresses are meaningless upstream *)
  | _ -> v

(* --- machine state ---------------------------------------------------- *)

type vstate = {
  regs : av array;
  frame : (int * av) list;      (* signed fp offset -> value, sorted *)
  stack : av list;              (* operand stack, head = top *)
  stack_ok : bool;              (* false once push/pop tracking is lost *)
  guards : int list;            (* globals known nonzero here, sorted *)
}

let entry_vstate () =
  { regs = Array.make nregs av_top;
    frame = [];
    stack = [];
    stack_ok = true;
    guards = [] }

let frame_set frame d v =
  (d, v) :: List.filter (fun (d', _) -> d' <> d) frame |> List.sort compare

let frame_del frame d = List.filter (fun (d', _) -> d' <> d) frame

let join_vstate a b =
  let frame =
    List.filter_map
      (fun (d, v) ->
        match List.assoc_opt d b.frame with
        | Some v' -> Some (d, join_av v v')
        | None -> None)
      a.frame
  in
  let stack_ok =
    a.stack_ok && b.stack_ok && List.length a.stack = List.length b.stack
  in
  { regs = Array.init nregs (fun i -> join_av a.regs.(i) b.regs.(i));
    frame;
    stack = (if stack_ok then List.map2 join_av a.stack b.stack else []);
    stack_ok;
    guards = List.filter (fun g -> List.mem g b.guards) a.guards }

let equal_vstate a b =
  a.regs = b.regs && a.frame = b.frame && a.stack = b.stack
  && a.stack_ok = b.stack_ok && a.guards = b.guards

(* Forget everything implied by global [g]: it was just overwritten. *)
let kill_global st g =
  let strip = function
    | Some l when List.mem g l -> Some (List.filter (( <> ) g) l)
    | o -> o
  in
  let fix v = { v with nz = strip v.nz; z = strip v.z } in
  { st with
    regs = Array.map fix st.regs;
    frame = List.map (fun (d, v) -> (d, fix v)) st.frame;
    stack = List.map fix st.stack;
    guards = List.filter (( <> ) g) st.guards }

let add_guards gs = function
  | None -> gs                       (* vacuous: path is infeasible *)
  | Some l -> sort_uniq (l @ gs)

(* --- events ----------------------------------------------------------- *)

type event =
  | E_kcall of { ev_off : int; name : string; args : av list option;
                 guards : int list }
      (* [args]: operand-stack snapshot, top first — a prefix of it is
         the argument vector ([None] when stack tracking was lost) *)
  | E_load of { ev_off : int; addr : av; guards : int list }
  | E_store of { ev_off : int; addr : av; value : av; guards : int list }

(* --- instruction transfer --------------------------------------------- *)

let definitely_nonzero v =
  match v.base with
  | Bconst -> v.disp <> 0
  | Bimage | Bframe -> true
  | _ -> false

let av_add a b =
  match (a.base, b.base) with
  | Bconst, Bconst -> av_const (a.disp + b.disp)
  | Bconst, (Bimage | Bglobal _ | Barg _ | Bframe) ->
      { b with disp = b.disp + signed a.disp; nz = Some []; z = b.z }
  | (Bimage | Bglobal _ | Barg _ | Bframe), Bconst ->
      { a with disp = a.disp + signed b.disp; nz = Some []; z = a.z }
  | _ -> av_top

let av_sub a b =
  match (a.base, b.base) with
  | Bconst, Bconst -> av_const (a.disp - b.disp)
  | (Bimage | Bglobal _ | Barg _ | Bframe), Bconst ->
      { a with disp = a.disp - signed b.disp; nz = Some []; z = a.z }
  | _ -> av_top

let alu op a b =
  match op with
  | Isa.Add -> av_add a b
  | Isa.Sub -> av_sub a b
  | _ when a.base = Bconst && b.base = Bconst -> (
      (* constant folding: table indexing uses [movi idx; shli ,2] *)
      let x = a.disp and y = b.disp in
      match op with
      | Isa.Mul -> av_const (x * y)
      | Isa.Divu -> if y = 0 then av_top else av_const (x / y)
      | Isa.Remu -> if y = 0 then av_top else av_const (x mod y)
      | Isa.And -> av_const (x land y)
      | Isa.Or -> av_const (x lor y)
      | Isa.Xor -> av_const (x lxor y)
      | Isa.Shl -> av_const (x lsl (y land 31))
      | Isa.Shru -> av_const ((x land 0xFFFFFFFF) lsr (y land 31))
      | Isa.Shrs -> av_const (signed x asr (y land 31))
      | Isa.Add | Isa.Sub -> av_top (* unreachable *))
  | Isa.And -> { av_top with nz = union_opt a.nz b.nz }
  | Isa.Or -> { av_top with z = union_opt a.z b.z }
  | _ -> av_top

let cmp cop a b =
  let is0 v = v.base = Bconst && v.disp = 0 in
  match cop with
  | Isa.Eq when a.base = Bconst && b.base = Bconst ->
      av_const (if a.disp = b.disp then 1 else 0)
  | Isa.Ne when a.base = Bconst && b.base = Bconst ->
      av_const (if a.disp <> b.disp then 1 else 0)
  | Isa.Eq when is0 b -> { av_top with nz = a.z; z = a.nz }
  | Isa.Eq when is0 a -> { av_top with nz = b.z; z = b.nz }
  | Isa.Ne when is0 b -> { av_top with nz = a.nz; z = a.z }
  | Isa.Ne when is0 a -> { av_top with nz = b.nz; z = b.z }
  | _ -> av_top

let addr_of st rs off = av_add st.regs.(rs) (av_const (signed off))

let load_value st addr =
  match addr.base with
  | Bframe -> (
      match List.assoc_opt addr.disp st.frame with
      | Some v -> v
      | None ->
          if addr.disp >= 8 && (addr.disp - 8) mod 4 = 0 then
            av_arg ((addr.disp - 8) / 4)
          else av_top)
  | Bimage -> { base = Bglobal addr.disp; disp = 0;
                nz = Some [ addr.disp ]; z = Some [] }
  | _ -> av_top

let set st r v =
  let regs = Array.copy st.regs in
  regs.(r) <- v;
  { st with regs }

let do_store st addr v =
  match addr.base with
  | Bframe -> { st with frame = frame_set st.frame addr.disp v }
  | Bimage ->
      let g = addr.disp in
      let st = kill_global st g in
      if definitely_nonzero v then
        { st with guards = sort_uniq (g :: st.guards) }
      else st
  | _ -> st (* heap/ctx store: assumed not to alias globals *)

let rec drop_n n l =
  if n <= 0 then l else match l with [] -> [] | _ :: t -> drop_n (n - 1) t

let stack_window = Ddt_dvm.Layout.stack_top - Ddt_dvm.Layout.stack_limit

let rec push_n n v l = if n <= 0 then l else push_n (n - 1) v (v :: l)

(* Kernel call: arguments live on the operand stack (pushed
   right-to-left, cleaned by the caller afterwards).  The kernel may
   write through pointer arguments, so global/frame out-params die. *)
let do_kcall st =
  let st =
    if st.stack_ok then
      List.fold_left
        (fun st a ->
          match a.base with
          | Bimage -> kill_global st a.disp
          | Bframe -> { st with frame = frame_del st.frame a.disp }
          | _ -> st)
        st st.stack
    else { st with guards = []; frame = [] }
  in
  let regs = Array.copy st.regs in
  for i = 0 to nregs - 1 do
    if i <> Isa.fp && i <> Isa.sp then regs.(i) <- av_top
  done;
  { st with regs }

(* Driver-internal call: callee may store any global and may write
   caller locals whose addresses escaped through the operand stack.
   [ret] is the callee's return value in caller terms, when known. *)
let after_call st ~ret =
  let st =
    if st.stack_ok then
      List.fold_left
        (fun st a ->
          match a.base with
          | Bframe -> { st with frame = frame_del st.frame a.disp }
          | _ -> st)
        st st.stack
    else { st with frame = [] }
  in
  let regs = Array.copy st.regs in
  for i = 0 to nregs - 1 do
    if i <> Isa.fp && i <> Isa.sp then regs.(i) <- av_top
  done;
  regs.(0) <- ret;
  { st with regs; guards = [] }

(* One instruction.  [emit] receives recovered events; control transfer
   is handled at block level. *)
let step icfg emit st (pos, instr) =
  match instr with
  | Isa.Nop | Isa.Cli | Isa.Sti | Isa.Jmp _ | Isa.Jz _ | Isa.Jnz _
  | Isa.Ret | Isa.Hlt | Isa.Call _ | Isa.Callr _ ->
      st
  | Isa.Mov (rd, rs) ->
      if rd = Isa.fp && rs = Isa.sp then set st rd (av_frame 0)
      else if rd = Isa.sp && rs = Isa.fp then
        (* epilogue: the operand stack above the frame is discarded *)
        { st with stack = []; stack_ok = true }
      else set st rd st.regs.(rs)
  | Isa.Movi (rd, k) -> set st rd (av_const k)
  | Isa.Lea (rd, a) -> set st rd (av_image a)
  | Isa.Alu (op, rd, r1, r2) -> set st rd (alu op st.regs.(r1) st.regs.(r2))
  | Isa.Alui (op, rd, r1, k) ->
      if rd = Isa.sp && r1 = Isa.sp then
        (* explicit stack adjustment: kcall argument cleanup / reserve.
           The immediate is a signed byte count; an adjustment that is
           not whole words or exceeds the stack window drops tracking. *)
        let reserve =
          match op with
          | Isa.Sub -> Some (signed k)
          | Isa.Add -> Some (- signed k)
          | _ -> None
        in
        (match reserve with
         | Some b when b mod 4 = 0 && abs b <= stack_window ->
             if b >= 0 then { st with stack = push_n (b / 4) av_top st.stack }
             else { st with stack = drop_n (- b / 4) st.stack }
         | _ -> { st with stack = []; stack_ok = false })
      else set st rd (alu op st.regs.(r1) (av_const k))
  | Isa.Cmp (cop, rd, r1, r2) -> set st rd (cmp cop st.regs.(r1) st.regs.(r2))
  | Isa.Cmpi (cop, rd, r1, k) -> set st rd (cmp cop st.regs.(r1) (av_const k))
  | Isa.Ldw (rd, rs, off) ->
      let addr = addr_of st rs off in
      emit (E_load { ev_off = pos; addr; guards = st.guards });
      set st rd (load_value st addr)
  | Isa.Ldb (rd, rs, off) ->
      let addr = addr_of st rs off in
      emit (E_load { ev_off = pos; addr; guards = st.guards });
      set st rd av_top
  | Isa.Stw (rs1, off, rs2) ->
      let addr = addr_of st rs1 off in
      let v = st.regs.(rs2) in
      emit (E_store { ev_off = pos; addr; value = v; guards = st.guards });
      do_store st addr v
  | Isa.Stb (rs1, off, _rs2) ->
      let addr = addr_of st rs1 off in
      emit (E_store { ev_off = pos; addr; value = av_top;
                      guards = st.guards });
      (* byte store: clobber rather than track *)
      do_store st addr av_top
  | Isa.Push r ->
      if st.stack_ok then { st with stack = st.regs.(r) :: st.stack } else st
  | Isa.Pop r -> (
      match st.stack with
      | v :: rest -> { (set st r v) with stack = rest }
      | [] -> { (set st r av_top) with stack_ok = false })
  | Isa.Kcall n ->
      let name =
        let imports = icfg.Icfg.image.Image.imports in
        if n >= 0 && n < Array.length imports then imports.(n)
        else Printf.sprintf "kcall_%d" n
      in
      emit
        (E_kcall { ev_off = pos; name;
                   args = (if st.stack_ok then Some st.stack else None);
                   guards = st.guards });
      do_kcall st

(* --- per-block results ------------------------------------------------ *)

type binfo = {
  bi_in : vstate;
  bi_events : event list;
  bi_succ : (int * vstate) list;  (* refined per-successor exit states *)
  bi_call_args : av list option;  (* T_call(r): stack snapshot at the call *)
}

type finfo = {
  fi_func : Icfg.func;
  fi_blocks : (int * binfo) list;
  fi_ret : av;                    (* join of r0 over ret blocks *)
}

type t = {
  icfg : Icfg.t;
  funcs : (int * finfo) list;     (* keyed by fn_entry, sorted *)
}

(* Successor states after a block: branch edges gain the tested
   register's implication set as guards.  [bb_succs] is sorted, so the
   branch target/fall-through split is recovered from the terminator
   instruction itself. *)
let succ_states (b : Icfg.block) st ~ret_of =
  let last () =
    match List.rev b.Icfg.bb_instrs with
    | (pos, i) :: _ -> Some (pos, i)
    | [] -> None
  in
  match b.Icfg.bb_term with
  | Icfg.T_branch t -> (
      match last () with
      | Some (pos, Isa.Jz (r, _)) | Some (pos, Isa.Jnz (r, _)) ->
          let fall = pos + Isa.instr_size in
          let v = st.regs.(r) in
          let on_zero = { st with guards = add_guards st.guards v.z } in
          let on_nonzero = { st with guards = add_guards st.guards v.nz } in
          let tgt, fth =
            match last () with
            | Some (_, Isa.Jz _) -> (on_zero, on_nonzero)
            | _ -> (on_nonzero, on_zero)
          in
          if t = fall then List.map (fun s -> (s, st)) b.Icfg.bb_succs
          else
            List.map (fun s -> if s = t then (s, tgt) else (s, fth))
              b.Icfg.bb_succs
      | _ -> List.map (fun s -> (s, st)) b.Icfg.bb_succs)
  | Icfg.T_call _ | Icfg.T_callr _ ->
      let args = if st.stack_ok then Some st.stack else None in
      let ret =
        let rets =
          List.filter_map (fun callee -> ret_of callee ~args) b.Icfg.bb_calls
        in
        match rets with
        | [] -> av_top
        | r :: rest -> List.fold_left join_av r rest
      in
      let out = after_call st ~ret in
      List.map (fun s -> (s, out)) b.Icfg.bb_succs
  | _ -> List.map (fun s -> (s, st)) b.Icfg.bb_succs

let analyze_func icfg ~ret_of (fn : Icfg.func) =
  let ins : (int, vstate) Hashtbl.t = Hashtbl.create 16 in
  Hashtbl.replace ins fn.Icfg.fn_entry (entry_vstate ());
  let work = Queue.create () in
  Queue.add fn.Icfg.fn_entry work;
  let no_emit _ = () in
  while not (Queue.is_empty work) do
    let l = Queue.pop work in
    match (Icfg.block icfg l, Hashtbl.find_opt ins l) with
    | Some b, Some st0 ->
        let st =
          List.fold_left (step icfg no_emit) st0 b.Icfg.bb_instrs
        in
        List.iter
          (fun (s, out) ->
            if List.mem s fn.Icfg.fn_blocks then
              match Hashtbl.find_opt ins s with
              | None ->
                  Hashtbl.replace ins s out;
                  Queue.add s work
              | Some old ->
                  let j = join_vstate old out in
                  if not (equal_vstate j old) then begin
                    Hashtbl.replace ins s j;
                    Queue.add s work
                  end)
          (succ_states b st ~ret_of)
    | _ -> ()
  done;
  (* Final pass over the stabilized states: record events and refined
     successor states per block. *)
  let fi_blocks =
    List.filter_map
      (fun l ->
        match (Icfg.block icfg l, Hashtbl.find_opt ins l) with
        | Some b, Some bi_in ->
            let evs = ref [] in
            let emit e = evs := e :: !evs in
            let st =
              List.fold_left (step icfg emit) bi_in b.Icfg.bb_instrs
            in
            let bi_call_args =
              match b.Icfg.bb_term with
              | Icfg.T_call _ | Icfg.T_callr _ when st.stack_ok ->
                  Some st.stack
              | _ -> None
            in
            Some
              (l, { bi_in; bi_events = List.rev !evs;
                    bi_succ = succ_states b st ~ret_of; bi_call_args })
        | _ -> None)
      fn.Icfg.fn_blocks
  in
  let fi_ret =
    let rets =
      List.filter_map
        (fun l ->
          match (List.assoc_opt l fi_blocks, Icfg.block icfg l) with
          | Some bi, Some b ->
              let st =
                List.fold_left (step icfg (fun _ -> ())) bi.bi_in
                  b.Icfg.bb_instrs
              in
              Some st.regs.(0)
          | _ -> None)
        fn.Icfg.fn_rets
    in
    match rets with
    | [] -> av_top
    | r :: rest -> List.fold_left join_av r rest
  in
  { fi_func = fn; fi_blocks; fi_ret }

(* Bottom-up call-graph order so callee return values are available to
   callers; cycle members see [av_top]. *)
let analyze (icfg : Icfg.t) =
  let order =
    let visited = Hashtbl.create 16 in
    let out = ref [] in
    let rec dfs entry =
      if not (Hashtbl.mem visited entry) then begin
        Hashtbl.replace visited entry ();
        (match List.assoc_opt entry icfg.Icfg.call_graph with
         | Some callees -> List.iter dfs callees
         | None -> ());
        out := entry :: !out
      end
    in
    List.iter (fun f -> dfs f.Icfg.fn_entry) icfg.Icfg.funcs;
    List.rev !out
  in
  let done_ : (int, finfo) Hashtbl.t = Hashtbl.create 16 in
  let ret_of entry ~args =
    match Hashtbl.find_opt done_ entry with
    | Some fi -> Some (av_subst ~args fi.fi_ret)
    | None -> None
  in
  List.iter
    (fun entry ->
      match List.find_opt (fun f -> f.Icfg.fn_entry = entry) icfg.Icfg.funcs
      with
      | Some fn -> Hashtbl.replace done_ entry (analyze_func icfg ~ret_of fn)
      | None -> ())
    order;
  let funcs =
    List.sort compare
      (Hashtbl.fold (fun k v acc -> (k, v) :: acc) done_ [])
  in
  { icfg; funcs }

let block_info t leader =
  match Icfg.func_of_block t.icfg leader with
  | Some fn -> (
      match List.assoc_opt fn.Icfg.fn_entry t.funcs with
      | Some fi -> List.assoc_opt leader fi.fi_blocks
      | None -> None)
  | None -> None

(* --- handler-role recovery -------------------------------------------- *)

type roles = {
  ro_map : (int * Annot.handler_role) list;   (* fn_entry -> role, sorted *)
  ro_interrupt : int list;  (* entries reachable from ISR/DPC handlers *)
  ro_roots : (int * Annot.handler_role) list; (* analysis roots *)
}

(* Handler tables are written at run time ([lea table; ...; lea code;
   stw]) or pre-initialized in relocated data; registration passes the
   table base to the kernel.  Both sources feed one slot -> code map. *)
let roles t ~(model : Annot.api_model) =
  let icfg = t.icfg in
  let slot_code : (int, int) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun (slot, code) -> Hashtbl.replace slot_code slot code)
    icfg.Icfg.vsa.Vsa.data_code_refs;
  List.iter
    (fun (_, fi) ->
      List.iter
        (fun (_, bi) ->
          List.iter
            (fun ev ->
              match ev with
              | E_store { addr = { base = Bimage; disp = slot; _ };
                          value = { base = Bimage; disp = code; _ }; _ }
                when Hashtbl.mem icfg.Icfg.leader_of code ->
                  Hashtbl.replace slot_code slot code
              | _ -> ())
            bi.bi_events)
        fi.fi_blocks)
    t.funcs;
  let entry_of_code code =
    match Hashtbl.find_opt icfg.Icfg.leader_of code with
    | Some l -> (
        match Icfg.func_of_block icfg l with
        | Some fn -> Some fn.Icfg.fn_entry
        | None -> None)
    | None -> None
  in
  let map = ref [] in
  let add code role =
    match entry_of_code code with
    | Some e -> (
        match List.assoc_opt e !map with
        | Some Annot.Hr_isr -> ()  (* strongest role wins *)
        | Some Annot.Hr_dpc when role <> Annot.Hr_isr -> ()
        | _ -> map := (e, role) :: List.remove_assoc e !map)
    | None -> ()
  in
  let nth_arg args i =
    match args with
    | Some l when i < List.length l -> Some (List.nth l i)
    | _ -> None
  in
  List.iter
    (fun (_, fi) ->
      List.iter
        (fun (_, bi) ->
          List.iter
            (fun ev ->
              match ev with
              | E_kcall { name; args; _ } ->
                  List.iter
                    (fun rc ->
                      match rc with
                      | Annot.Reg_table { rt_api; rt_roles }
                        when rt_api = name -> (
                          match nth_arg args 0 with
                          | Some { base = Bimage; disp = tbl; _ } ->
                              List.iter
                                (fun (idx, role) ->
                                  match
                                    Hashtbl.find_opt slot_code
                                      (tbl + (4 * idx))
                                  with
                                  | Some code -> add code role
                                  | None -> ())
                                rt_roles
                          | _ -> ())
                      | Annot.Reg_arg { ra_api; ra_arg; ra_role }
                        when ra_api = name -> (
                          match nth_arg args ra_arg with
                          | Some { base = Bimage; disp = code; _ } ->
                              add code ra_role
                          | _ -> ())
                      | _ -> ())
                    model.Annot.m_registration
              | _ -> ())
            bi.bi_events)
        fi.fi_blocks)
    t.funcs;
  let ro_map = List.sort compare !map in
  (* interrupt context: ISR/DPC handlers plus everything they call *)
  let interrupt = Hashtbl.create 16 in
  let rec close entry =
    if not (Hashtbl.mem interrupt entry) then begin
      Hashtbl.replace interrupt entry ();
      match List.assoc_opt entry icfg.Icfg.call_graph with
      | Some callees -> List.iter close callees
      | None -> ()
    end
  in
  List.iter
    (fun (e, r) -> if r <> Annot.Hr_main then close e)
    ro_map;
  let ro_interrupt =
    List.sort compare (Hashtbl.fold (fun k () acc -> k :: acc) interrupt [])
  in
  (* roots: registered handlers, plus every function no one calls
     (exports the kernel invokes by name, the image entry, dead helpers
     — analyzing them as mains keeps coverage total) *)
  let called = Hashtbl.create 16 in
  List.iter
    (fun (_, callees) ->
      List.iter (fun c -> Hashtbl.replace called c ()) callees)
    icfg.Icfg.call_graph;
  let ro_roots =
    List.filter_map
      (fun f ->
        let e = f.Icfg.fn_entry in
        match List.assoc_opt e ro_map with
        | Some r -> Some (e, r)
        | None ->
            if Hashtbl.mem called e then None else Some (e, Annot.Hr_main))
      icfg.Icfg.funcs
  in
  { ro_map; ro_interrupt; ro_roots }

(* --- the interprocedural client fixpoint ------------------------------ *)

module type DOMAIN = sig
  type t

  val name : string
  val equal : t -> t -> bool
  val join : t -> t -> t

  val widen : t -> t -> t
  (** context widening: must over-approximate [join] and bound chains *)

  val entry : role:Annot.handler_role -> t
  (** initial state when a root entry point is invoked by the kernel *)

  val transfer : t -> event -> t

  val enter_call : t -> args:av list option -> t
  (** caller state at a call site -> callee entry context.  [args] is
      the operand-stack snapshot (top = arg 0) when tracked. *)

  val leave_call : caller:t -> args:av list option -> exit_:t option -> t
  (** merge the callee summary back; [exit_ = None] when no summary is
      available (unresolved indirect call, recursion in progress) *)
end

module Make (D : DOMAIN) = struct
  type instance = {
    i_id : int;
    i_entry : int;                       (* function entry offset *)
    mutable i_ctx : D.t;                 (* widened instances mutate *)
    i_widened : bool;
    i_in : (int, D.t) Hashtbl.t;         (* block leader -> IN state *)
    i_out : (int, D.t) Hashtbl.t;
    (* block leader -> OUT state, including call-return effects at
       T_call blocks (which a client-side event replay cannot see) *)
    i_rets : (int, D.t) Hashtbl.t;       (* ret leader -> OUT state *)
    mutable i_summary : D.t option;
    mutable i_deps : (int * int) list;   (* (caller instance id, leader) *)
  }

  type result = {
    vals : t;
    instances : instance list;           (* in creation order *)
  }

  let run ?(max_contexts = 8) ?pick (vals : t)
      ~(roots : (int * Annot.handler_role) list) =
    let icfg = vals.icfg in
    let instances : instance list ref = ref [] in
    let by_fn : (int, instance list) Hashtbl.t = Hashtbl.create 16 in
    let next_id = ref 0 in
    (* pending work: (instance, block leader).  [pick] chooses which
       index to service next — the fixpoint result must not depend on
       it (QCheck-verified). *)
    let pending : (instance * int) list ref = ref [] in
    let enqueue inst l =
      if not (List.exists (fun (i, l') -> i.i_id = inst.i_id && l' = l)
                !pending)
      then pending := !pending @ [ (inst, l) ]
    in
    let new_instance entry ctx widened =
      let inst =
        { i_id = !next_id; i_entry = entry; i_ctx = ctx;
          i_widened = widened; i_in = Hashtbl.create 16;
          i_out = Hashtbl.create 16;
          i_rets = Hashtbl.create 4; i_summary = None; i_deps = [] }
      in
      incr next_id;
      instances := inst :: !instances;
      Hashtbl.replace by_fn entry
        (inst :: (try Hashtbl.find by_fn entry with Not_found -> []));
      Hashtbl.replace inst.i_in entry ctx;
      enqueue inst entry;
      inst
    in
    let find_instance entry ctx =
      let existing = try Hashtbl.find by_fn entry with Not_found -> [] in
      match List.find_opt (fun i -> not i.i_widened && D.equal i.i_ctx ctx)
              existing
      with
      | Some i -> i
      | None -> (
          match List.find_opt (fun i -> i.i_widened) existing with
          | Some w ->
              let ctx' = D.widen w.i_ctx ctx in
              if not (D.equal ctx' w.i_ctx) then begin
                w.i_ctx <- ctx';
                Hashtbl.replace w.i_in entry
                  (match Hashtbl.find_opt w.i_in entry with
                   | Some old -> D.join old ctx'
                   | None -> ctx');
                enqueue w entry
              end;
              w
          | None ->
              if List.length existing >= max_contexts then begin
                (* too many contexts: collapse into one widened instance *)
                let ctx' =
                  List.fold_left (fun acc i -> D.widen acc i.i_ctx) ctx
                    existing
                in
                new_instance entry ctx' true
              end
              else new_instance entry ctx false)
    in
    let instance_by_id id =
      List.find (fun i -> i.i_id = id) !instances
    in
    let update_summary inst =
      let s =
        Hashtbl.fold
          (fun _ out acc ->
            match acc with
            | None -> Some out
            | Some a -> Some (D.join a out))
          inst.i_rets None
      in
      let changed =
        match (inst.i_summary, s) with
        | None, None -> false
        | None, Some _ -> true
        | Some _, None -> false
        | Some a, Some b -> not (D.equal a b)
      in
      if changed then begin
        inst.i_summary <- s;
        List.iter
          (fun (cid, l) -> enqueue (instance_by_id cid) l)
          inst.i_deps
      end
    in
    let process inst l =
      match (Icfg.block icfg l, Hashtbl.find_opt inst.i_in l,
             block_info vals l)
      with
      | Some b, Some din, Some bi ->
          let st = List.fold_left D.transfer din bi.bi_events in
          let fn_blocks =
            match Icfg.func_of_block icfg l with
            | Some fn -> fn.Icfg.fn_blocks
            | None -> []
          in
          let out =
            match b.Icfg.bb_term with
            | Icfg.T_call _ | Icfg.T_callr _ ->
                let args = bi.bi_call_args in
                let summaries =
                  List.map
                    (fun callee ->
                      let ctx = D.enter_call st ~args in
                      let ci = find_instance callee ctx in
                      if not (List.mem (inst.i_id, l) ci.i_deps) then
                        ci.i_deps <- (inst.i_id, l) :: ci.i_deps;
                      ci.i_summary)
                    b.Icfg.bb_calls
                in
                if summaries = [] then
                  (* unresolved indirect call: degrade conservatively *)
                  Some (D.leave_call ~caller:st ~args ~exit_:None)
                else if List.exists Option.is_none summaries then
                  (* a callee summary is still pending.  Do NOT propagate
                     a degraded state now: it would be joined with (and
                     permanently pollute) the real post-call state once
                     the summary lands and [i_deps] re-enqueues this
                     block.  The re-enqueue is the continuation. *)
                  None
                else
                  let ex =
                    match List.filter_map Fun.id summaries with
                    | [] -> assert false
                    | x :: rest -> Some (List.fold_left D.join x rest)
                  in
                  Some (D.leave_call ~caller:st ~args ~exit_:ex)
            | _ -> Some st
          in
          if b.Icfg.bb_term = Icfg.T_ret then begin
            Hashtbl.replace inst.i_rets l st;
            update_summary inst
          end;
          (match out with
           | None -> ()
           | Some out ->
               Hashtbl.replace inst.i_out l out;
               List.iter
                 (fun s ->
                   if List.mem s fn_blocks then
                     match Hashtbl.find_opt inst.i_in s with
                     | None ->
                         Hashtbl.replace inst.i_in s out;
                         enqueue inst s
                     | Some old ->
                         let j = D.join old out in
                         if not (D.equal j old) then begin
                           Hashtbl.replace inst.i_in s j;
                           enqueue inst s
                         end)
                 b.Icfg.bb_succs)
      | _ -> ()
    in
    List.iter
      (fun (entry, role) -> ignore (find_instance entry (D.entry ~role)))
      roots;
    let steps = ref 0 in
    let budget = 2_000_000 in
    while !pending <> [] && !steps < budget do
      incr steps;
      let n = List.length !pending in
      let idx =
        match pick with
        | Some f ->
            let i = f n in
            if i < 0 || i >= n then 0 else i
        | None -> 0
      in
      let item = List.nth !pending idx in
      pending := List.filteri (fun i _ -> i <> idx) !pending;
      let inst, l = item in
      process inst l
    done;
    { vals; instances = List.rev !instances }

  let iter_in_states result f =
    List.iter
      (fun inst ->
        match
          List.find_opt (fun fn -> fn.Icfg.fn_entry = inst.i_entry)
            result.vals.icfg.Icfg.funcs
        with
        | Some fn ->
            List.iter
              (fun l ->
                match Hashtbl.find_opt inst.i_in l with
                | Some din ->
                    f ~fn ~widened:inst.i_widened ~ctx:inst.i_ctx ~leader:l
                      ~din ~dout:(Hashtbl.find_opt inst.i_out l)
                | None -> ())
              fn.Icfg.fn_blocks
        | None -> ())
      result.instances

  (* Replay a block's event stream from a client state, visiting each
     event with the state in force just before it. *)
  let replay result ~din ~leader ~f =
    match block_info result.vals leader with
    | Some bi ->
        List.fold_left
          (fun st ev ->
            f st ev;
            D.transfer st ev)
          din bi.bi_events
    | None -> din

  let summaries result =
    List.map (fun i -> (i.i_entry, i.i_ctx, i.i_summary)) result.instances
end
