module Expr = Ddt_solver.Expr
module Interval = Ddt_solver.Interval
module Layout = Ddt_dvm.Layout
module Image = Ddt_dvm.Image
module Kstate = Ddt_kernel.Kstate
module Exec = Ddt_symexec.Exec
module St = Ddt_symexec.Symstate

type t = {
  sink : Report.sink;
  driver : string;
  loaded : Image.loaded;
  symdev : Ddt_hw.Symdev.t;
}

let create ~sink ~driver ~loaded ~symdev = { sink; driver; loaded; symdev }

type verdict =
  | Ok_access
  | Bad of string   (* description *)

let classify t (st : St.t) ~write ~sp addr =
  let l = t.loaded in
  if addr >= l.Image.text_start && addr < l.Image.text_end then
    if write then Bad "write into the driver's code section" else Ok_access
  else if addr >= l.Image.data_start && addr < l.Image.data_end then Ok_access
  else if addr >= Layout.stack_limit && addr < Layout.stack_top then
    if addr >= sp then Ok_access
    else
      Bad
        (Printf.sprintf
           "access below the stack pointer (0x%x < sp 0x%x); an interrupt \
            handler could overwrite this location"
           addr sp)
  else if Ddt_hw.Symdev.is_device_addr t.symdev addr then Ok_access
  else
    match Kstate.region_containing st.St.ks addr with
    | Some _ -> Ok_access
    | None -> (
        if addr >= Layout.kernel_base then
          Bad "dereference of a kernel handle (opaque to drivers)"
        else if addr >= Layout.heap_base && addr < Layout.heap_limit then
          Bad "access to heap memory not (or no longer) owned by the driver"
        else Bad (Printf.sprintf "access to unmapped address 0x%x" addr))

(* Bound the symbolic address; report when it can escape the region that
   contains the concrete witness. *)
let symbolic_escape t (st : St.t) (ma : Exec.mem_access) =
  if
    Expr.is_const ma.Exec.ma_addr
    || Expr.is_const (Ddt_solver.Simplify.simplify ma.Exec.ma_addr)
  then None
  else
    match Interval.infer ma.Exec.ma_constraints with
    | None -> None
    | Some env ->
        (* [range_within], not [range_of]: a post-dominator merge turns a
           clamped index into [ite(guard, clamped, raw)] with the clamp
           inside the guard, and only the guard-conditioned range stays
           tight enough to avoid a false escape report. *)
        let range = Interval.range_within env ma.Exec.ma_addr in
        let l = t.loaded in
        let inside lo hi =
          (* Entirely within one permitted region? *)
          (lo >= l.Image.data_start && hi < l.Image.data_end)
          || (lo >= l.Image.text_start && hi < l.Image.text_end)
          || (lo >= ma.Exec.ma_sp && hi < Layout.stack_top)
          || (Ddt_hw.Symdev.is_device_addr t.symdev lo
              && Ddt_hw.Symdev.is_device_addr t.symdev hi)
          || (match Kstate.region_containing st.St.ks lo with
              | Some r -> hi < r.Kstate.r_start + r.Kstate.r_size
              | None -> false)
        in
        if inside range.Interval.lo range.Interval.hi then None
        else
          Some
            (Printf.sprintf
               "symbolic address can range over [0x%x, 0x%x], escaping every \
                granted region (unchecked input used in address arithmetic)"
               range.Interval.lo range.Interval.hi)

let bug_of ?(witness = []) ?constraints t (st : St.t) (ma : Exec.mem_access)
    msg =
  {
    Report.b_kind =
      (if Kstate.in_isr st.St.ks || Kstate.in_dpc st.St.ks then
         Report.Race_condition
       else Report.Memory_error);
    b_driver = t.driver;
    b_entry = st.St.entry_name;
    b_pc = ma.Exec.ma_pc;
    b_message = msg;
    b_key =
      Printf.sprintf "mem:%s:0x%x:%s" t.driver ma.Exec.ma_pc
        (if ma.Exec.ma_write then "w" else "r");
    b_state_id = st.St.id;
    b_events = st.St.trace;
    b_choices = st.St.choices;
    b_with_interrupt = st.St.injections > 0;
      b_replay = Ddt_symexec.Exec.replay_script ~extra:witness ?constraints st;
  }

let on_mem_access t (ma : Exec.mem_access) =
  let st = ma.Exec.ma_state in
  (match symbolic_escape t st ma with
   | Some msg ->
       (* The replay evidence must pin inputs that actually drive the
          address out of bounds, not just any feasible value: past the end
          of the region the concrete witness landed in (or anywhere above
          the heap when the witness hit no region at all). *)
       let escape_bound =
         match Kstate.region_containing st.St.ks ma.Exec.ma_conc with
         | Some r -> r.Kstate.r_start + r.Kstate.r_size - 1
         | None -> Layout.heap_limit
       in
       let witness =
         [ Expr.cmp Expr.Ltu (Expr.word escape_bound) ma.Exec.ma_addr ]
       in
       Report.report t.sink
         (bug_of ~witness ~constraints:ma.Exec.ma_constraints t st ma msg)
   | None -> ());
  match
    classify t st ~write:ma.Exec.ma_write ~sp:ma.Exec.ma_sp ma.Exec.ma_conc
  with
  | Ok_access -> ()
  | Bad msg ->
      (* The very low addresses fault in the engine and surface through
         the crash checker; avoid double-reporting them here. *)
      if ma.Exec.ma_conc >= Layout.null_guard then
        Report.report t.sink (bug_of t st ma msg)
