module Kstate = Ddt_kernel.Kstate
module Mach = Ddt_kernel.Mach
module St = Ddt_symexec.Symstate

let bug sink (st : St.t) ~key ~msg =
  let driver = Report.driver sink in
  let key = Printf.sprintf "api:%s:%s" driver key in
  Report.report sink ~key (fun () ->
      Report.of_state st ~kind:Report.Kernel_crash ~driver ~key
        ~pc:st.St.pc msg)

let on_kcall_enter sink (st : St.t) name (m : Mach.t) =
  let ks = st.St.ks in
  match name with
  | "NdisFreeMemory" -> (
      let addr = m.Mach.arg 0 in
      let len = m.Mach.arg 1 in
      match Kstate.alloc_of_addr ks addr with
      | Some a when (not a.Kstate.a_freed) && a.Kstate.a_size <> len ->
          bug sink st
            ~key:(Printf.sprintf "freelen:0x%x" st.St.pc)
            ~msg:
              (Printf.sprintf
                 "NdisFreeMemory called with length %d for an allocation of \
                  %d bytes; the pool bookkeeping trusts the caller and \
                  corrupts adjacent blocks"
                 len a.Kstate.a_size)
      | _ -> ())
  | "NdisMRegisterInterrupt" ->
      if Kstate.driver_ctx ks = 0 then
        bug sink st ~key:"isr-noctx"
          ~msg:
            "NdisMRegisterInterrupt before NdisMSetAttributes: the ISR \
             would be invoked with a null miniport context"
  | "NdisAllocateMemoryWithTag" | "ExAllocatePoolWithTag" ->
      (* Both APIs carry the size as their second argument. *)
      if m.Mach.arg 1 = 0 then
        bug sink st
          ~key:(Printf.sprintf "zeroalloc:0x%x" st.St.pc)
          ~msg:(name ^ " called with a zero size")
  | _ -> ()
