module Kstate = Ddt_kernel.Kstate
module St = Ddt_symexec.Symstate

let kind_of (st : St.t) (c : St.crash) =
  let interrupt_context =
    Kstate.in_isr st.St.ks || Kstate.in_dpc st.St.ks || st.St.pending <> []
  in
  if interrupt_context && st.St.injections > 0 then Report.Race_condition
  else if c.St.c_code = "DRIVER_FAULT" then Report.Segfault
  else Report.Kernel_crash

let on_state_done sink (st : St.t) =
  match st.St.status with
  | Some (St.Crashed c) ->
      let driver = Report.driver sink in
      let key = Printf.sprintf "crash:%s:%s:0x%x" driver c.St.c_code c.St.c_pc in
      Report.report sink ~key (fun () ->
          Report.of_state st ~kind:(kind_of st c) ~driver ~key
            ~pc:c.St.c_pc
            (Printf.sprintf "%s: %s" c.St.c_code c.St.c_msg))
  | _ -> ()
