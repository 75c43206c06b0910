module St = Ddt_symexec.Symstate

let on_state_done sink (st : St.t) =
  match st.St.status with
  | Some St.Exhausted ->
      let driver = Report.driver sink in
      let key = Printf.sprintf "loop:%s:%s" driver st.St.entry_name in
      Report.report sink ~key (fun () ->
          Report.of_state st ~kind:Report.Infinite_loop ~driver ~key
            ~pc:st.St.pc
            (Printf.sprintf
               "entry point %s did not return within %d instructions \
                (looping near pc 0x%x); the machine hangs at raised IRQL"
               st.St.entry_name st.St.steps st.St.pc))
  | _ -> ()
