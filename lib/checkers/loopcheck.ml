module St = Ddt_symexec.Symstate

type t = {
  sink : Report.sink;
  driver : string;
}

let create ~sink ~driver = { sink; driver }

let on_state_done t (st : St.t) =
  match st.St.status with
  | Some St.Exhausted ->
      let key = Printf.sprintf "loop:%s:%s" t.driver st.St.entry_name in
      Report.report t.sink ~key (fun () ->
          Report.of_state st ~kind:Report.Infinite_loop ~driver:t.driver ~key
            ~pc:st.St.pc
            (Printf.sprintf
               "entry point %s did not return within %d instructions \
                (looping near pc 0x%x); the machine hangs at raised IRQL"
               st.St.entry_name st.St.steps st.St.pc))
  | _ -> ()
