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
          {
            Report.b_kind = Report.Infinite_loop;
            b_driver = t.driver;
            b_entry = st.St.entry_name;
            b_pc = st.St.pc;
            b_message =
              Printf.sprintf
                "entry point %s did not return within %d instructions \
                 (looping near pc 0x%x); the machine hangs at raised IRQL"
                st.St.entry_name st.St.steps st.St.pc;
            b_key = key;
            b_state_id = st.St.id;
            b_events = st.St.trace;
            b_mem_accesses = st.St.mem_accesses;
            b_choices = st.St.choices;
            b_with_interrupt = st.St.injections > 0;
            b_replay = Ddt_symexec.Exec.replay_script st;
          })
  | _ -> ()
