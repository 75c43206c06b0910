module Kstate = Ddt_kernel.Kstate
module St = Ddt_symexec.Symstate

let describe allocs =
  let by_kind = Hashtbl.create 8 in
  List.iter
    (fun a ->
      let k = Kstate.string_of_alloc_kind a.Kstate.a_kind in
      Hashtbl.replace by_kind k
        (1 + try Hashtbl.find by_kind k with Not_found -> 0))
    allocs;
  Hashtbl.fold (fun k n acc -> Printf.sprintf "%d %s" n k :: acc) by_kind []
  |> List.sort compare |> String.concat ", "

let report_leak sink (st : St.t) allocs ~context =
  let driver = Report.driver sink in
  let key = Printf.sprintf "leak:%s:%s" driver st.St.entry_name in
  Report.report sink ~key (fun () ->
      Report.of_state st ~kind:Report.Resource_leak ~driver ~key
        ~pc:st.St.pc
        (Printf.sprintf "%s: %s not released (%s)" context (describe allocs)
           (String.concat ", "
              (List.map
                 (fun a ->
                   Printf.sprintf "%s id=%d"
                     (Kstate.string_of_alloc_kind a.Kstate.a_kind)
                     a.Kstate.a_id)
                 allocs))))

let on_state_done sink (st : St.t) =
  match st.St.status with
  | Some (St.Returned ret) -> (
      let ks = st.St.ks in
      match st.St.entry_name with
      | "halt" ->
          let leaked = Kstate.live_allocs ks in
          if leaked <> [] then
            report_leak sink st leaked ~context:"resources still held after Halt"
      | "load" -> ()
      | entry when ret <> 0 ->
          (* A failing entry point must undo everything it acquired during
             this invocation. *)
          let leaked =
            Kstate.live_allocs_of_invocation ks (Kstate.invocation ks)
          in
          if leaked <> [] then
            report_leak sink st leaked
              ~context:
                (Printf.sprintf
                   "%s failed (status %d) without releasing already-acquired \
                    resources"
                   entry ret)
      | _ -> ())
  | _ -> ()
