type impl = Kstate.t -> Mach.t -> unit

let table : (string, impl) Hashtbl.t = Hashtbl.create 64

let register name impl = Hashtbl.replace table name impl
let find name = Hashtbl.find_opt table name

let call ?(pre = fun _ _ _ -> ()) ?(post = fun _ _ _ -> ()) ks mach name =
  match find name with
  | None -> failwith (Printf.sprintf "driver imports unknown kernel API %S" name)
  | Some impl ->
      Kstate.bump_kcall ks;
      pre name ks mach;
      impl ks mach;
      post name ks mach
