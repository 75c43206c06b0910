type impl = Kstate.t -> Mach.t -> unit

let table : (string, impl) Hashtbl.t = Hashtbl.create 64

let register name impl = Hashtbl.replace table name impl
let find name = Hashtbl.find_opt table name

let call ks mach name =
  match find name with
  | None -> failwith (Printf.sprintf "driver imports unknown kernel API %S" name)
  | Some impl ->
      Kstate.bump_kcall ks;
      impl ks mach
