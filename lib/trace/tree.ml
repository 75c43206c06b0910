type 'l node = {
  t_id : int;
  t_parent : int;
  t_label : 'l;
  t_forks : int;
  mutable t_children : int list;
}

type 'l t = {
  nodes : (int, 'l node) Hashtbl.t;
  mutable root_ids : int list;
}

let build entries =
  let t = { nodes = Hashtbl.create 64; root_ids = [] } in
  List.iter
    (fun (id, parent, label, forks) ->
      Hashtbl.replace t.nodes id
        { t_id = id; t_parent = parent; t_label = label; t_forks = forks;
          t_children = [] })
    entries;
  Hashtbl.iter
    (fun id n ->
      match Hashtbl.find_opt t.nodes n.t_parent with
      | Some p when n.t_parent <> id -> p.t_children <- id :: p.t_children
      | _ -> t.root_ids <- id :: t.root_ids)
    t.nodes;
  Hashtbl.iter (fun _ n -> n.t_children <- List.sort compare n.t_children)
    t.nodes;
  t.root_ids <- List.sort compare t.root_ids;
  t

let node t id = Hashtbl.find_opt t.nodes id
let roots t = t.root_ids
let size t = Hashtbl.length t.nodes

let rec depth_of t id =
  match node t id with
  | None -> 0
  | Some n ->
      1 + List.fold_left (fun acc c -> max acc (depth_of t c)) 0 n.t_children

let depth t = List.fold_left (fun acc r -> max acc (depth_of t r)) 0 t.root_ids

let path_to_root t id =
  let rec go id acc =
    match node t id with
    | None -> acc
    | Some n ->
        if n.t_parent = 0 || n.t_parent = id then id :: acc
        else go n.t_parent (id :: acc)
  in
  List.rev (go id [])

let pp_with pp_label fmt t =
  let rec render indent id =
    match node t id with
    | None -> ()
    | Some n ->
        Format.fprintf fmt "%s+- state %d: %a%s@." indent n.t_id pp_label
          n.t_label
          (if n.t_forks > 0 then Printf.sprintf " (%d forks)" n.t_forks else "");
        List.iter (render (indent ^ "|  ")) n.t_children
  in
  List.iter (render "") t.root_ids

let pp = pp_with Format.pp_print_string
