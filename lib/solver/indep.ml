(* The partition of a path condition, persistent: it grows one
   constraint at a time as states fork, and feasibility, concretization
   and [Solver.check] all read their groups off it. *)

module IM = Map.Make (Int)

(* A group's members carry their insertion index, so a slice can be put
   back in path-condition order (newest first) after merges have
   interleaved them. *)
type 'a group = {
  members : (int * 'a) list;
  gvars : int list;
  nvars : int;
}

type 'a t = {
  next : int;             (* insertion index of the next constraint *)
  owner : int IM.t;       (* variable id -> id of the group holding it *)
  groups : 'a group IM.t;
}

let empty = { next = 0; owner = IM.empty; groups = IM.empty }

let add t c vs =
  match vs with
  | [] -> t
  | _ ->
      let d = t.next in
      let ids = List.map (fun (v : Expr.var) -> v.Expr.id) vs in
      let fresh = List.filter (fun v -> not (IM.mem v t.owner)) ids in
      let touched =
        List.filter_map (fun v -> IM.find_opt v t.owner) ids
        |> List.sort_uniq compare
        |> List.map (fun g -> (g, IM.find g t.groups))
      in
      (* Union by size: the group with the most variables keeps its id,
         so only the smaller groups' variables are re-pointed. A
         constraint over fresh variables only opens a group of its own,
         named by its insertion index. *)
      let keep, base =
        List.fold_left
          (fun ((_, b) as best) ((_, g) as cand) ->
            if g.nvars > b.nvars then cand else best)
          (d, { members = []; gvars = []; nvars = 0 })
          touched
      in
      let absorbed = List.filter (fun (g, _) -> g <> keep) touched in
      let moved =
        List.fold_left
          (fun acc (_, g) -> List.rev_append g.gvars acc)
          fresh absorbed
      in
      let merged =
        List.fold_left
          (fun g (_, a) ->
            { members = List.rev_append a.members g.members;
              gvars = List.rev_append a.gvars g.gvars;
              nvars = g.nvars + a.nvars })
          { members = (d, c) :: base.members;
            gvars = List.rev_append fresh base.gvars;
            nvars = base.nvars + List.length fresh }
          absorbed
      in
      {
        next = d + 1;
        owner = List.fold_left (fun m v -> IM.add v keep m) t.owner moved;
        groups =
          IM.add keep merged
            (List.fold_left (fun m (g, _) -> IM.remove g m) t.groups absorbed);
      }

let in_order members =
  List.map snd (List.sort (fun (a, _) (b, _) -> compare b a) members)

let slice t vs =
  List.filter_map (fun (v : Expr.var) -> IM.find_opt v.Expr.id t.owner) vs
  |> List.sort_uniq compare
  |> List.concat_map (fun g -> (IM.find g t.groups).members)
  |> in_order

let groups t = IM.fold (fun _ g acc -> in_order g.members :: acc) t.groups []
