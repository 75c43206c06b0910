(* Union-find over variable ids, with path compression. The structures are
   rebuilt per call: constraint sets are short (tens of entries) and the
   dominant cost is solving, not slicing. *)

type uf = (int, int) Hashtbl.t

let rec find (uf : uf) x =
  match Hashtbl.find_opt uf x with
  | None ->
      Hashtbl.replace uf x x;
      x
  | Some p when p = x -> x
  | Some p ->
      let r = find uf p in
      Hashtbl.replace uf x r;
      r

let union uf a b =
  let ra = find uf a and rb = find uf b in
  if ra <> rb then Hashtbl.replace uf ra rb

(* Build the equivalence classes for constraints paired with their
   variables. *)
let build cvars =
  let uf = Hashtbl.create 32 in
  List.iter
    (fun (_, vs) ->
      match vs with
      | [] -> ()
      | v0 :: rest ->
          ignore (find uf v0.Expr.id);
          List.iter (fun (v : Expr.var) -> union uf v0.Expr.id v.Expr.id) rest)
    cvars;
  uf

let with_vars cs = List.map (fun c -> (c, Expr.vars c)) cs

(* Key used for ground constraints (no variables). Variable ids are
   positive, so this never collides with a real root. *)
let ground_key = min_int

let partition_vars cvars =
  let uf = build cvars in
  let groups = Hashtbl.create 8 in
  let order = ref [] in
  let add key c =
    match Hashtbl.find_opt groups key with
    | Some r -> r := c :: !r
    | None ->
        Hashtbl.replace groups key (ref [ c ]);
        order := key :: !order
  in
  List.iter
    (fun ((_, vs) as cv) ->
      match vs with
      | [] -> add ground_key cv
      | v :: _ -> add (find uf v.Expr.id) cv)
    cvars;
  List.rev_map (fun key -> List.rev !(Hashtbl.find groups key)) !order

let partition cs = List.map (List.map fst) (partition_vars (with_vars cs))

let relevant cs e =
  let cvars = with_vars cs in
  let uf = build cvars in
  let roots =
    List.fold_left
      (fun acc (v : Expr.var) ->
        let r = find uf v.Expr.id in
        if List.mem r acc then acc else r :: acc)
      [] (Expr.vars e)
  in
  List.filter_map
    (fun (c, vs) ->
      match vs with
      | [] -> None
      | v :: _ -> if List.mem (find uf v.Expr.id) roots then Some c else None)
    cvars
