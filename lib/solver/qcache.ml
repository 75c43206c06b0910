type model = Expr.var -> int

type outcome = Hit of model | Miss

(* [models] holds values by variable number, newest first; [missed]
   holds the terms of every missed group, newest first. *)
type t = {
  mutable models : int array list;
  mutable missed : Expr.t list list;
}

let model_reuse = 12

let create () = { models = []; missed = [] }

type query = {
  terms : Expr.t list;
  index : (int * Expr.var) Expr.Idtbl.t;  (* id -> (number, variable) *)
}

let query group =
  let index = Expr.Idtbl.create () in
  let number (v : Expr.var) =
    if Expr.Idtbl.find_opt index v.Expr.id = None then
      Expr.Idtbl.add index v.Expr.id (Expr.Idtbl.length index, v)
  in
  List.iter (fun (_, vs) -> List.iter number vs) group;
  { terms = List.map fst group; index }

(* A stored model read over the query's variables. A model stored by a
   group with a wider variable at the same number may hold a value too
   wide for this one, so each value is masked to its variable's width. *)
let env q a (v : Expr.var) =
  match Expr.Idtbl.find_opt q.index v.Expr.id with
  | Some (i, _) when i < Array.length a ->
      a.(i) land Expr.mask_of_width v.Expr.var_width
  | _ -> 0

let lookup t q =
  let rec try_models = function
    | [] ->
        t.missed <- q.terms :: t.missed;
        Miss
    | a :: rest ->
        let m = env q a in
        if List.for_all (fun c -> Expr.eval m c = 1) q.terms then Hit m
        else try_models rest
  in
  try_models t.models

let store t q m =
  let values = List.map (fun (_, v) -> m v) (Expr.Idtbl.values q.index) in
  t.models <-
    List.filteri (fun i _ -> i < model_reuse) (Array.of_list values :: t.models)

type pentry = { pe_orig : Expr.t list }

let export_entries t =
  List.rev_map (fun terms -> { pe_orig = terms }) t.missed

(* An alias whose one caller is perfbench/layer_trace.ml. *)
module Sharded = struct
  type sharded = t

  let export_entries = export_entries
end
