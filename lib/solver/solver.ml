type model = Expr.var -> int

type result =
  | Sat of model
  | Unsat
  | Unknown

(* --- the query cache ------------------------------------------------------ *)

(* One process-wide cache ({!Qcache}); [clear_cache] swaps in a fresh
   one. *)
let cache = ref (Qcache.create ())

let clear_cache () = cache := Qcache.create ()

(* The live cache instance, for perfbench's layer trace. [clear_cache]
   invalidates the handle — re-fetch it. *)
let current_cache () = !cache

(* --- the solve budget ------------------------------------------------------

   Each uncached group is solved once: DPLL stops after 2M conflicts or
   5 s of wall-clock time, whichever comes first, and the verdict is then
   Unknown. Callers treat Unknown conservatively (a branch stays
   feasible, a concretization falls back to a verified guess or fails). *)
let max_conflicts = 2_000_000
let attempt_s = 5.0

(* Test hook: when set, it is asked once per uncached group solve and
   [true] makes that solve answer Unknown without running. *)
let force_unknown : (unit -> bool) option ref = ref None
let set_force_unknown f = force_unknown := f

(* --- statistics ---------------------------------------------------------- *)

type stats = {
  mutable s_queries : int;
  mutable s_group_solves : int;
  mutable s_cache_model_reuse_hits : int;
  mutable s_cache_misses : int;
  mutable s_interval_solves : int;
  mutable s_bitblast_solves : int;
  mutable s_unknowns : int;
}

(* The process-global counters, bumped in place; a snapshot is a copy. *)
let cnt =
  { s_queries = 0; s_group_solves = 0; s_cache_model_reuse_hits = 0;
    s_cache_misses = 0; s_interval_solves = 0; s_bitblast_solves = 0;
    s_unknowns = 0 }

let stats () = { cnt with s_queries = cnt.s_queries }

let diff_stats (b : stats) (a : stats) =
  {
    s_queries = b.s_queries - a.s_queries;
    s_group_solves = b.s_group_solves - a.s_group_solves;
    s_cache_model_reuse_hits =
      b.s_cache_model_reuse_hits - a.s_cache_model_reuse_hits;
    s_cache_misses = b.s_cache_misses - a.s_cache_misses;
    s_interval_solves = b.s_interval_solves - a.s_interval_solves;
    s_bitblast_solves = b.s_bitblast_solves - a.s_bitblast_solves;
    s_unknowns = b.s_unknowns - a.s_unknowns;
  }

let cache_hits s = s.s_cache_model_reuse_hits

let cache_hit_rate s =
  let hits = cache_hits s in
  let total = hits + s.s_cache_misses in
  if total = 0 then 0.0 else float_of_int hits /. float_of_int total

(* --- the layered solve of one (simplified, nontrivial) group ------------- *)

let verified constraints env =
  List.for_all (fun c -> Expr.eval env c = 1) constraints

let core_solve constraints =
  let deadline = Unix.gettimeofday () +. attempt_s in
  let vars =
    List.concat_map Expr.vars constraints
    |> List.sort_uniq (fun a b -> compare a.Expr.id b.Expr.id)
  in
  match Interval.infer constraints with
  | None ->
      cnt.s_interval_solves <- cnt.s_interval_solves + 1;
      Unsat
  | Some env_ranges -> (
      (* Cheap verified guesses first. *)
      let guess =
        List.find_opt
          (fun m -> verified constraints m)
          (Interval.candidates env_ranges vars)
      in
      match guess with
      | Some m ->
          cnt.s_interval_solves <- cnt.s_interval_solves + 1;
          Sat m
      | None -> (
          cnt.s_bitblast_solves <- cnt.s_bitblast_solves + 1;
          let ctx = Bitblast.create () in
          List.iter (Bitblast.assert_true ctx) constraints;
          match Dpll.solve ~max_conflicts ~deadline (Bitblast.cnf ctx) with
          | Some Dpll.Unsat -> Unsat
          | None -> Unknown
          | Some (Dpll.Sat assign) ->
              let tbl = Hashtbl.create 16 in
              List.iter
                (fun v ->
                  Hashtbl.replace tbl v.Expr.id
                    (Bitblast.model_of ctx assign v))
                vars;
              let m (v : Expr.var) =
                match Hashtbl.find_opt tbl v.Expr.id with
                | Some x -> x
                | None -> 0
              in
              (* The model must satisfy the constraints; a failure here
                 is a bit-blasting bug, so fail loudly. *)
              assert (verified constraints m);
              Sat m))

(* --- prepared constraints ------------------------------------------------ *)

(* A constraint prepared for the solver: its simplified form and that
   form's variables. The partition of a path condition keeps these
   records as its members, and the partition memo ([partition_of])
   prepares each cell of a path condition once. *)
type prepared = {
  orig : Expr.t;
  term : Expr.t;
  vars : Expr.var list;
}

let original p = p.orig

let prepare c =
  let term = Simplify.simplify_bool c in
  { orig = c; term; vars = Expr.vars term }

let cache_query group =
  Qcache.query (List.map (fun p -> (p.term, p.vars)) group)

(* A miss: solve once and store a Sat model for later groups to reuse. *)
let solve_miss c q group =
  let forced =
    match !force_unknown with Some f -> f () | None -> false
  in
  let r =
    if forced then Unknown else core_solve (List.map (fun p -> p.term) group)
  in
  (match r with
  | Sat m -> Qcache.store c q m
  | Unsat -> ()
  | Unknown -> cnt.s_unknowns <- cnt.s_unknowns + 1);
  r

let solve_group group =
  cnt.s_group_solves <- cnt.s_group_solves + 1;
  let c = !cache in
  let q = cache_query group in
  match Qcache.lookup c q with
  | Qcache.Hit m ->
      cnt.s_cache_model_reuse_hits <- cnt.s_cache_model_reuse_hits + 1;
      Sat m
  | Qcache.Miss ->
      cnt.s_cache_misses <- cnt.s_cache_misses + 1;
      solve_miss c q group

(* Each path condition's independence partition, memoized by the
   physical identity of the list. A miss walks down
   to the nearest memoized tail and adds the constraints above it one
   {!Indep.add} each, memoizing every tail on the way up: the lists a
   path grows between two queries (a concretize pin, a merge's [or]
   head) are the tails of its later queries and of its descendants'. *)
let part_slots = 1024

let slots : (Expr.t list * prepared Indep.t) option array =
  Array.make part_slots None

let partition_of cs =
  let slot l = Hashtbl.hash l land (part_slots - 1) in
  (* [above] holds the unmemoized tails passed on the way down to [l],
     deepest first. *)
  let rec down above l =
    match l with
    | [] -> (Indep.empty, above)
    | _ :: rest -> (
        match slots.(slot l) with
        | Some (l', p) when l' == l -> (p, above)
        | _ -> down (l :: above) rest)
  in
  let base, above = down [] cs in
  List.fold_left
    (fun p l ->
      let c = prepare (List.hd l) in
      let p = Indep.add p c c.vars in
      slots.(slot l) <- Some (l, p);
      p)
    base above

(* A constraint whose simplified form has no variables belongs to no
   independence group: its value is its verdict. *)
let ground_holds p = Expr.eval (fun _ -> 0) p.term = 1

let check constraints =
  cnt.s_queries <- cnt.s_queries + 1;
  if
    List.exists
      (fun c ->
        let p = prepare c in
        p.vars = [] && not (ground_holds p))
      constraints
  then Unsat
  else
    (* Groups touch disjoint variables, so the union of their models is
       a model of the conjunction. Any Unsat group sinks the whole set;
       an Unknown group makes the verdict Unknown unless a later group
       is Unsat. *)
    let tbl = Hashtbl.create 16 in
    let rec go unknown = function
      | [] ->
          if unknown then Unknown
          else
            Sat
              (fun (v : Expr.var) ->
                match Hashtbl.find_opt tbl v.Expr.id with
                | Some x -> x
                | None -> 0)
      | g :: rest -> (
          match solve_group g with
          | Unsat -> Unsat
          | Unknown -> go true rest
          | Sat m ->
              List.iter
                (fun (v : Expr.var) -> Hashtbl.replace tbl v.Expr.id (m v))
                (List.concat_map (fun p -> p.vars) g
                |> List.sort_uniq (fun a b -> compare a.Expr.id b.Expr.id));
              go unknown rest)
    in
    go false (Indep.groups (partition_of constraints))

(* [check (extra :: slice)] answered with less work: [extra]'s variables
   reach every group of its slice, so the query is one group, in query
   order, built from the partition's prepared members. The counters
   move exactly as they would under [check]. *)
let feasible cs extra =
  cnt.s_queries <- cnt.s_queries + 1;
  let x = prepare extra in
  if x.vars = [] then ground_holds x
  else solve_group (x :: Indep.slice (partition_of cs) x.vars) <> Unsat

let concretize constraints e =
  match check constraints with
  | Unsat -> None
  | Sat m -> Some (Expr.eval m e)
  | Unknown ->
      (* Fall back to the zero valuation, but only if it actually
         satisfies the constraints: an unverified guess would let the
         engine continue down a path whose condition the pinned value
         contradicts. *)
      let zeros (_ : Expr.var) = 0 in
      if verified constraints zeros then Some (Expr.eval zeros e) else None

let concretize_relevant cs e =
  let slice = Indep.slice (partition_of cs) (Expr.vars e) in
  concretize (List.map original slice) e
