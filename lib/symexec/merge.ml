(* Dynamic state merging at post-dominators (veritesting-style).

   When a symbolic branch forks and the static merge-point map knows
   where the two arms reconverge, the engine opens a *merge token*: both
   children are tagged with (token, merge pc) and keep executing. A
   tagged state that reaches the merge pc *parks* in the pool instead of
   executing on; when every live carrier of the token has parked or
   died, the pool folds the arrivals — compatible states are fused into
   one, registers and COW memory lifted to [ite(cond_b, v_b, v_a)] over
   the disjoined path-condition suffixes, and the survivors go back to
   the engine's queue.

   Soundness does not lean on the post-dominator map: two states are
   only fused when they sit at the same pc with identical kernel
   context, pending actions and checker-visible streams
   (all checked here), and their guards are disjoint by construction —
   every pair of fork-tree paths diverging from the token's base carries
   complementary branch constraints in both suffixes. The map only
   decides *where* tokens are worth opening.

   Tokens nest: forking under an open token commits both children to it
   (the tag list is a stack, innermost first), and a fold that absorbs a
   state releases that state's outer tokens too, which can cascade
   further folds — all run to fixpoint, with the results handed back as
   an [outcome] record so the caller can retire absorbed states and
   requeue survivors.

   There is no cost policy: every compatible pair fuses, however wide
   its store divergence, and every reconverging fork opens a token.
   Refusals come only from the compatibility checks; on the corpus they
   are symbolic-input streams that differ between the arms, kernel calls
   made inside an arm and differing injected fault sites. *)

module St = Symstate
module Expr = Ddt_solver.Expr
module Event = Ddt_trace.Event

type token = {
  tk_id : int;
  tk_merge_pc : int;
  tk_base : Expr.t list;          (* constraint-list cell captured before
                                     the fork: the physical sync point
                                     suffix extraction walks to *)
  tk_kcalls : int;                (* kernel-call count at open; an arm
                                     that called the kernel is refused *)
  mutable tk_outstanding : int;   (* live carriers not yet parked *)
  mutable tk_parked : St.t list;
}

type t = {
  tokens : (int, token) Hashtbl.t;
  weights : (int, int) Hashtbl.t;
      (* survivor state id -> states ever absorbed into it (transitive);
         each later fork of that survivor is that many forks avoided *)
  mutable next_token : int;
  mutable ever_opened : bool;
  mutable n_merged : int;
  mutable n_ites : int;
  mutable n_forks_avoided : int;
  mutable n_refused : int;
}

type outcome = {
  mo_requeue : St.t list;        (* fold survivors, tag popped *)
  mo_absorbed : St.t list;       (* fused away: retire unreported *)
}

type arrival =
  | A_continue
  | A_parked of outcome

let empty_outcome = { mo_requeue = []; mo_absorbed = [] }

let create () =
  {
    tokens = Hashtbl.create 64;
    weights = Hashtbl.create 64;
    next_token = 0;
    ever_opened = false;
    n_merged = 0;
    n_ites = 0;
    n_forks_avoided = 0;
    n_refused = 0;
  }

(* The constraint suffix a state accumulated since the token opened:
   newest-first walk of the list down to the physically captured base
   cell. [None] if the base was rebuilt out from under us. *)
let suffix_to base cs =
  let rec go acc l =
    if l == base then Some acc
    else match l with [] -> None | c :: rest -> go (c :: acc) rest
  in
  (* accumulate oldest-first so the conjunction reads in path order *)
  go [] cs

let conj = function
  | [] -> Expr.tru
  | c :: rest -> List.fold_left Expr.and1 c rest

(* Fuse [b] into [a] (the survivor), or refuse. Only mutates [a] after
   every check has passed; every compatible pair fuses. *)
let try_fuse t tok (a : St.t) (b : St.t) =
  let module K = Ddt_kernel.Kstate in
  let compatible =
    a.St.entry_name = b.St.entry_name
    && a.St.int_enabled = b.St.int_enabled
    && a.St.pending == b.St.pending
    && a.St.choices == b.St.choices
    && a.St.injected_sites == b.St.injected_sites
    && a.St.sym_inputs == b.St.sym_inputs
    && K.kcall_count a.St.ks = tok.tk_kcalls
    && K.kcall_count b.St.ks = tok.tk_kcalls
    && Expr.equal a.St.regs.(Ddt_dvm.Isa.sp) b.St.regs.(Ddt_dvm.Isa.sp)
  in
  if not compatible then false
  else
    match
      ( suffix_to tok.tk_base a.St.constraints,
        suffix_to tok.tk_base b.St.constraints,
        Symmem.cow_diff a.St.mem b.St.mem )
    with
    | None, _, _ | _, None, _ | _, _, None -> false
    | Some sa, Some sb, Some addrs ->
        let ga = conj sa and gb = conj sb in
        a.St.constraints <- Expr.or1 ga gb :: tok.tk_base;
        Array.iteri
          (fun r va ->
            let vb = b.St.regs.(r) in
            if not (Expr.equal va vb) then begin
              a.St.regs.(r) <- Expr.ite gb vb va;
              t.n_ites <- t.n_ites + 1
            end)
          a.St.regs;
        List.iter
          (fun addr ->
            let va = Symmem.read_u8 a.St.mem addr
            and vb = Symmem.read_u8 b.St.mem addr in
            if not (Expr.equal va vb) then begin
              Symmem.write_u8 a.St.mem addr (Expr.ite gb vb va);
              t.n_ites <- t.n_ites + 1
            end)
          addrs;
        a.St.steps <- max a.St.steps b.St.steps;
        a.St.injections <- max a.St.injections b.St.injections;
        St.record a
          (Event.E_merge
             { pc = tok.tk_merge_pc; absorbed = b.St.id; cond = gb });
        t.n_merged <- t.n_merged + 1;
        true

(* Fold every token in [work] (outstanding reached 0), cascading into
   outer tokens released by absorbed states. *)
let fold_worklist t work =
  let queue = Queue.create () in
  List.iter (fun tok -> Queue.add tok queue) work;
  let requeue = ref [] and absorbed = ref [] in
  while not (Queue.is_empty queue) do
    let tok = Queue.pop queue in
    Hashtbl.remove t.tokens tok.tk_id;
    let arrivals =
      List.sort (fun x y -> compare x.St.id y.St.id) tok.tk_parked
    in
    tok.tk_parked <- [];
    (* pop this token's tag from every arrival *)
    List.iter
      (fun st ->
        match st.St.tags with
        | tag :: rest when tag.St.mt_token = tok.tk_id -> st.St.tags <- rest
        | _ -> ())
      arrivals;
    let survivors = ref [] in
    List.iter
      (fun st ->
        let rec attach = function
          | [] ->
              if !survivors <> [] then t.n_refused <- t.n_refused + 1;
              survivors := !survivors @ [ st ]
          | s :: rest ->
              if try_fuse t tok s st then begin
                (* credit the survivor with everything [st] carried *)
                let w_st =
                  match Hashtbl.find_opt t.weights st.St.id with
                  | Some w -> w
                  | None -> 0
                in
                let w_s =
                  match Hashtbl.find_opt t.weights s.St.id with
                  | Some w -> w
                  | None -> 0
                in
                Hashtbl.replace t.weights s.St.id (w_s + w_st + 1);
                Hashtbl.remove t.weights st.St.id;
                (* the absorbed state's outer tokens lose a carrier *)
                List.iter
                  (fun (tag : St.merge_tag) ->
                    match Hashtbl.find_opt t.tokens tag.St.mt_token with
                    | Some outer ->
                        outer.tk_outstanding <- outer.tk_outstanding - 1;
                        if outer.tk_outstanding = 0 then
                          Queue.add outer queue
                    | None -> ())
                  st.St.tags;
                st.St.tags <- [];
                absorbed := st :: !absorbed
              end
              else attach rest
        in
        attach !survivors)
      arrivals;
    requeue := !survivors @ !requeue
  done;
  { mo_requeue = !requeue; mo_absorbed = !absorbed }

(* --- engine-facing operations --------------------------------------------- *)

(* Open a token for a fresh two-way fork whose arms reconverge at
   [merge_pc]. [base] is the parent's constraint list as captured
   *before* the fork added either arm's constraint. *)
let open_token t ~merge_pc ~base (a : St.t) (b : St.t) =
  t.ever_opened <- true;
  let id = t.next_token in
  t.next_token <- id + 1;
  Hashtbl.replace t.tokens id
    { tk_id = id; tk_merge_pc = merge_pc; tk_base = base;
      tk_kcalls = Ddt_kernel.Kstate.kcall_count a.St.ks;
      tk_outstanding = 2; tk_parked = [] };
  let tag = { St.mt_token = id; mt_pc = merge_pc } in
  a.St.tags <- tag :: a.St.tags;
  b.St.tags <- tag :: b.St.tags

(* Every engine fork: a child inherits its parent's tags (one more live
   carrier per open token) and its merge weight (forks it performs were
   avoided once per state ever absorbed into this lineage). Call with
   the parent's tag list already shared into the child. *)
let note_fork t (parent : St.t) (child : St.t) =
  if t.ever_opened then begin
    List.iter
      (fun (tag : St.merge_tag) ->
        match Hashtbl.find_opt t.tokens tag.St.mt_token with
        | Some tok -> tok.tk_outstanding <- tok.tk_outstanding + 1
        | None -> ())
      parent.St.tags;
    (match Hashtbl.find_opt t.weights parent.St.id with
     | Some w when w > 0 ->
         t.n_forks_avoided <- t.n_forks_avoided + w;
         Hashtbl.replace t.weights child.St.id w
     | _ -> ())
  end

(* The state stands at its innermost token's merge pc. Park it; if it
   was the last carrier out, fold now and hand back the results. The
   caller owns requeue/retire of the outcome. *)
let on_arrival t (st : St.t) =
  match st.St.tags with
  | [] -> A_continue
  | tag :: rest -> (
      match Hashtbl.find_opt t.tokens tag.St.mt_token with
      | None ->
          (* stale tag (token already folded away): drop and go on *)
          st.St.tags <- rest;
          A_continue
      | Some tok ->
          tok.tk_parked <- st :: tok.tk_parked;
          tok.tk_outstanding <- tok.tk_outstanding - 1;
          if tok.tk_outstanding = 0 then A_parked (fold_worklist t [ tok ])
          else A_parked empty_outcome)

(* A carrier died (crashed, returned, was discarded) without reaching
   its merge points: release every token it carried; the last release
   folds whatever siblings already parked. *)
let note_dead t (st : St.t) =
  if not t.ever_opened then empty_outcome
  else begin
    Hashtbl.remove t.weights st.St.id;
    if st.St.tags = [] then empty_outcome
    else begin
      let tags = st.St.tags in
      st.St.tags <- [];
      let work = ref [] in
      List.iter
        (fun (tag : St.merge_tag) ->
          match Hashtbl.find_opt t.tokens tag.St.mt_token with
          | Some tok ->
              tok.tk_outstanding <- tok.tk_outstanding - 1;
              if tok.tk_outstanding = 0 then work := tok :: !work
          | None -> ())
        tags;
      if !work = [] then empty_outcome else fold_worklist t !work
    end
  end

(* End-of-run safety valve: hand back every parked state (tags cleared,
   tokens dropped) so the session's final drain can retire them. With
   the outcome discipline above this is normally empty. *)
let drain_parked t =
  let parked =
    Hashtbl.fold (fun _ tok acc -> tok.tk_parked @ acc) t.tokens []
    (* sorted: hash order here would leak into the final retirement
       order, which a report must not take from table internals *)
    |> List.sort (fun a b -> compare a.St.id b.St.id)
  in
  List.iter (fun st -> st.St.tags <- []) parked;
  Hashtbl.reset t.tokens;
  parked

let stats t = (t.n_merged, t.n_ites, t.n_forks_avoided, t.n_refused)
