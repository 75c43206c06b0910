type model = Expr.var -> int

type outcome =
  | Exact_sat of model
  | Exact_unsat
  | Reuse_sat of model
  | Miss

type info = {
  i_renamed : bool;
  i_owner : int;
}

let no_info = { i_renamed = false; i_owner = -1 }

let terms_equal a b =
  try List.for_all2 Expr.equal a b with Invalid_argument _ -> false

(* Hashtbl.hash only samples a prefix of large expressions; collisions
   are resolved by [equal], so this only affects bucket spread. *)
let terms_hash k =
  List.fold_left (fun acc e -> (acc * 1000003) lxor Hashtbl.hash e) 0 k

(* A table key carries its hash, computed once per query. *)
module Key = struct
  type t = { k_hash : int; k_terms : Expr.t list }

  let of_terms k = { k_hash = terms_hash k; k_terms = k }
  let equal a b = a.k_hash = b.k_hash && terms_equal a.k_terms b.k_terms
  let hash k = k.k_hash
end

module KH = Hashtbl.Make (Key)

type verdict = V_sat of (Expr.var * int) list | V_unsat
(* V_sat pairs are in renamed space. *)

type entry = {
  e_key : Key.t;             (* renamed canonical key (the table key) *)
  e_orig : Expr.t list;      (* the first storer's original canonical key *)
  e_domain : int;            (* domain that stored the entry *)
  e_verdict : verdict;
  mutable e_last_use : int;
}

(* The cache state proper: entries, the model-reuse list, the LRU clock
   and the eviction count. *)
type state = {
  table : entry KH.t;
  mutable models : (int * int array) list;
      (* (owner domain, renamed-space model), newest first; a model is
         an array of values indexed by renamed variable id, built once
         when stored rather than per reuse probe *)
  mutable tick : int;
  mutable evicted : int;
}

(* One cache serves every worker domain, behind one mutex: at about two
   thousand lookups a session the lock is never contended, and a single
   table lets every lookup see every entry and every recent model. *)
type t = { mu : Mutex.t; st : state }

let capacity = 4096
let model_reuse = 12

let create () =
  {
    mu = Mutex.create ();
    st =
      {
        table = KH.create 256;
        models = [];
        tick = 0;
        evicted = 0;
      };
  }

(* --- structural normalization ------------------------------------------- *)
(* Operands of commutative operators are put in a canonical order before
   hashing/renaming, so structurally-equal queries whose subterms were
   assembled in different orders — e.g. the disjoined guards of a merged
   state vs the same conditions consed one at a time by forking — land on
   the same entry. The order must be stable under variable renaming
   (renaming happens AFTER this pass), so expressions are compared by
   erased shape ({!Expr.compare_shape}): every variable of a width is
   equal to every other. Ties (shape-equal operands) keep their input
   order, which is fine — shape-equal operands rename to the same key
   either way only if genuinely symmetric, and a missed swap costs a
   cache miss, never a wrong answer. *)

let commutative = function
  | Expr.Add | Expr.Mul | Expr.And | Expr.Or | Expr.Xor -> true
  | Expr.Sub | Expr.Divu | Expr.Remu | Expr.Shl | Expr.Lshr | Expr.Ashr ->
      false

let normalize (e : Expr.t) : Expr.t =
  Expr.run (fun m ->
      (* A node whose operands come back physically unchanged is returned
         as it is, so a normalized term shares every subterm that needed
         no reordering with its input. *)
      let rec go e = Expr.memo m rebuild e
      and rebuild (e : Expr.t) : Expr.t =
        match e with
        | Expr.Const _ | Expr.Var _ -> e
        | Expr.Binop (op, a, b) ->
            let a' = go a and b' = go b in
            if commutative op && Expr.compare_shape b' a' < 0 then
              Expr.Binop (op, b', a')
            else if a' == a && b' == b then e
            else Expr.Binop (op, a', b')
        | Expr.Cmp (op, a, b) -> (
            let a' = go a and b' = go b in
            match op with
            | (Expr.Eq | Expr.Ne) when Expr.compare_shape b' a' < 0 ->
                Expr.Cmp (op, b', a')
            | _ -> if a' == a && b' == b then e else Expr.Cmp (op, a', b'))
        | Expr.Ite (c, a, b) -> (
            (* A negated guard swaps arms, so a lift built from the taken
               arm and one built from the fallthrough share a key. *)
            match go c with
            | Expr.Not c' -> Expr.Ite (c', go b, go a)
            | c' ->
                let a' = go a and b' = go b in
                if c' == c && a' == a && b' == b then e
                else Expr.Ite (c', a', b'))
        | Expr.Extract (x, i) ->
            let x' = go x in
            if x' == x then e else Expr.Extract (x', i)
        | Expr.Concat4 (b3, b2, b1, b0) ->
            let b3' = go b3 and b2' = go b2 and b1' = go b1 and b0' = go b0 in
            if b3' == b3 && b2' == b2 && b1' == b1 && b0' == b0 then e
            else Expr.Concat4 (b3', b2', b1', b0')
        | Expr.Zext x ->
            let x' = go x in
            if x' == x then e else Expr.Zext x'
        | Expr.Not x ->
            let x' = go x in
            if x' == x then e else Expr.Not x'
      in
      go e)

(* A normalized term is not a fixed point of [normalize] (an arm swap
   under a [Not] guard can expose a new one), so each term is normalized
   exactly once: [canon] from originals, [canon_normalized] from terms
   the caller already normalized. *)
let canon_normalized ns = List.sort_uniq Expr.compare ns
let canon cs = canon_normalized (List.map normalize cs)

(* --- normalization up to variable renaming ------------------------------ *)
(* Variables are renumbered 1..n in first-occurrence order over the
   canonically sorted key (names erased), so two structurally identical
   queries over different variables — e.g. the same guard re-minted by
   another state or worker — share one renamed key. The rename is a
   bijection on the key's variables: [p_vars] lists the query variables
   in renamed-id order (for storing a model of this query in renamed
   space), and {!orig_env} inverts it when a stored model is read. *)

type query = {
  p_key : Expr.t list;              (* canonical original key *)
  p_rkey : Key.t;                   (* renamed key *)
  p_vars : Expr.var array;          (* renamed id i + 1 -> original var *)
}

let prepare_canonical key =
  Expr.run (fun m ->
      (* original id -> renamed var, in numbering order *)
      let numbered = Expr.Idtbl.create () in
      let rec go e = Expr.memo m rename e
      and rename (e : Expr.t) : Expr.t =
        match e with
        | Expr.Const _ -> e
        | Expr.Var v -> (
            match Expr.Idtbl.find_opt numbered v.Expr.id with
            | Some (r, _) -> Expr.Var r
            | None ->
                let r =
                  Expr.canon_var (Expr.Idtbl.length numbered + 1)
                    v.Expr.var_width
                in
                Expr.Idtbl.add numbered v.Expr.id (r, v);
                Expr.Var r)
        (* Raw constructors: renaming must preserve structure exactly, or
           the renamed key's equality would disagree with the original's.
           Memoized, a repeated subterm is skipped only after its first
           visit has numbered its variables, so the numbering is the same
           in both walk modes. *)
        | Expr.Binop (op, a, b) -> Expr.Binop (op, go a, go b)
        | Expr.Cmp (op, a, b) -> Expr.Cmp (op, go a, go b)
        | Expr.Ite (c, a, b) -> Expr.Ite (go c, go a, go b)
        | Expr.Extract (x, i) -> Expr.Extract (go x, i)
        | Expr.Concat4 (b3, b2, b1, b0) ->
            Expr.Concat4 (go b3, go b2, go b1, go b0)
        | Expr.Zext x -> Expr.Zext (go x)
        | Expr.Not x -> Expr.Not (go x)
      in
      let rkey = List.map go key in
      { p_key = key; p_rkey = Key.of_terms rkey;
        p_vars = Array.of_list (List.map snd (Expr.Idtbl.values numbered)) })

let query cs = prepare_canonical (canon cs)
let query_of_normalized ns = prepare_canonical (canon_normalized ns)

let env_of pairs =
  let tbl = Hashtbl.create (max 4 (2 * List.length pairs)) in
  List.iter (fun ((v : Expr.var), x) -> Hashtbl.replace tbl v.Expr.id x) pairs;
  fun (v : Expr.var) ->
    match Hashtbl.find_opt tbl v.Expr.id with Some x -> x | None -> 0

(* A renamed-space model as an array indexed by renamed id. Renamed ids
   are dense from 1, so this is [env_of pairs] without a table; ids the
   model does not mention read 0, as there. *)
let array_of_pairs pairs =
  let n = List.fold_left (fun n ((v : Expr.var), _) -> max n v.Expr.id) 0 pairs in
  let a = Array.make (n + 1) 0 in
  List.iter (fun ((v : Expr.var), x) -> a.(v.Expr.id) <- x) pairs;
  a

let env_of_array a (v : Expr.var) =
  if v.Expr.id >= 0 && v.Expr.id < Array.length a then a.(v.Expr.id) else 0

(* [f ()], computed on first use. Not [Lazy]: a model may be applied
   from two domains, and a race here only builds the same table twice. *)
let once f =
  let cell = ref None in
  fun () ->
    match !cell with
    | Some x -> x
    | None ->
        let x = f () in
        cell := Some x;
        x

(* Translate a renamed-space model into one over the query's original
   variables. The value is masked to the variable's width: a reused model
   may pair a renamed id with a {e wider} variable than this query's
   (env_of keys by id only), and evaluation masks at the Var node, so an
   over-wide value verifies — but the model handed back must still be
   well-formed per variable, or a W8 device read gets pinned above 255.
   The rename table is built the first time the model is applied, so a
   caller that only wants the verdict never builds it. *)
let orig_env p renv =
  let fwd =
    once (fun () ->
        let fwd = Hashtbl.create (2 * Array.length p.p_vars) in
        Array.iteri
          (fun i (v : Expr.var) ->
            Hashtbl.replace fwd v.Expr.id
              (Expr.canon_var (i + 1) v.Expr.var_width))
          p.p_vars;
        fwd)
  in
  fun (v : Expr.var) ->
    match Hashtbl.find_opt (fwd ()) v.Expr.id with
    | Some r -> renv r land Expr.mask_of_width v.Expr.var_width
    | None -> 0

(* An exact hit's model, with its stored pairs indexed on first use too. *)
let model_of_pairs p pairs =
  let renv = once (fun () -> env_of pairs) in
  orig_env p (fun r -> renv () r)

let self_domain () = (Domain.self () :> int)

(* Batch LRU eviction: drop the least recently used entries down to 3/4
   of capacity, so the O(n log n) sort amortizes over many inserts. *)
let maybe_evict st =
  if KH.length st.table > capacity then begin
    let entries = KH.fold (fun _ e acc -> e :: acc) st.table [] in
    let sorted =
      List.sort (fun a b -> compare a.e_last_use b.e_last_use) entries
    in
    let drop = ref (KH.length st.table - (capacity * 3 / 4)) in
    List.iter
      (fun e ->
        if !drop > 0 then begin
          decr drop;
          KH.remove st.table e.e_key;
          st.evicted <- st.evicted + 1
        end)
      sorted
  end

let lookup_locked st p =
  st.tick <- st.tick + 1;
  match KH.find_opt st.table p.p_rkey with
  | Some e -> (
      e.e_last_use <- st.tick;
      let info =
        { i_renamed = not (terms_equal e.e_orig p.p_key); i_owner = e.e_domain }
      in
      match e.e_verdict with
      | V_sat pairs -> (Exact_sat (model_of_pairs p pairs), info)
      | V_unsat -> (Exact_unsat, info))
  | None ->
      (* Superset rule: re-check recent models by evaluation — against
         the renamed query, so a model minted for a differently-named
         twin still applies; any assignment that verifies is genuine. *)
      let rec try_models = function
        | [] -> (Miss, no_info)
        | (owner, a) :: rest ->
            let renv = env_of_array a in
            if List.for_all (fun c -> Expr.eval renv c = 1) p.p_rkey.Key.k_terms
            then
              (Reuse_sat (orig_env p renv),
               { i_renamed = false; i_owner = owner })
            else try_models rest
      in
      try_models st.models

let locked t f = Mutex.protect t.mu (fun () -> f t.st)

(* A hit's model reads only the query and the stored entry, both
   immutable, so it is applied outside the lock. *)
let lookup t p = locked t (fun st -> lookup_locked st p)

let rec take n = function
  | [] -> []
  | x :: rest -> if n <= 0 then [] else x :: take (n - 1) rest

let add_entry st p verdict =
  st.tick <- st.tick + 1;
  KH.replace st.table p.p_rkey
    {
      e_key = p.p_rkey;
      e_orig = p.p_key;
      e_domain = self_domain ();
      e_verdict = verdict;
      e_last_use = st.tick;
    }

let store_sat t p m =
  if p.p_key <> [] then begin
    (* Store the model over renamed variables, in renamed-id order,
       valued through the inverse rename. *)
    let pairs =
      Array.to_list
        (Array.mapi
           (fun i (v : Expr.var) ->
             (Expr.canon_var (i + 1) v.Expr.var_width, m v))
           p.p_vars)
    in
    locked t (fun st ->
        if not (KH.mem st.table p.p_rkey) then begin
          add_entry st p (V_sat pairs);
          st.models <-
            (self_domain (), array_of_pairs pairs)
            :: take (model_reuse - 1) st.models;
          maybe_evict st
        end)
  end

let store_unsat t p =
  if p.p_key <> [] then
    locked t (fun st ->
        if not (KH.mem st.table p.p_rkey) then begin
          add_entry st p V_unsat;
          maybe_evict st
        end)

let size t = locked t (fun st -> KH.length st.table)
let evictions t = locked t (fun st -> st.evicted)

(* --- entry export -------------------------------------------------------- *)
(* A [pentry] is the process-independent projection of an entry: the
   renamed key is in the canonical dense-id space and the verdict is
   plain data — [V_sat] stores (var, value) pairs, never closures. *)

type pentry = {
  pe_key : Expr.t list;      (* renamed canonical key *)
  pe_orig : Expr.t list;     (* original-space key *)
  pe_verdict : verdict;
}

let export_entries t =
  locked t (fun st ->
      KH.fold
        (fun _ e acc ->
          { pe_key = e.e_key.Key.k_terms; pe_orig = e.e_orig;
            pe_verdict = e.e_verdict }
          :: acc)
        st.table [])

(* An alias whose one caller is perfbench/layer_trace.ml. *)
module Sharded = struct
  type sharded = t

  let export_entries = export_entries
end
