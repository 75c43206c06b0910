(* Interprocedural lockset + IRQL analysis: the first client of the
   Dataflow framework.

   The abstract state is the *acquisition-ordered* list of lock tokens
   with a must/may hold qualifier, plus the IRQL floor inherited from
   the entry point's concurrency role.  Tokens name lock objects
   structurally (image offset, offset into the struct a global points
   to, offset into an argument), which is what lets a lock acquired in
   a caller be recognized inside a helper and vice versa — exactly the
   helper-function blind spot of the intraprocedural baseline
   ([Ddt_baseline.Absint]).  Conditional acquire/release pairs join to
   a Maybe hold, and every rule below fires on must-facts only, which
   removes the baseline's path-insensitivity false positive.

   Rules (reported as findings, positions are instruction offsets):
   - lock-double-acquire: acquiring a token already must-held
   - lock-extra-release: releasing a token that is must-free
   - lock-wrong-variant: releasing with the other API variant
   - lock-out-of-order: releasing while a younger lock is must-held
   - lock-forgotten-release: a token must-held where a kernel entry
     point returns; also at helper returns when the helper itself
     releases that token on another path (so pure take-the-lock
     wrappers stay silent)
   - irql-passive-api: calling a PASSIVE_LEVEL-only API while the IRQL
     is provably DISPATCH_LEVEL (interrupt-context entry or a plain
     spin lock must-held) *)

module Df = Dataflow
module Annot = Ddt_annot.Annot

type tclass =
  | Tc_img                 (* lock object at image offset [td] *)
  | Tc_gptr of int         (* at offset [td] of *global g *)
  | Tc_arg of int          (* at offset [td] of argument i *)
  | Tc_frame               (* at frame offset [td] (local lock) *)

type tok = { tc : tclass; td : int }

type hold = Held of Annot.lock_variant | Maybe

let pp_tok t =
  match t.tc with
  | Tc_img -> Printf.sprintf "lock@img+0x%x" t.td
  | Tc_gptr g -> Printf.sprintf "lock at [g0x%x]+%d" g t.td
  | Tc_arg i -> Printf.sprintf "lock at arg%d+%d" i t.td
  | Tc_frame -> Printf.sprintf "local lock fp%+d" t.td

let token_of (a : Df.av) =
  match a.Df.base with
  | Df.Bimage -> Some { tc = Tc_img; td = a.Df.disp }
  | Df.Bglobal g -> Some { tc = Tc_gptr g; td = a.Df.disp }
  | Df.Barg i -> Some { tc = Tc_arg i; td = a.Df.disp }
  | Df.Bframe -> Some { tc = Tc_frame; td = a.Df.disp }
  | _ -> None

let context_independent t =
  match t.tc with Tc_img | Tc_gptr _ -> true | Tc_arg _ | Tc_frame -> false

let nth_arg args i =
  match args with
  | Some l when i < List.length l -> Some (List.nth l i)
  | _ -> None

(* Caller-term token -> callee-term token through the actual argument
   vector: a lock at [arg i's value + delta] is [Tc_arg i, delta] to the
   callee.  Context-independent tokens pass through unchanged. *)
let translate_down ~args t =
  let rec try_args i = function
    | [] -> None
    | a :: rest -> (
        match token_of a with
        | Some at when at.tc = t.tc && t.td - at.td >= 0 ->
            Some { tc = Tc_arg i; td = t.td - at.td }
        | _ -> try_args (i + 1) rest)
  in
  match args with
  | Some l -> (
      match try_args 0 l with
      | Some t' -> Some t'
      | None -> if context_independent t then Some t else None)
  | None -> if context_independent t then Some t else None

(* Callee-term token -> caller terms.  [None] means the token cannot be
   named upstream (escaped local, untracked argument). *)
let translate_up ~args t =
  match t.tc with
  | Tc_img | Tc_gptr _ -> Some t
  | Tc_arg i -> (
      match nth_arg args i with
      | Some a -> (
          match token_of a with
          | Some at when at.tc <> Tc_frame ->
              Some { tc = at.tc; td = at.td + t.td }
          | _ -> None)
      | None -> None)
  | Tc_frame -> None

(* --- the client domain ------------------------------------------------ *)

(* [Make] is functorized over the API model so the domain's transfer
   function can classify kernel calls without global mutable state. *)
module MakeDomain (M : sig
  val model : Annot.api_model
end) =
struct
  let lock_api name =
    List.find_opt (fun la -> la.Annot.la_api = name) M.model.Annot.m_locks

  type t = {
    locks : (tok * hold) list;  (* acquisition order, oldest first *)
    floor : bool;               (* entry IRQL is DISPATCH_LEVEL *)
    root : bool;                (* instance entered from the kernel *)
  }

  let name = "lockirql"
  let equal (a : t) b = a = b

  let all_maybe locks =
    List.map (fun (t, _) -> (t, Maybe)) locks

  let join a b =
    let locks =
      if List.map fst a.locks = List.map fst b.locks then
        List.map2
          (fun (t, h1) (_, h2) ->
            (t, if h1 = h2 then h1 else Maybe))
          a.locks b.locks
      else
        (* different shapes: every token in either side is only maybe
           held *)
        let extra =
          List.filter
            (fun (t, _) -> not (List.mem_assoc t a.locks))
            b.locks
        in
        all_maybe a.locks @ all_maybe extra
    in
    { locks; floor = a.floor && b.floor; root = a.root && b.root }

  let widen = join

  let entry ~role =
    { locks = []; floor = role <> Annot.Hr_main; root = true }

  let raised st =
    st.floor
    || List.exists
         (fun (_, h) -> h = Held Annot.Lv_plain)
         st.locks

  let transfer st ev =
    match ev with
    | Df.E_kcall { name; args; _ } -> (
        match lock_api name with
        | Some la -> (
            let t = Option.bind (nth_arg args 0) token_of in
            match (la.Annot.la_acquire, t) with
            | true, Some t ->
                { st with
                  locks =
                    List.remove_assoc t st.locks
                    @ [ (t, Held la.Annot.la_variant) ] }
            | true, None -> st  (* unknown lock: must-facts unchanged *)
            | false, Some t ->
                { st with locks = List.remove_assoc t st.locks }
            | false, None ->
                (* releasing an unknown lock may release anything *)
                { st with locks = all_maybe st.locks })
        | None -> st)
    | _ -> st

  let enter_call st ~args =
    { locks = List.filter_map
        (fun (t, h) ->
          Option.map (fun t' -> (t', h)) (translate_down ~args t))
        st.locks;
      floor = st.floor;
      root = false }

  let leave_call ~caller ~args ~exit_ =
    match exit_ with
    | None ->
        (* no summary (recursion, unresolved indirect): degrade *)
        { caller with locks = all_maybe caller.locks }
    | Some ex ->
        let hidden =
          List.filter
            (fun (t, _) -> translate_down ~args t = None)
            caller.locks
        in
        let poisoned = ref false in
        let back =
          List.filter_map
            (fun (t, h) ->
              match translate_up ~args t with
              | Some t' -> Some (t', h)
              | None ->
                  poisoned := true;
                  None)
            ex.locks
        in
        let locks = hidden @ back in
        { caller with
          locks = (if !poisoned then all_maybe locks else locks) }
end

(* --- analysis + reporting --------------------------------------------- *)

(* A site: one event observed in one analysis instance, with the
   must-held lockset (context-independent tokens only, so locksets are
   comparable across functions) in force just before it.  [Racepair]
   consumes these. *)
type site = {
  s_fn : Icfg.func;
  s_interrupt : bool;   (* instance runs at DISPATCH (ISR/DPC closure) *)
  s_lockset : tok list; (* sorted *)
  s_event : Df.event;
}

type result = {
  r_findings : (string * string * int * string) list;
      (* (rule, func, pos, message), sorted and deduplicated *)
  r_sites : site list;
}

let release_variant_name = function
  | Annot.Lv_plain -> "plain"
  | Annot.Lv_dpr -> "Dpr"

let analyze ?pick (vals : Df.t) ~(model : Annot.api_model)
    ~(roles : Df.roles) =
  let module L = MakeDomain (struct
    let model = model
  end) in
  let module E = Df.Make (L) in
  let result = E.run ?pick vals ~roots:roles.Df.ro_roots in
  let findings = ref [] in
  let sites = ref [] in
  let add rule fn pos msg =
    findings := (rule, fn.Icfg.fn_name, pos, msg) :: !findings
  in
  let lock_api name =
    List.find_opt (fun la -> la.Annot.la_api = name) model.Annot.m_locks
  in
  let passive name =
    List.exists (fun ic -> ic.Annot.ic_api = name) model.Annot.m_passive_only
  in
  (* tokens a function's own code releases, for the helper
     forgotten-release gate *)
  let released_by : (int, tok list) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun (entry, fi) ->
      let toks = ref [] in
      List.iter
        (fun (_, bi) ->
          List.iter
            (fun ev ->
              match ev with
              | Df.E_kcall { name; args; _ } -> (
                  match lock_api name with
                  | Some la when not la.Annot.la_acquire -> (
                      match Option.bind (nth_arg args 0) token_of with
                      | Some t -> toks := t :: !toks
                      | None -> ())
                  | _ -> ())
              | _ -> ())
            bi.Df.bi_events)
        fi.Df.fi_blocks;
      Hashtbl.replace released_by entry (List.sort_uniq compare !toks))
    vals.Df.funcs;
  E.iter_in_states result
    (fun ~fn ~widened:_ ~ctx ~leader ~din ~dout ->
      let _final =
        E.replay result ~din ~leader ~f:(fun st ev ->
            sites :=
              { s_fn = fn;
                s_interrupt = st.L.floor;
                s_lockset =
                  List.sort compare
                    (List.filter_map
                       (fun (t, h) ->
                         match h with
                         | Held _ when context_independent t -> Some t
                         | _ -> None)
                       st.L.locks);
                s_event = ev }
              :: !sites;
            match ev with
            | Df.E_kcall { ev_off; name; args; _ } -> (
                (match lock_api name with
                 | Some la -> (
                     match Option.bind (nth_arg args 0) token_of with
                     | Some t when la.Annot.la_acquire -> (
                         match List.assoc_opt t st.L.locks with
                         | Some (Held _) ->
                             add "lock-double-acquire" fn ev_off
                               (Printf.sprintf
                                  "%s re-acquires %s already held on every \
                                   path to this point"
                                  name (pp_tok t))
                         | _ -> ())
                     | Some t -> (
                         (* release *)
                         match List.assoc_opt t st.L.locks with
                         | Some (Held v)
                           when v <> la.Annot.la_variant ->
                             add "lock-wrong-variant" fn ev_off
                               (Printf.sprintf
                                  "%s releases %s acquired with the %s \
                                   variant"
                                  name (pp_tok t) (release_variant_name v))
                         | Some (Held _) ->
                             let rec newer_held = function
                               | [] -> None
                               | (t', _) :: rest when t' = t ->
                                   List.find_opt
                                     (fun (_, h) ->
                                       match h with
                                       | Held _ -> true
                                       | Maybe -> false)
                                     rest
                               | _ :: rest -> newer_held rest
                             in
                             (match newer_held st.L.locks with
                              | Some (t', _) ->
                                  add "lock-out-of-order" fn ev_off
                                    (Printf.sprintf
                                       "%s releases %s while younger %s is \
                                        still held (non-LIFO release order)"
                                       name (pp_tok t) (pp_tok t'))
                              | None -> ())
                         | Some Maybe -> ()
                         | None ->
                             add "lock-extra-release" fn ev_off
                               (Printf.sprintf
                                  "%s releases %s which is not held on any \
                                   path to this point"
                                  name (pp_tok t))
                     )
                     | None -> ())
                 | None -> ());
                if passive name && L.raised st then
                  add "irql-passive-api" fn ev_off
                    (Printf.sprintf
                       "%s requires PASSIVE_LEVEL but runs at \
                        DISPATCH_LEVEL (%s)"
                       name
                       (if st.L.floor then "interrupt-context entry point"
                        else "a plain spin lock is held")))
            | _ -> ())
      in
      (* Forgotten-release is checked on each edge INTO a ret block, not
         at the ret block itself: the compiler routes every [return]
         through one shared epilogue, so the epilogue's IN state is the
         join over all return paths and a single leaking path would be
         hidden as Maybe.  The OUT state of each predecessor is the
         per-return-site must-fact. *)
      let feeds_ret =
        match Icfg.block vals.Df.icfg leader with
        | Some b when b.Icfg.bb_term <> Icfg.T_ret ->
            List.exists (fun s -> List.mem s fn.Icfg.fn_rets) b.Icfg.bb_succs
        | Some _ | None ->
            (* degenerate hand-written shape: the entry block itself
               rets, so there is no predecessor edge to inspect *)
            leader = fn.Icfg.fn_entry && List.mem leader fn.Icfg.fn_rets
      in
      (match (feeds_ret, dout) with
       | true, Some out ->
           let pos =
             match Icfg.block vals.Df.icfg leader with
             | Some b -> (
                 match List.rev b.Icfg.bb_instrs with
                 | (p, _) :: _ -> p
                 | [] -> leader)
             | None -> leader
           in
           List.iter
             (fun (t, h) ->
               match h with
               | Held _ ->
                   let releases_elsewhere =
                     match
                       Hashtbl.find_opt released_by fn.Icfg.fn_entry
                     with
                     | Some toks -> List.mem t toks
                     | None -> false
                   in
                   if ctx.L.root then
                     add "lock-forgotten-release" fn pos
                       (Printf.sprintf
                          "entry point returns with %s still held"
                          (pp_tok t))
                   else if releases_elsewhere then
                     add "lock-forgotten-release" fn pos
                       (Printf.sprintf
                          "returns with %s still held on this path \
                           although this function releases it elsewhere"
                          (pp_tok t))
               | Maybe -> ())
             out.L.locks
       | _ -> ()));
  { r_findings = List.sort_uniq compare !findings;
    r_sites = List.rev !sites }
