type result =
  | Sat of bool array
  | Unsat

(* Literal encoding for watch lists: literal l -> index (2*|l| + (l<0)). *)
let widx l = (2 * abs l) + (if l < 0 then 1 else 0)

type state = {
  nvars : int; (* kept for debugging dumps *)
  clauses : int array array;
  watches : int list array;        (* widx literal -> clause indices *)
  assign : int array;              (* 0 unassigned / 1 true / -1 false *)
  level : int array;               (* decision level of assignment *)
  trail : int array;               (* assigned literals in order *)
  mutable trail_len : int;
  trail_lim : int array;           (* trail length at each decision level *)
  mutable decision_level : int;
  order : int array;               (* variables in static decision order *)
  flipped : bool array;            (* per level: second branch already tried *)
}

let value st l =
  let v = st.assign.(abs l) in
  if v = 0 then 0 else if l > 0 then v else -v

let enqueue st l =
  st.assign.(abs l) <- (if l > 0 then 1 else -1);
  st.level.(abs l) <- st.decision_level;
  st.trail.(st.trail_len) <- l;
  st.trail_len <- st.trail_len + 1

(* Propagate from trail position [from]; returns false on conflict. *)
let propagate st from =
  let qhead = ref from in
  let ok = ref true in
  while !ok && !qhead < st.trail_len do
    let l = st.trail.(!qhead) in
    incr qhead;
    (* Clauses watching -l must find a new watch or propagate/conflict. *)
    let w = widx (-l) in
    let old_watch = st.watches.(w) in
    st.watches.(w) <- [];
    let rec process = function
      | [] -> ()
      | ci :: rest -> (
          let c = st.clauses.(ci) in
          (* Ensure the false literal is at position 1. *)
          if c.(0) = -l then begin
            c.(0) <- c.(1);
            c.(1) <- -l
          end;
          if value st c.(0) = 1 then begin
            (* Clause satisfied; keep watching. *)
            st.watches.(w) <- ci :: st.watches.(w);
            process rest
          end
          else
            (* Look for a new literal to watch. *)
            let n = Array.length c in
            let rec find i =
              if i >= n then None
              else if value st c.(i) <> -1 then Some i
              else find (i + 1)
            in
            match find 2 with
            | Some i ->
                c.(1) <- c.(i);
                c.(i) <- -l;
                st.watches.(widx c.(1)) <- ci :: st.watches.(widx c.(1));
                process rest
            | None ->
                st.watches.(w) <- ci :: st.watches.(w);
                if value st c.(0) = -1 then begin
                  (* Conflict: restore remaining watches and stop. *)
                  st.watches.(w) <- List.rev_append rest st.watches.(w);
                  ok := false
                end
                else begin
                  enqueue st c.(0);
                  process rest
                end)
    in
    process old_watch
  done;
  !ok

(* Erase the assignments of level [lvl] and everything above it, leaving
   the solver at level [lvl - 1]. *)
let erase_from_level st lvl =
  let keep = st.trail_lim.(lvl) in
  for i = keep to st.trail_len - 1 do
    st.assign.(abs st.trail.(i)) <- 0
  done;
  st.trail_len <- keep;
  st.decision_level <- lvl - 1

let solve ?(max_conflicts = 2_000_000) ?deadline cnf =
  let nvars = Cnf.num_vars cnf in
  let cls = Cnf.clauses cnf in
  (* Separate unit clauses; dedupe literals inside clauses; drop tautologies. *)
  let units = ref [] in
  let big = ref [] in
  let tautology c =
    Array.exists (fun l -> Array.exists (fun l' -> l' = -l) c) c
  in
  List.iter
    (fun c ->
      let c = Array.of_list (List.sort_uniq compare (Array.to_list c)) in
      if not (tautology c) then
        match Array.length c with
        | 0 -> big := [| 0 |] :: !big (* empty clause: unsat marker *)
        | 1 -> units := c.(0) :: !units
        | _ -> big := c :: !big)
    cls;
  if List.exists (fun c -> Array.length c = 1 && c.(0) = 0) !big then Some Unsat
  else begin
    let clauses = Array.of_list !big in
    let st =
      {
        nvars;
        clauses;
        watches = Array.make (2 * (nvars + 2)) [];
        assign = Array.make (nvars + 1) 0;
        level = Array.make (nvars + 1) 0;
        trail = Array.make (nvars + 1) 0;
        trail_len = 0;
        trail_lim = Array.make (nvars + 2) 0;
        decision_level = 0;
        order = Array.make nvars 0;
        flipped = Array.make (nvars + 2) false;
      }
    in
    Array.iteri
      (fun ci c ->
        st.watches.(widx c.(0)) <- ci :: st.watches.(widx c.(0));
        if Array.length c > 1 then
          st.watches.(widx c.(1)) <- ci :: st.watches.(widx c.(1)))
      clauses;
    (* Static decision order: most frequently occurring variables first. *)
    let occ = Array.make (nvars + 1) 0 in
    Array.iter
      (fun c -> Array.iter (fun l -> occ.(abs l) <- occ.(abs l) + 1) c)
      clauses;
    let vars = Array.init nvars (fun i -> i + 1) in
    Array.sort (fun a b -> compare occ.(b) occ.(a)) vars;
    Array.blit vars 0 st.order 0 nvars;
    let conflict_budget = ref max_conflicts in
    let exception Answer of result option in
    try
      (* Assert unit clauses at level 0. *)
      List.iter
        (fun l ->
          match value st l with
          | 1 -> ()
          | -1 -> raise (Answer (Some Unsat))
          | _ -> enqueue st l)
        (List.sort_uniq compare !units);
      if not (propagate st 0) then raise (Answer (Some Unsat));
      let next_unassigned () =
        let n = Array.length st.order in
        let rec go i =
          if i >= n then None
          else if st.assign.(st.order.(i)) = 0 then Some st.order.(i)
          else go (i + 1)
        in
        go 0
      in
      let rec search () =
        match next_unassigned () with
        | None ->
            let model = Array.make (nvars + 1) false in
            for v = 1 to nvars do
              model.(v) <- st.assign.(v) = 1
            done;
            raise (Answer (Some (Sat model)))
        | Some v ->
            st.decision_level <- st.decision_level + 1;
            st.trail_lim.(st.decision_level) <- st.trail_len;
            st.flipped.(st.decision_level) <- false;
            enqueue st v;
            propagate_or_backtrack ()
      and propagate_or_backtrack () =
        let from = st.trail_lim.(st.decision_level) in
        if propagate st from then search ()
        else begin
          decr conflict_budget;
          if !conflict_budget <= 0 then raise (Answer None);
          (* The wall-clock deadline is polled every 256 conflicts: often
             enough to bound a stalled query to milliseconds past its
             budget, rarely enough that gettimeofday stays off the hot
             propagation path. *)
          (match deadline with
          | Some t when !conflict_budget land 255 = 0 ->
              if Unix.gettimeofday () > t then raise (Answer None)
          | _ -> ());
          resolve_conflict ()
        end
      and resolve_conflict () =
        (* Find the deepest level whose second branch is untried. *)
        let rec unwind () =
          if st.decision_level = 0 then raise (Answer (Some Unsat))
          else if st.flipped.(st.decision_level) then begin
            erase_from_level st st.decision_level;
            unwind ()
          end
          else begin
            let lvl = st.decision_level in
            let decision = st.trail.(st.trail_lim.(lvl)) in
            erase_from_level st lvl;
            st.decision_level <- lvl;
            st.trail_lim.(lvl) <- st.trail_len;
            st.flipped.(lvl) <- true;
            enqueue st (-decision);
            propagate_or_backtrack ()
          end
        in
        unwind ()
      in
      search ()
    with Answer r -> r
  end
