(* Shared exploration frontier: one Sched.queue per worker domain, each
   behind its own mutex, with work stealing between them.

   Invariant used for termination detection: [size] counts states sitting
   in queues, [inflight] counts states popped but not yet finished
   (running their quantum). [inflight] is raised BEFORE the pop decrements
   [size] and lowered only after any forked children have been pushed, so
   [size = 0 && inflight = 0] ("quiescent") can never be observed while a
   state that might still fork is in motion — the idle-worker barrier in
   [Exec] spins on exactly this predicate. *)

type worker_queue = {
  wq_mu : Mutex.t;
  wq_q : Sched.queue;
}

type t = {
  workers : worker_queue array;
  size : int Atomic.t;
  inflight : int Atomic.t;
  steals : int Atomic.t;
  dropped : int Atomic.t;
  max_states : int;
}

let create ~workers ~max_states ~key ~priority =
  let mk _ = { wq_mu = Mutex.create (); wq_q = Sched.create ~key ~priority } in
  {
    workers = Array.init (max 1 workers) mk;
    size = Atomic.make 0;
    inflight = Atomic.make 0;
    steals = Atomic.make 0;
    dropped = Atomic.make 0;
    max_states;
  }

let n_workers t = Array.length t.workers
let size t = Atomic.get t.size
let steals t = Atomic.get t.steals
let dropped t = Atomic.get t.dropped

let with_wq wq f =
  Mutex.lock wq.wq_mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock wq.wq_mu) f

(* A quantum-expired state is already admitted; dropping it here would
   silently lose a live path, so the cap does not apply. *)
let requeue t ~worker st =
  let wq = t.workers.(worker mod Array.length t.workers) in
  Atomic.incr t.size;
  with_wq wq (fun () -> Sched.push wq.wq_q st)

(* The cap check is racy across workers (a handful of states may slip past
   max_states under contention); the old single-threaded check had the
   same "admit when strictly below" semantics. *)
let push t ~worker st =
  if Atomic.get t.size >= t.max_states then begin
    Atomic.incr t.dropped;
    false
  end
  else begin
    requeue t ~worker st;
    true
  end

(* Victim selection: largest queue first, so a thief grabs from where the
   most unexplored work sits, and Sched.steal hands over what the victim
   values least. Any non-empty queue is a victim, so no queued state is
   stranded while one worker still picks. Lengths are read without the victim's lock;
   staleness only costs ordering. *)
let pick_locked t ~worker =
  let n = Array.length t.workers in
  let me = worker mod n in
  let own =
    with_wq t.workers.(me) (fun () -> Sched.pop t.workers.(me).wq_q)
  in
  match own with
    | Some _ -> own
    | None ->
        let victims =
          List.init n Fun.id
          |> List.filter (fun i -> i <> me)
          |> List.map (fun i -> (i, Sched.length t.workers.(i).wq_q))
          |> List.filter (fun (_, l) -> l > 0)
          |> List.sort (fun (_, a) (_, b) -> compare b a)
        in
        List.fold_left
          (fun acc (i, _) ->
            match acc with
            | Some _ -> acc
            | None -> (
                match
                  with_wq t.workers.(i) (fun () -> Sched.steal t.workers.(i).wq_q)
                with
                | Some st ->
                    Atomic.incr t.steals;
                    Some st
                | None -> None))
          None victims

let pick t ~worker =
  Atomic.incr t.inflight;
  let got = pick_locked t ~worker in
  (match got with
  | Some _ -> Atomic.decr t.size
  | None -> Atomic.decr t.inflight);
  got

let task_done t = Atomic.decr t.inflight

let iter t f =
  Array.iter (fun wq -> with_wq wq (fun () -> Sched.iter wq.wq_q f)) t.workers

let quiescent t = Atomic.get t.size = 0 && Atomic.get t.inflight = 0

(* --- checkpoint dump/restore --------------------------------------------- *)
(* A checkpoint is only taken at a single worker's pick boundary, so it
   holds one queue. The entry dump preserves each push sequence number
   (see Sched.dump_entries); the dropped counter rides along so a resumed
   report's total matches the uninterrupted run's. Dumping is only
   meaningful at a quiescent point (no inflight states — an inflight
   state would simply be missing from the checkpoint). *)

let dump_queue t =
  if Array.length t.workers <> 1 then
    invalid_arg "Frontier.dump_queue: more than one worker";
  let wq = t.workers.(0) in
  with_wq wq (fun () -> Sched.dump_entries wq.wq_q)

let restore_queue t entries ~seq =
  let wq = t.workers.(0) in
  with_wq wq (fun () -> Sched.restore_entries wq.wq_q entries ~seq);
  ignore (Atomic.fetch_and_add t.size (List.length entries))

let restore_counters t ~dropped = Atomic.set t.dropped dropped

(* Only sound once all workers have stopped; used by the main domain to
   retire leftovers after a budget/plateau stop. *)
let drain_all t =
  let all =
    Array.to_list t.workers
    |> List.concat_map (fun wq -> with_wq wq (fun () -> Sched.drain wq.wq_q))
  in
  Atomic.set t.size 0;
  all
