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
}

let create ~workers ~key ~priority =
  let mk _ = { wq_mu = Mutex.create (); wq_q = Sched.create ~key ~priority } in
  {
    workers = Array.init (max 1 workers) mk;
    size = Atomic.make 0;
    inflight = Atomic.make 0;
    steals = Atomic.make 0;
  }

let n_workers t = Array.length t.workers
let size t = Atomic.get t.size
let steals t = Atomic.get t.steals

let with_wq wq f =
  Mutex.lock wq.wq_mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock wq.wq_mu) f

let push t ~worker st =
  let wq = t.workers.(worker mod Array.length t.workers) in
  Atomic.incr t.size;
  with_wq wq (fun () -> Sched.push wq.wq_q st)

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

(* Only sound once all workers have stopped; used by the main domain to
   retire leftovers after a budget/plateau stop. *)
let drain_all t =
  let all =
    Array.to_list t.workers
    |> List.concat_map (fun wq -> with_wq wq (fun () -> Sched.drain wq.wq_q))
  in
  Atomic.set t.size 0;
  all
