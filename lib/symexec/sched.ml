(* A state's priority is a function of its key alone (the engine keys a
   state by its current block), so the states waiting at one key form a
   bucket in sequence (FIFO) order, and the least (priority, sequence)
   state is the head of some bucket. A pick scans the non-empty buckets
   and prices each key afresh: no corpus pick sees more than 13 waiting
   blocks, and a count bump costs nothing until the next pick reads it.
   Sequence numbers are unique, so the pick does not depend on the
   table's iteration order. *)

module IH = Hashtbl.Make (Int)

type queue = {
  key : Symstate.t -> int;
  priority : int -> int;
  buckets : (int * Symstate.t) Queue.t IH.t;
  (* key -> its non-empty FIFO of (sequence, state), ascending *)
  mutable seq : int;                    (* last sequence number handed out *)
  mutable count : int;                  (* queued states *)
}

let create ~key ~priority =
  { key; priority; buckets = IH.create 16; seq = 0; count = 0 }

let length q = q.count

(* Append to the key's bucket; only a key's first state opens one. A new
   sequence number is the largest yet, so appending keeps the bucket in
   order. *)
let push q st =
  let k = q.key st in
  let b =
    match IH.find_opt q.buckets k with
    | Some b -> b
    | None ->
        let b = Queue.create () in
        IH.replace q.buckets k b;
        b
  in
  q.seq <- q.seq + 1;
  Queue.add (q.seq, st) b;
  q.count <- q.count + 1

(* Take the head of the bucket whose (live priority, head sequence) is
   least. Every priority is read before anything moves, so a fault in
   [priority] leaves the queue as it was. *)
let pop q =
  let best =
    IH.fold
      (fun k b best ->
        let p = q.priority k and s = fst (Queue.peek b) in
        match best with
        | Some (p', s', _, _) when (if p <> p' then p > p' else s > s') ->
            best
        | _ -> Some (p, s, k, b))
      q.buckets None
  in
  Option.map
    (fun (_, _, k, b) ->
      let _, st = Queue.pop b in
      if Queue.is_empty b then IH.remove q.buckets k;
      q.count <- q.count - 1;
      st)
    best

let iter q f = IH.iter (fun _ b -> Queue.iter (fun (_, st) -> f st) b) q.buckets

let drain q =
  let rec go acc =
    match pop q with None -> List.rev acc | Some st -> go (st :: acc)
  in
  go []
