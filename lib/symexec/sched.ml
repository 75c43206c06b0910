(* --- growable ring-buffer deque ----------------------------------------- *)
(* A bucket's FIFO of waiting states. Slots hold options so no dummy
   element is needed; the buffer doubles on overflow. A bucket appends at
   the back, pops its oldest entry from the front and gives a thief its
   newest from the back. *)

type 'a deque = {
  mutable buf : 'a option array;
  mutable head : int;    (* index of the front element *)
  mutable len : int;
}

let dq_create () = { buf = Array.make 16 None; head = 0; len = 0 }

let dq_grow d =
  let cap = Array.length d.buf in
  let buf' = Array.make (2 * cap) None in
  for i = 0 to d.len - 1 do
    buf'.(i) <- d.buf.((d.head + i) mod cap)
  done;
  d.buf <- buf';
  d.head <- 0

let dq_push_back d x =
  if d.len = Array.length d.buf then dq_grow d;
  let cap = Array.length d.buf in
  d.buf.((d.head + d.len) mod cap) <- Some x;
  d.len <- d.len + 1

let dq_pop_front d =
  if d.len = 0 then None
  else begin
    let x = d.buf.(d.head) in
    d.buf.(d.head) <- None;
    d.head <- (d.head + 1) mod Array.length d.buf;
    d.len <- d.len - 1;
    x
  end

let dq_pop_back d =
  if d.len = 0 then None
  else begin
    let i = (d.head + d.len - 1) mod Array.length d.buf in
    let x = d.buf.(i) in
    d.buf.(i) <- None;
    d.len <- d.len - 1;
    x
  end

let dq_get d i = Option.get d.buf.((d.head + i) mod Array.length d.buf)

(* --- the queue ------------------------------------------------------------ *)
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
  buckets : (int * Symstate.t) deque IH.t;
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
  let d =
    match IH.find_opt q.buckets k with
    | Some d -> d
    | None ->
        let d = dq_create () in
        IH.replace q.buckets k d;
        d
  in
  q.seq <- q.seq + 1;
  dq_push_back d (q.seq, st);
  q.count <- q.count + 1

(* Remove a state from the bucket whose (live priority, head sequence)
   is least ([sign = 1]) or greatest ([sign = -1]): its head for a pop,
   its tail for a steal. Every priority is read before anything moves,
   so a fault in [priority] leaves the queue as it was. *)
let take q ~sign remove =
  let best =
    IH.fold
      (fun k d best ->
        let p = q.priority k and s = fst (dq_get d 0) in
        match best with
        | Some (p', s', _, _)
          when sign * (if p <> p' then compare p p' else compare s s') >= 0 ->
            best
        | _ -> Some (p, s, k, d))
      q.buckets None
  in
  Option.map
    (fun (_, _, k, d) ->
      let _, st = Option.get (remove d) in
      if d.len = 0 then IH.remove q.buckets k;
      q.count <- q.count - 1;
      st)
    best

let pop q = take q ~sign:1 dq_pop_front

(* The newest state of the greatest bucket: with two or more buckets it
   is not the least one, and inside a lone bucket the newest is not the
   head, so with two or more states queued this never takes the
   minimum. *)
let steal q = take q ~sign:(-1) dq_pop_back

let iter q f =
  IH.iter
    (fun _ d ->
      for j = 0 to d.len - 1 do
        f (snd (dq_get d j))
      done)
    q.buckets

let drain q =
  let rec go acc =
    match pop q with None -> List.rev acc | Some st -> go (st :: acc)
  in
  go []
