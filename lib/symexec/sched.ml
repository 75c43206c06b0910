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

(* --- block-bucketed min-heap --------------------------------------------- *)
(* A state's priority is a function of its key alone (the engine keys a
   state by its current block), and a key's priority never shrinks:
   block-execution counts only grow. The states waiting at one key form a bucket, in sequence
   (FIFO) order, and the heap holds one entry per non-empty bucket,
   keyed by (stored priority, sequence of the bucket's head). A stored
   priority is a lower bound on the live one, so [hp_pop] re-checks the
   minimum bucket against the live [priority] and re-sifts it when it
   went stale (lazy re-evaluation). That returns exactly the state
   minimizing (live priority, sequence), as recomputing every priority
   per pick would, while a count bump stales one heap entry per block
   instead of one per waiting state. *)

module IH = Hashtbl.Make (Int)

type bucket = {
  b_key : int;
  mutable b_prio : int;
  b_items : (int * Symstate.t) deque;  (* (sequence, state), ascending *)
}

type heap = {
  mutable harr : bucket array;
  mutable hlen : int;
  mutable hseq : int;
  mutable hcount : int;                  (* queued states *)
  buckets : bucket IH.t;                 (* key -> its non-empty bucket *)
}

(* Fills the unused heap slots; never compared or popped. *)
let no_bucket = { b_key = 0; b_prio = 0; b_items = dq_create () }

let hp_create () =
  { harr = Array.make 16 no_bucket; hlen = 0; hseq = 0; hcount = 0;
    buckets = IH.create 16 }

let head_seq b = fst (dq_get b.b_items 0)

let he_lt a b =
  a.b_prio < b.b_prio || (a.b_prio = b.b_prio && head_seq a < head_seq b)

let hp_swap h i j =
  let t = h.harr.(i) in
  h.harr.(i) <- h.harr.(j);
  h.harr.(j) <- t

let rec hp_sift_up h i =
  if i > 0 then begin
    let p = (i - 1) / 2 in
    if he_lt h.harr.(i) h.harr.(p) then begin
      hp_swap h i p;
      hp_sift_up h p
    end
  end

let rec hp_sift_down h i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = ref i in
  if l < h.hlen && he_lt h.harr.(l) h.harr.(!smallest) then smallest := l;
  if r < h.hlen && he_lt h.harr.(r) h.harr.(!smallest) then smallest := r;
  if !smallest <> i then begin
    hp_swap h i !smallest;
    hp_sift_down h !smallest
  end

let hp_insert h b =
  if h.hlen = Array.length h.harr then begin
    let arr' = Array.make (2 * h.hlen) no_bucket in
    Array.blit h.harr 0 arr' 0 h.hlen;
    h.harr <- arr'
  end;
  h.harr.(h.hlen) <- b;
  h.hlen <- h.hlen + 1;
  hp_sift_up h (h.hlen - 1)

(* Drop the bucket in the last slot: always a leaf, so the heap shape is
   intact with no sifting. *)
let hp_drop_last h =
  h.hlen <- h.hlen - 1;
  IH.remove h.buckets h.harr.(h.hlen).b_key;
  h.harr.(h.hlen) <- no_bucket

(* A new sequence number is the largest yet, so appending keeps the
   bucket in order and its head (hence its heap key) unchanged; only a
   key's first state opens a bucket and prices it. The counters move
   last, so a fault in [priority] leaves the heap as it was. *)
let hp_push h ~key ~priority st =
  let k = key st and seq = h.hseq + 1 in
  (match IH.find_opt h.buckets k with
  | Some b -> dq_push_back b.b_items (seq, st)
  | None ->
      let b = { b_key = k; b_prio = priority k; b_items = dq_create () } in
      dq_push_back b.b_items (seq, st);
      IH.replace h.buckets k b;
      hp_insert h b);
  h.hseq <- seq;
  h.hcount <- h.hcount + 1

let rec hp_pop h ~priority =
  if h.hlen = 0 then None
  else begin
    let b = h.harr.(0) in
    let cur = priority b.b_key in
    if cur <> b.b_prio then begin
      (* Stale key: store the fresh priority, re-sift and retry. Each
         retry stores the recomputed value, so the loop terminates. *)
      b.b_prio <- cur;
      hp_sift_down h 0;
      hp_pop h ~priority
    end
    else begin
      let _, st = Option.get (dq_pop_front b.b_items) in
      h.hcount <- h.hcount - 1;
      if b.b_items.len = 0 then begin
        hp_swap h 0 (h.hlen - 1);
        hp_drop_last h
      end;
      (* The head's sequence grew, or another bucket moved up. *)
      if h.hlen > 0 then hp_sift_down h 0;
      Some st
    end
  end

(* Take the newest state of the bucket in the last heap slot. A leaf
   bucket's states all sort after the root's head, and within the root
   bucket the newest is not the head, so with two or more states queued
   (and current stored priorities) this never takes the minimum: it is
   what the owner values least and a thief should take. Removing a
   bucket's tail leaves its head, hence its heap key, as it was. *)
let hp_steal h =
  if h.hlen = 0 then None
  else begin
    let b = h.harr.(h.hlen - 1) in
    let _, st = Option.get (dq_pop_back b.b_items) in
    h.hcount <- h.hcount - 1;
    if b.b_items.len = 0 then hp_drop_last h;
    Some st
  end

(* --- the queue ------------------------------------------------------------ *)

type queue = {
  q_key : Symstate.t -> int;
  q_priority : int -> int;
  q_heap : heap;
}

let create ~key ~priority =
  { q_key = key; q_priority = priority; q_heap = hp_create () }

let length q = q.q_heap.hcount
let push q st = hp_push q.q_heap ~key:q.q_key ~priority:q.q_priority st
let pop q = hp_pop q.q_heap ~priority:q.q_priority
let steal q = hp_steal q.q_heap

let iter q f =
  let h = q.q_heap in
  for i = 0 to h.hlen - 1 do
    let items = h.harr.(i).b_items in
    for j = 0 to items.len - 1 do
      f (snd (dq_get items j))
    done
  done

let drain q =
  let rec go acc =
    match pop q with None -> List.rev acc | Some st -> go (st :: acc)
  in
  go []

(* --- checkpoint dump/restore --------------------------------------------- *)
(* Pop order must survive a checkpoint exactly. For a heap that means the
   recorded sequence numbers and the sequence counter, not the array
   layout: pops follow (live priority, sequence) with unique sequences,
   so any bucket heap over the same entries pops in the same order, but a
   re-push with fresh sequence numbers would tie-break future
   equal-priority entries differently than the uninterrupted run. Each
   entry carries its bucket's stored priority, a lower bound on the live
   one. *)

let dump_entries q =
  let h = q.q_heap in
  let entries = ref [] in
  for i = h.hlen - 1 downto 0 do
    let b = h.harr.(i) in
    for j = b.b_items.len - 1 downto 0 do
      let seq, st = dq_get b.b_items j in
      entries := (st, b.b_prio, seq) :: !entries
    done
  done;
  (!entries, h.hseq)

(* Only meaningful on a freshly created (empty) queue. Buckets are
   rebuilt in the order their keys first appear, which for a dump of this
   heap re-creates its array layout (a valid heap inserted level by level
   never sifts), so steals after a resume take what they would have
   taken. A bucket stores the least priority recorded for its entries:
   each is a lower bound on the key's live priority, so the least is
   too. *)
let restore_entries q entries ~hseq =
  let h = q.q_heap in
  let pending = Hashtbl.create 16 and order = ref [] in
  List.iter
    (fun ((st, prio, _) as e) ->
      let k = q.q_key st in
      match Hashtbl.find_opt pending k with
      | Some (p, es) -> Hashtbl.replace pending k (min p prio, e :: es)
      | None ->
          Hashtbl.replace pending k (prio, [ e ]);
          order := k :: !order)
    entries;
  List.iter
    (fun k ->
      let prio, es = Hashtbl.find pending k in
      let b = { b_key = k; b_prio = prio; b_items = dq_create () } in
      List.iter
        (fun (st, _, seq) -> dq_push_back b.b_items (seq, st))
        (List.sort (fun (_, _, a) (_, _, b) -> compare a b) es);
      h.hcount <- h.hcount + List.length es;
      IH.replace h.buckets k b;
      hp_insert h b)
    (List.rev !order);
  h.hseq <- max h.hseq hseq
