(* [Xid_index] binds each key to a slot. Per-slot columns link the slots
   in LRU order ([older] toward the tail, [newer] toward the head) and
   hold each slot's lease; free slots chain through [older]. The columns
   start at one slot and double on demand up to the capacity. *)

type t = {
  capacity : int;
  index : Xid_index.t;
  mutable older : int array;
  mutable newer : int array;
  mutable lease : float array;
  mutable head : int; (* most recently used; -1 when empty *)
  mutable tail : int;
  mutable free : int;
  mutable count : int;
  mutable displaced : bool;
}

(* [col] grown to [n] cells, new ones set to [fill]. *)
let fit_to n col fill =
  let m = Array.length col in
  if m >= n then col else Array.append col (Array.make (n - m) fill)

let fit t col fill = fit_to (Array.length t.older) col fill

(* New slots join the free list lowest first. *)
let resize t n =
  let m = Array.length t.older in
  t.older <- fit_to n t.older (-1);
  t.newer <- fit_to n t.newer (-1);
  t.lease <- fit_to n t.lease neg_infinity;
  for s = n - 1 downto m do
    t.older.(s) <- t.free;
    t.free <- s
  done;
  Xid_index.resize t.index n

let create ~capacity =
  if capacity <= 0 then invalid_arg "Slot_lru.create: capacity must be positive";
  let t =
    { capacity; index = Xid_index.create 1; older = [||]; newer = [||]; lease = [||];
      head = -1; tail = -1; free = -1; count = 0; displaced = false }
  in
  resize t 1;
  t

let[@hot] slot t k = Xid_index.find t.index k
let[@hot] lease t s = t.lease.(s)
let[@hot] set_lease t s v = t.lease.(s) <- v
let[@hot] displaced t = t.displaced
let count t = t.count

let[@hot] unlink t s =
  let o = t.older.(s) and n = t.newer.(s) in
  if n < 0 then t.head <- o else t.older.(n) <- o;
  if o < 0 then t.tail <- n else t.newer.(o) <- n

let[@hot] push_head t s =
  t.older.(s) <- t.head;
  t.newer.(s) <- -1;
  if t.head < 0 then t.tail <- s else t.newer.(t.head) <- s;
  t.head <- s

let[@hot] promote t s =
  if s <> t.head then begin
    unlink t s;
    push_head t s
  end

let[@hot] find t k =
  let s = Xid_index.find t.index k in
  if s >= 0 then promote t s;
  s

let[@hot] drop t s =
  ignore (Xid_index.remove t.index (Xid_index.key t.index s));
  unlink t s;
  t.older.(s) <- t.free;
  t.free <- s;
  t.count <- t.count - 1

let[@hot] fresh t s ~now =
  let live = t.lease.(s) > now in
  if live then promote t s else drop t s;
  live

(* A new key takes a free slot. A full table first drops its tail, whose
   slot then heads the free list; the tail is never the new key's entry,
   which is not bound yet. *)
let[@hot] insert t k ~lease =
  let s = Xid_index.find t.index k in
  t.displaced <- s >= 0 || t.count = t.capacity;
  let s =
    if s >= 0 then begin
      unlink t s;
      s
    end
    else begin
      if t.count = t.capacity then drop t t.tail;
      let f = t.free in
      t.free <- t.older.(f);
      Xid_index.add t.index ~xid:k ~slot:f;
      t.count <- t.count + 1;
      f
    end
  in
  t.lease.(s) <- lease;
  push_head t s;
  s

(* Growth is the one allocating step, kept out of [insert]. *)
let add t k ~lease =
  if t.free < 0 && t.count < t.capacity then
    resize t (min t.capacity (2 * Array.length t.older));
  insert t k ~lease

let[@hot] remove t k =
  let s = Xid_index.find t.index k in
  if s >= 0 then drop t s

let iter t f =
  let rec walk s =
    if s >= 0 then begin
      let next = t.newer.(s) in
      f s;
      walk next
    end
  in
  walk t.tail

let clear t = iter t (drop t)
