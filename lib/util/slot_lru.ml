(* Keys are bound to slots by open addressing over int arrays: [cells]
   holds slot+1 (0 = empty) at Fibonacci-hashed positions with linear
   probing. Its length is a power of two, at least twice the slot columns
   and at least 32, so load stays under 1/2, every probe ends on an empty
   cell and [mask] keeps probes in range (a mask of any other size would
   not). The home cell comes from bits 32 and up of the key times the
   golden-ratio constant, which every key bit below them feeds: file ids,
   whose low bits are their site, spread as well as xids. A bound slot's
   key lives in the [keys] column, so a probe compares ints and a lookup
   allocates nothing. Deletion back-shifts the probe run (no tombstones).

   Further per-slot columns link the slots in LRU order ([older] toward
   the tail, [newer] toward the head) and hold each slot's lease; free
   slots chain through [older]. The columns start at one slot and double
   on demand up to the capacity; the cells grow with them. *)

type t = {
  capacity : int;
  mutable cells : int array;
  mutable mask : int;
  mutable keys : int array;
  mutable older : int array;
  mutable newer : int array;
  mutable lease : float array;
  mutable head : int; (* most recently used; -1 when empty *)
  mutable tail : int;
  mutable free : int;
  mutable count : int;
  mutable displaced : bool;
}

let[@hot] home t k = (k * 0x9E3779B97F4A7C1) lsr 32 land t.mask

let[@hot] rec probe t k i =
  let v = t.cells.(i) in
  if v = 0 then -1 else if t.keys.(v - 1) = k then i else probe t k ((i + 1) land t.mask)

let[@hot] rec scan_free t i = if t.cells.(i) = 0 then i else scan_free t ((i + 1) land t.mask)

let[@hot] bind t k s =
  t.keys.(s) <- k;
  t.cells.(scan_free t (home t k)) <- s + 1

(* Refill the hole at [i] from the probe run following [j]. An entry at
   [j] may move into the hole iff its home position is cyclically outside
   (i, j] — otherwise the move would break its own probe chain. *)
let[@hot] rec shift t i j =
  let j = (j + 1) land t.mask in
  let v = t.cells.(j) in
  if v <> 0 then begin
    let k = home t t.keys.(v - 1) in
    let movable = if j > i then k <= i || k > j else k <= i && k > j in
    if movable then begin
      t.cells.(i) <- v;
      t.cells.(j) <- 0;
      shift t j j
    end
    else shift t i j
  end

let[@hot] unbind t s =
  let k = t.keys.(s) in
  let i = probe t k (home t k) in
  t.cells.(i) <- 0;
  shift t i i

(* [col] grown to [n] cells, new ones set to [fill]. *)
let fit_to n col fill =
  let m = Array.length col in
  if m >= n then col else Array.append col (Array.make (n - m) fill)

let fit t col fill = fit_to (Array.length t.older) col fill

let rec pow2_from p n = if p >= n then p else pow2_from (p * 2) n

(* New slots join the free list lowest first. When the cells must grow,
   every bound slot is rebound at the new size: an amortized one-time
   cost. *)
let resize t n =
  let m = Array.length t.older in
  t.keys <- fit_to n t.keys 0;
  t.older <- fit_to n t.older (-1);
  t.newer <- fit_to n t.newer (-1);
  t.lease <- fit_to n t.lease neg_infinity;
  for s = n - 1 downto m do
    t.older.(s) <- t.free;
    t.free <- s
  done;
  let cells = 2 * pow2_from 16 n in
  if cells > Array.length t.cells then begin
    let old = t.cells in
    t.cells <- Array.make cells 0;
    t.mask <- cells - 1;
    Array.iter (fun v -> if v <> 0 then bind t t.keys.(v - 1) (v - 1)) old
  end

let create ~capacity =
  if capacity <= 0 then invalid_arg "Slot_lru.create: capacity must be positive";
  let t =
    { capacity; cells = [||]; mask = 0; keys = [||]; older = [||]; newer = [||]; lease = [||];
      head = -1; tail = -1; free = -1; count = 0; displaced = false }
  in
  resize t 1;
  t

let[@hot] slot t k =
  let i = probe t k (home t k) in
  if i < 0 then -1 else t.cells.(i) - 1

let[@hot] key t s = t.keys.(s)
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
  let s = slot t k in
  if s >= 0 then promote t s;
  s

let[@hot] drop t s =
  unbind t s;
  unlink t s;
  t.older.(s) <- t.free;
  t.free <- s;
  t.count <- t.count - 1

let[@hot] [@inline] fresh t s ~now =
  let live = t.lease.(s) > now in
  if live then promote t s else drop t s;
  live

(* A new key takes a free slot. A full table first drops its tail, whose
   slot then heads the free list; the tail is never the new key's entry,
   which is not bound yet. *)
let[@hot] insert t k ~lease =
  let s = slot t k in
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
      bind t k f;
      t.count <- t.count + 1;
      f
    end
  in
  t.lease.(s) <- lease;
  push_head t s;
  s

(* Growth is the one allocating step, kept out of [insert]. Inlined, so
   a computed lease reaches its column unboxed. *)
let[@inline] add t k ~lease =
  if t.free < 0 && t.count < t.capacity then
    resize t (min t.capacity (2 * Array.length t.older));
  insert t k ~lease

let[@hot] remove t k =
  let s = slot t k in
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
