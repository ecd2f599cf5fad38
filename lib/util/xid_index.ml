(* Open addressing over int arrays: [cells] holds slot+1 (0 = empty) at
   Fibonacci-hashed positions with linear probing, sized at twice the
   slot capacity so load stays under 1/2 and every probe terminates on an
   empty cell. The key of a bound slot lives in [keys], so a probe
   compares ints and a lookup allocates nothing. Deletion back-shifts the
   probe run (no tombstones). *)

type t = { mutable cells : int array; mutable mask : int; mutable keys : int array }

let rec pow2_from p n = if p >= n then p else pow2_from (p * 2) n

let create slots =
  let cap = pow2_from 16 slots in
  { cells = Array.make (cap * 2) 0; mask = (cap * 2) - 1; keys = Array.make cap 0 }

let capacity t = Array.length t.keys
let[@hot] key t slot = t.keys.(slot)
let[@hot] home t xid = xid * 0x9E3779B1 land t.mask

let[@hot] rec probe t xid i =
  let v = t.cells.(i) in
  if v = 0 then -1 else if t.keys.(v - 1) = xid then i else probe t xid ((i + 1) land t.mask)

let[@hot] rec scan_free t i = if t.cells.(i) = 0 then i else scan_free t ((i + 1) land t.mask)

let[@hot] find t xid =
  let i = probe t xid (home t xid) in
  if i < 0 then -1 else t.cells.(i) - 1

let[@hot] add t ~xid ~slot =
  t.keys.(slot) <- xid;
  t.cells.(scan_free t (home t xid)) <- slot + 1

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

let[@hot] remove t xid =
  let i = probe t xid (home t xid) in
  if i < 0 then -1
  else begin
    let slot = t.cells.(i) - 1 in
    t.cells.(i) <- 0;
    shift t i i;
    slot
  end

(* Cold: a pool outgrew the index. Rebinding every bound slot at the new
   size is an amortized one-time cost. *)
let resize t slots =
  let cap = pow2_from (capacity t) slots in
  if cap > capacity t then begin
    let old = t.cells in
    let keys = Array.make cap 0 in
    Array.blit t.keys 0 keys 0 (Array.length t.keys);
    t.keys <- keys;
    t.cells <- Array.make (cap * 2) 0;
    t.mask <- (cap * 2) - 1;
    Array.iter (fun v -> if v <> 0 then add t ~xid:keys.(v - 1) ~slot:(v - 1)) old
  end

let clear t = Array.fill t.cells 0 (Array.length t.cells) 0
