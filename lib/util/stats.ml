(* Scalar moments are exact; percentiles come from a capped uniform
   reservoir (Vitter's algorithm R) with a cached sorted copy, so exhibits
   that print p95/p99 after every run pay one sort per batch of adds
   instead of an O(n log n) list conversion per query — and memory stays
   bounded no matter how long a run collects samples. *)

type t = {
  mutable n : int;
  mutable total : float;
  mutable mn : float;
  mutable mx : float;
  cap : int;
  prng : Prng.t;
  mutable samples : float array; (* reservoir; live prefix [0, len) *)
  mutable len : int;
  mutable sorted : float array option; (* cache, dropped when the reservoir changes *)
}

let default_reservoir = 8192

let create ?(reservoir = default_reservoir) () =
  if reservoir <= 0 then invalid_arg "Stats.create: reservoir must be positive";
  {
    n = 0;
    total = 0.0;
    mn = infinity;
    mx = neg_infinity;
    cap = reservoir;
    (* fixed seed: statistics stay bit-reproducible run to run *)
    prng = Prng.create 0x5711ce;
    samples = [||];
    len = 0;
    sorted = None;
  }

let ensure_room t =
  if t.len >= Array.length t.samples then begin
    let cap' = Stdlib.min t.cap (Stdlib.max 64 (2 * Array.length t.samples)) in
    let bigger = Array.make cap' 0.0 in
    Array.blit t.samples 0 bigger 0 t.len;
    t.samples <- bigger
  end

let add t x =
  t.n <- t.n + 1;
  t.total <- t.total +. x;
  if x < t.mn then t.mn <- x;
  if x > t.mx then t.mx <- x;
  if t.len < t.cap then begin
    ensure_room t;
    t.samples.(t.len) <- x;
    t.len <- t.len + 1;
    t.sorted <- None
  end
  else begin
    (* algorithm R: keep each of the n samples with probability cap/n *)
    let j = Prng.int t.prng t.n in
    if j < t.cap then begin
      t.samples.(j) <- x;
      t.sorted <- None
    end
  end

let count t = t.n
let mean t = if t.n = 0 then 0.0 else t.total /. float_of_int t.n
let min t = t.mn
let max t = t.mx

let sorted_samples t =
  match t.sorted with
  | Some arr -> arr
  | None ->
      let arr = Array.sub t.samples 0 t.len in
      Array.sort Float.compare arr;
      t.sorted <- Some arr;
      arr

let percentile t p =
  if t.len = 0 then 0.0
  else begin
    let arr = sorted_samples t in
    let m = Array.length arr in
    let rank = int_of_float (ceil (p /. 100.0 *. float_of_int m)) in
    let idx = Stdlib.max 0 (Stdlib.min (m - 1) (rank - 1)) in
    arr.(idx)
  end
