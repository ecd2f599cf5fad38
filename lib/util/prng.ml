(* The SplitMix64 state lives in 8 bytes, read and written unboxed: a
   [mutable int64] field would box every store, so every draw. With the
   draws inlined, an [int] or a [float] reaches its caller unboxed. *)
type t = bytes

external get64 : bytes -> int -> int64 = "%caml_bytes_get64u"
external set64 : bytes -> int -> int64 -> unit = "%caml_bytes_set64u"

let golden_gamma = 0x9E3779B97F4A7C15L

let[@inline] mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let of_state s =
  let t = Bytes.create 8 in
  set64 t 0 s;
  t

let create seed = of_state (Int64.of_int seed)

let[@inline] int64 t =
  let s = Int64.add (get64 t 0) golden_gamma in
  set64 t 0 s;
  mix64 s

let split t = of_state (int64 t)

let int t bound =
  if bound <= 0 then invalid_arg "Prng.int: bound must be positive";
  (* Rejection-free modulo is fine for simulation purposes; bias is
     negligible for bounds far below 2^63. *)
  (* land max_int: Int64.to_int keeps the low 63 bits, which can land in
     OCaml's sign bit; mask to stay non-negative *)
  let v = Int64.to_int (int64 t) land max_int in
  v mod bound

let[@inline] float t bound =
  let v = Int64.to_float (Int64.shift_right_logical (int64 t) 11) in
  bound *. (v /. 9007199254740992.0 (* 2^53 *))

let[@inline] exponential t mean =
  let u = float t 1.0 in
  let u = if u = 0.0 then 1e-12 else u in
  -.mean *. log u

(* Local float refs in loops, which the compiler keeps unboxed; both
   sums run left to right. The last choice takes whatever rounding leaves
   past the running sum. *)
let weighted t choices =
  let n = Array.length choices in
  let total = ref 0.0 in
  for i = 0 to n - 1 do
    total := !total +. fst choices.(i)
  done;
  if !total <= 0.0 then invalid_arg "Prng.weighted: weights must sum > 0";
  let x = float t !total in
  let acc = ref 0.0 and i = ref 0 and pick = ref (n - 1) in
  while !i < !pick do
    acc := !acc +. fst choices.(!i);
    if x < !acc then pick := !i else incr i
  done;
  snd choices.(!pick)
