type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let create seed = { state = Int64.of_int seed }

let int64 t =
  t.state <- Int64.add t.state golden_gamma;
  mix64 t.state

let split t = { state = int64 t }

let int t bound =
  if bound <= 0 then invalid_arg "Prng.int: bound must be positive";
  (* Rejection-free modulo is fine for simulation purposes; bias is
     negligible for bounds far below 2^63. *)
  (* land max_int: Int64.to_int keeps the low 63 bits, which can land in
     OCaml's sign bit; mask to stay non-negative *)
  let v = Int64.to_int (int64 t) land max_int in
  v mod bound

let float t bound =
  let v = Int64.to_float (Int64.shift_right_logical (int64 t) 11) in
  bound *. (v /. 9007199254740992.0 (* 2^53 *))

let exponential t mean =
  let u = ref (float t 1.0) in
  if !u = 0.0 then u := 1e-12;
  -.mean *. log !u

let weighted t choices =
  let total = Array.fold_left (fun acc (w, _) -> acc +. w) 0.0 choices in
  if total <= 0.0 then invalid_arg "Prng.weighted: weights must sum > 0";
  let x = float t total in
  let n = Array.length choices in
  let rec loop i acc =
    if i = n - 1 then snd choices.(i)
    else
      let acc = acc +. fst choices.(i) in
      if x < acc then snd choices.(i) else loop (i + 1) acc
  in
  loop 0 0.0
