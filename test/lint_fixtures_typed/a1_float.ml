(* A1 float fixture: where a float result is boxed and where cmmgen
   keeps it unboxed. Each root's words are pinned by test_lint. *)

type cell = { mutable total : float; mutable count : int }

let fsink = ref 0.0

(* 2 words: the inner sum feeds the product, which is returned boxed *)
let[@hot] chain a b c = (a +. b) *. c

(* 0: a sum stored into a float array is written unboxed *)
let[@hot] store (arr : float array) i a b = arr.(i) <- arr.(i) +. (a *. b)

(* 0: an inlined function's result lands unboxed in its caller *)
let[@hot] [@inline] inline_return a b = Float.max a b -. float_of_int 1

(* 0: the inlined result feeds more arithmetic *)
let[@hot] inline_feeds (arr : float array) a b = arr.(0) <- inline_return a b *. 2.0

(* 2: the caller boxes the inlined result into a ref cell *)
let[@hot] inline_boxed a b = fsink := inline_return a b

(* 2: an inlined function's float parameter, passed unboxed, is boxed
   where the ref cell takes it *)
let[@hot] [@inline] inline_param a = fsink := a

(* 0: a let-bound float used only by arithmetic and float-array stores *)
let[@hot] let_bound (arr : float array) a b =
  let s = if a > b then a -. b else 0.0 in
  arr.(0) <- s;
  arr.(1) <- s *. 2.0

(* 2: the let-bound float is boxed where a ref cell takes it *)
let[@hot] boxed_use a b =
  let s = a +. b in
  if s > 1.0 then fsink := s

(* 2: a mixed record's float field holds a box *)
let[@hot] record_store (c : cell) a = c.total <- c.total +. a
