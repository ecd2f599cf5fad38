(* U1 fixture: the non-test user of u1.mli, u1_whole.mli and
   u1_incl.mli. [R] is a plain alias: it uses nothing by itself. *)

module R = U1

let call x = R.used x + U1.used_too x

module S = Set.Make (U1_whole)

include U1_incl
