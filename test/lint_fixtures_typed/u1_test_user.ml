(* U1 fixture: a test source (fixture scoping: basename starts with
   "u1_test"), so its uses only downgrade an export to a warning. *)

let check () = U1.test_only 1 = 2
