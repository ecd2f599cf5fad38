(* U1 fixture: included whole by u1_user.ml, so every value counts as
   used. *)

val included : int -> int
