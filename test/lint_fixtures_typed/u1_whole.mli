(* U1 fixture: passed whole to Set.Make in u1_user.ml, so every value
   counts as used, [extra] included. *)

type t = int

val compare : t -> t -> int
val extra : int
