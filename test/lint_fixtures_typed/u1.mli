(* U1 fixture: exports and their users. Positions and messages are
   pinned by golden/u1.json. *)

(* clean: u1_user.ml calls it through a renaming alias *)
val used : int -> int

(* positive: nothing outside this module uses it *)
val dead : int -> int

(* positive: only u1.ml itself uses it *)
val self_only : int -> int

(* warning: only u1_test_user.ml (a test source) uses it *)
val test_only : int -> int

(* lint: U1 ok — kept for a fixture that asserts suppression *)
val kept : int -> int

(* lint: U1 ok — stale: used is used, so this suppresses nothing *)
val used_too : int -> int

module Inner : sig
  (* positive: nested signatures are covered *)
  val deep : int
end
