(* Exported subset: log_raw stays private, so F1 reports its unsafety
   at the exported entry points that reach it. *)

type t = { mutable lease_until : float; mutable bounces : int; log : int list ref }

val wedged : t -> bool
val mutate : t -> int -> unit
val mutate_via_helper : t -> int -> unit
val guard_too_late : t -> int -> unit
val handle : t -> int -> unit
val recover : t -> int -> unit
val crash : t -> int -> unit
val mutate_in_place : t -> int -> unit
