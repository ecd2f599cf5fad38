(** Small combinators over {!Engine} fibers. *)

val join_all : Engine.t -> (unit -> unit) list -> unit
(** [join_all eng fns] runs each [fn] in its own fiber, parking the caller
    until every one has finished. Exceptions in children abort the run. *)

val parallel_window : Engine.t -> window:int -> int -> (int -> unit) -> unit
(** [parallel_window eng ~window n f] runs [f 0 .. f (n-1)], each in its
    own fiber, with at most [window] outstanding at once (issue order is
    index order). Parks the caller until all complete. Models bounded
    client pipelines: NFS read-ahead depth, write-behind windows. *)
