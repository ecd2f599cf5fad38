(** Small combinators over {!Engine} fibers. *)

val fan_out : Engine.t -> int -> (int -> unit) -> unit
(** [fan_out eng n f] runs [f 0 .. f (n-1)], each in its own fiber,
    spawned in index order, and parks the caller until every one has
    finished. The children share one counter, one waiter and one thunk:
    the cost does not grow with [n]. Returns at once when [n <= 0].
    Exceptions in children abort the run. *)

val join_all : Engine.t -> (unit -> unit) list -> unit
(** [join_all eng fns] is {!fan_out} over the list: each [fn] runs in
    its own fiber, spawned in list order. *)

val parallel_window : Engine.t -> window:int -> int -> (int -> unit) -> unit
(** [parallel_window eng ~window n f] runs [f 0 .. f (n-1)], each in its
    own fiber, with at most [window] outstanding at once (issue order is
    index order). Parks the caller until all complete. Models bounded
    client pipelines: NFS read-ahead depth, write-behind windows. *)
