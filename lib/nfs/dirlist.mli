(** Directory listings, each kept in name order.

    A server's listing of one directory: parallel name and handle arrays
    sorted by [String.compare], grown by doubling. Names in a directory
    are unique, so this is the order a sort of the [(name, handle)] pairs
    with [compare] gives, and a readdir page is a slice of it rather than
    a fold and a sort of the whole directory.

    The last page built is kept with the request that built it and
    returned again, physically equal, until {!add} or {!remove} is
    called on the directory. *)

type t
(** One directory's listing. *)

type index = (int64, t) Hashtbl.t
(** A server's listings by directory fileID. A directory's row comes
    with its first entry and goes with its last, so the index holds one
    row per non-empty directory. *)

val add : index -> int64 -> string -> Fh.t -> unit
(** [add index dir name fh] binds [name] to [fh] in [dir]'s listing,
    replacing an existing binding. *)

val remove : index -> int64 -> string -> unit
(** [remove index dir name] drops [name]'s binding from [dir]'s listing
    (absent names are ignored), and [dir]'s row once it is empty. *)

val listing : index -> int64 -> t
(** [dir]'s listing: an empty one, left out of [index], when [dir] has
    no row. *)

val find : index -> int64 -> string -> Fh.t option
(** [find index dir name]: the handle bound to [name] in [dir], found by
    binary search in the listing. *)

val mem : index -> int64 -> string -> bool
(** [mem index dir name]: is [name] bound in [dir]? *)

val iter : (int64 -> string -> Fh.t -> unit) -> index -> unit
(** [iter f index] calls [f dir name fh] on every binding: each
    directory's in name order, the directories in the index's order. *)

val page : t -> start:int -> count:int -> Nfs.reply
(** [page t ~start ~count] is the [RReaddir] page of the entries at
    positions [start] to [start + count - 1], in order, each with cookie
    position + 1, then the next cookie [min total (start + count)] and
    eof when that reaches the total. A request with the same [start] and
    [count] as the last one, and no {!add} or {!remove} since, returns
    the last page itself. *)
