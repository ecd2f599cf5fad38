(** The real bytes of a file or storage object, kept in the
    {!Bcache.block_size} blocks that writes of real data have touched.
    The baseline NFS server and the storage nodes ([Obsd]) keep their
    bytes here. A block no such write touched holds no bytes: a read
    that covers one gets [None], and the server answers with synthetic
    data. *)

type t = (int, bytes) Hashtbl.t
(** Block number -> the block's bytes. *)

val create : unit -> t

val store : t -> off:int -> string -> unit
(** Write the bytes at [off], materializing each touched block (zeros
    where nothing was written). *)

val load : t -> off:int -> count:int -> string option
(** The [count] bytes at [off], if every block they touch holds bytes. *)

val truncate : t -> int -> unit
(** [truncate t size] forgets the blocks wholly past [size] and zeroes
    the rest of the block [size] falls in, so the bytes past a new size
    read as zeros once the file grows again. *)
