(** FFS-flavored extent allocator for a storage partition.

    Tracks free space as a coalescing free list and serves first-fit /
    best-fit extent allocations. The object stores and small-file zones
    allocate their backing space through this, giving the layout the
    sequential-allocation behaviour the paper's create-heavy workloads
    depend on ("the small-file allocation policy lays out data on backing
    objects sequentially, batching newly created files into a single
    stream"). Offsets and lengths are in bytes. *)

type t

val create : size:int64 -> t

val alloc : t -> ?strategy:[ `First_fit | `Best_fit ] -> int -> int64 option
(** [alloc t len] reserves [len] bytes, returning the extent offset, or
    [None] when no free extent is large enough. Default [`First_fit],
    which degenerates to sequential layout on a fresh partition. *)

val free : t -> off:int64 -> len:int -> unit
(** Release an extent; adjacent free extents coalesce.
    @raise Invalid_argument on double-free or out-of-range extents. *)

val free_bytes : t -> int64
val used_bytes : t -> int64

val fragment_count : t -> int
(** Number of free extents — the fragmentation measure. *)

val largest_free : t -> int64

val check_invariants : t -> bool
(** Free extents are sorted, non-overlapping, non-adjacent, in range —
    the property tested by the qcheck suite. *)
