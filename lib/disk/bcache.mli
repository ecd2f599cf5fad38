(** Server buffer cache over 8 KB blocks keyed by (object, block number),
    with the two FFS behaviours the paper's storage nodes lean on:

    - {b sequential prefetch}: a miss on a (near-)sequential stream waits
      only for the demand block and streams up to 256 KB beyond it
      asynchronously. Forward strides up to 8 blocks count as sequential, so a client
      alternating between mirrors still triggers contiguous prefetch —
      which is exactly how mirrored reads come to waste prefetched data on
      the storage nodes (Table 2).
    - {b write clustering / write-behind}: dirty blocks are written back
      lazily; contiguous runs flush as single transfers. [commit] waits
      for the object's dirty data to be stable (NFS V3 commit semantics).

    The cache is parameterized by a {!backend}, because Slice file
    managers are {e dataless}: a storage node's cache sits on its local
    disk array, while a small-file server's cache sits on zones striped
    over the {e network} storage array. Byte counts are model weights;
    block payloads live with the owning service. *)

val block_size : int
(** 8192. *)

type backend = {
  demand_read : obj:int64 -> block:int -> count:int -> sequential:bool -> unit;
      (** Fiber: fetch blocks, parking the caller until they arrive. *)
  readahead : obj:int64 -> block:int -> count:int -> unit;
      (** Issue an asynchronous prefetch; must not park. *)
  write_back : obj:int64 -> block:int -> count:int -> done_:(unit -> unit) -> unit;
      (** Issue an asynchronous write; call [done_] when stable. Must not
          park the caller, nor call [done_] before returning. *)
  sync : unit -> unit;
      (** Fiber: device-level stabilization barrier (commit tail). *)
}

val disk_backend : Slice_sim.Engine.t -> Disk.t -> backend
(** Local disk-array backend (storage nodes). *)

type t

val create : Slice_sim.Engine.t -> backend:backend -> capacity:int -> name:string -> t
(** [capacity] in bytes: the cache holds ⌊capacity / 8192⌋ blocks, and
    raises [Invalid_argument] below one block. Memory grows with use, not
    with [capacity].

    Replacement is LRU. A hit by [read] or [write] promotes the block;
    the readahead probe does not. When full, a new block evicts the LRU
    tail, and a dirty victim is written back on its own. Inserting a
    block that is already resident (a demand read that parked while
    another fiber loaded or dirtied it) replaces it the same way: the
    old copy is evicted, written back if dirty, and one copy stays.

    Block numbers lie in [\[0, 2{^32})]: room for 32 logical sites
    2{^27} blocks apart, where a storage node holds at most eight. A
    cache numbers at most 2{^30} objects over its life; an object seen
    again after {!invalidate_object} drained it takes a new number.
    [read] and [write] raise [Invalid_argument] outside these limits
    rather than let two blocks share an index key. *)

val read : t -> obj:int64 -> block:int -> unit
(** Fiber: ensure the block is resident. *)

val write : t -> obj:int64 -> block:int -> unit
(** Fiber-context: dirty the block (write-behind; no storage wait). *)

val commit : t -> obj:int64 -> unit
(** Fiber: flush the object's dirty blocks with clustering and wait until
    the object's write-backs issued so far are stable. *)

val commit_all : t -> unit
(** Fiber: flush every object's dirty blocks and wait until no
    write-back is outstanding. *)

val invalidate_object : t -> int64 -> unit
(** Drop the object's blocks, dirty ones without write-back. *)

val drop_clean : t -> unit
(** Invalidate everything without write-back — a cold mount, or a crash
    that loses dirty blocks. Write-backs already issued still complete. *)

val hits : t -> int
val misses : t -> int
val prefetched_blocks : t -> int
val resident_bytes : t -> int
