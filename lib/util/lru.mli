(** Capacity-bounded LRU cache with eviction callbacks.

    Used for the µproxy's attribute, name and block-map caches and for
    the storage nodes' duplicate request cache. Capacity counts entries.
    The server buffer cache keeps its own slot table ([Bcache]). *)

type ('k, 'v) t

type 'v ttl_lookup = Fresh of 'v | Stale | Miss
(** Result of a lease-aware lookup: a live entry, an entry whose lease
    lapsed (removed as a side effect), or no entry at all. The µproxy's
    metadata cache counts the three cases separately. *)

val create : ?on_evict:('k -> 'v -> unit) -> capacity:int -> unit -> ('k, 'v) t
(** [create ~capacity ()] holds at most [capacity] entries. [on_evict]
    fires for every item removed by pressure and for a value displaced by
    {!add} on an existing key (not for explicit [remove], and not for a
    lapsed lease dropped by {!find_ttl}). *)

val find : ('k, 'v) t -> 'k -> 'v option
(** [find t k] returns the value and marks it most-recently-used. Ignores
    leases: an expired entry is still returned (use {!find_ttl} when the
    lease matters). *)

val find_ttl : ('k, 'v) t -> 'k -> now:float -> 'v ttl_lookup
(** Lease-aware [find]: [Fresh v] promotes the entry; an entry with
    [expires_at <= now] is removed (silently — no eviction hook, the data
    is dead, not displaced) and reported [Stale]; [Miss] otherwise. *)

val add : ('k, 'v) t -> ?expires_at:float -> 'k -> 'v -> unit
(** [add t k v] inserts or replaces, then evicts the LRU item if the
    cache holds one entry too many. [expires_at] (absolute time, default [infinity]) is the entry's lease
    deadline, consulted only by {!find_ttl}. *)

val remove : ('k, 'v) t -> 'k -> unit
val entry_count : ('k, 'v) t -> int
val iter : ('k, 'v) t -> ('k -> 'v -> unit) -> unit
val clear : ('k, 'v) t -> unit
(** Remove everything without firing eviction callbacks. *)
