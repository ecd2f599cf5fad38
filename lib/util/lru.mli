(** Capacity-bounded LRU cache with eviction callbacks.

    Used for the µproxy attribute cache, server buffer caches, and the
    block-map fragment cache. Capacity is measured in abstract units
    (entries or bytes) supplied per item, so an 8 KB block can weigh 8192
    while an attribute entry weighs 1. *)

type ('k, 'v) t

type 'v ttl_lookup = Fresh of 'v | Stale | Miss
(** Result of a lease-aware lookup: a live entry, an entry whose lease
    lapsed (removed as a side effect), or no entry at all. The µproxy's
    metadata cache counts the three cases separately. *)

val create : ?on_evict:('k -> 'v -> unit) -> capacity:int -> unit -> ('k, 'v) t
(** [create ~capacity ()] holds items whose weights sum to at most
    [capacity]. [on_evict] fires for every item removed by pressure and
    for a value displaced by {!add} on an existing key (not for explicit
    [remove], and not for a lapsed lease dropped by {!find_ttl}). *)

val find : ('k, 'v) t -> 'k -> 'v option
(** [find t k] returns the value and marks it most-recently-used. Ignores
    leases: an expired entry is still returned (use {!find_ttl} when the
    lease matters). *)

val find_ttl : ('k, 'v) t -> 'k -> now:float -> 'v ttl_lookup
(** Lease-aware [find]: [Fresh v] promotes the entry; an entry with
    [expires_at <= now] is removed (silently — no eviction hook, the data
    is dead, not displaced) and reported [Stale]; [Miss] otherwise. *)

val mem : ('k, 'v) t -> 'k -> bool
(** Membership test without promoting the entry. *)

val add : ('k, 'v) t -> ?weight:int -> ?expires_at:float -> 'k -> 'v -> unit
(** [add t k v] inserts or replaces, then evicts LRU items until within
    capacity. Default [weight] is 1. An item heavier than the total
    capacity is rejected silently after evicting everything else: the
    displaced items fire [on_evict], the rejected one does not.
    [expires_at] (absolute time, default [infinity]) is the entry's lease
    deadline, consulted only by {!find_ttl}. *)

val remove : ('k, 'v) t -> 'k -> unit
val size : ('k, 'v) t -> int
(** Current total weight. *)

val entry_count : ('k, 'v) t -> int
val capacity : ('k, 'v) t -> int
val iter : ('k, 'v) t -> ('k -> 'v -> unit) -> unit
val clear : ('k, 'v) t -> unit
(** Remove everything without firing eviction callbacks. *)

val flush : ('k, 'v) t -> unit
(** Remove everything, firing the eviction callback for each entry
    (used to model write-back of dirty cached state). *)
