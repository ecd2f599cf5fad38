(** A slot table of int keys: an LRU table with a lease per slot, bounded
    by its capacity. Its users are the µproxy's attribute, name and
    block-map caches, the buffer cache ([Bcache]), the servers' request
    tables ([Nfs_endpoint]'s running marks and duplicate request cache),
    the µproxy's pending requests and {!Slice_net.Rpc}'s outstanding
    calls. The last four add with [~lease:infinity] and never read the
    lease; the pending requests and RPC calls are created with
    [~capacity:max_int], so they only grow.

    Keys are bound to slots through an open-addressing index held in the
    table; the values live in the caller's columns, indexed by slot and
    grown with {!fit}. The table allocates only in {!create}, {!fit},
    {!iter} and when {!add} grows its columns, which double up to the
    capacity. A free slot that was used before is handed out ahead of
    any never used, so the slots ever used are exactly those below the
    most keys the table has held at once.

    Policy: {!find} and a live {!fresh} promote their entry; {!fresh}
    drops an entry whose lease has lapsed ([lease <= now]); {!add}ing a
    new key to a full table evicts the least recently used entry, never
    the one being added. *)

type t

val create : capacity:int -> t

val fit : t -> 'a array -> 'a -> 'a array
(** [fit t col fill] is [col] grown, with [fill], to cover every slot
    handed out so far. *)

val slot : t -> int -> int
(** The slot bound to a key, or [-1]. Promotes nothing. *)

val key : t -> int -> int
(** The key bound to a bound slot. *)

val find : t -> int -> int
(** The slot bound to a key, promoted, or [-1]. Ignores leases. *)

val fresh : t -> int -> now:float -> bool
(** Whether bound slot [s]'s lease is after [now]: if so it is promoted,
    otherwise unbound. *)

val add : t -> int -> lease:float -> int
(** Bind a key as most recently used and return its slot: the key's own
    slot if it was bound, else a free one, after evicting from a full
    table. *)

val displaced : t -> bool
(** Whether the last {!add}'s slot held a live entry (the key's own or
    the evicted one), whose values are still in the caller's columns. *)

val count : t -> int
(** The number of bound keys. *)

val remove : t -> int -> unit
val drop : t -> int -> unit
(** Unbind a bound slot. *)

val clear : t -> unit
val lease : t -> int -> float
val set_lease : t -> int -> float -> unit

val iter : t -> (int -> unit) -> unit
(** Visit the bound slots least recently used first; the function may
    {!drop} the slot it is given. *)
