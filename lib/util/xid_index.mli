(** Allocation-free index from an int key to a pool slot.

    The pooled tables that match replies to outstanding requests — the
    µproxy's pending records and {!Slice_net.Rpc}'s calls — keep their
    records in an array and find them by xid through this index.
    {!Slot_lru} indexes its tables through it too: file ids for the
    µproxy's attributes and block maps, name hashes folded with the
    parent's file id for names, (object, block) keys for the buffer
    cache, and xids for the servers' request tables. Slots
    are small non-negative ints below the slot count; each slot is bound to
    at most one xid at a time. Lookups, inserts and deletes allocate
    nothing. *)

type t

val create : int -> t
(** [create slots] indexes slots [0 .. slots - 1] (rounded up to a power
    of two, at least 16). *)

val find : t -> int -> int
(** [find t xid] is the slot bound to the key [xid], or [-1]. Keys are
    arbitrary ints. *)

val add : t -> xid:int -> slot:int -> unit
(** Bind an unbound [xid] to [slot], which must be below the slot count
    given to {!create} or {!resize}. *)

val remove : t -> int -> int
(** [remove t xid] unbinds [xid] and returns its slot, or [-1] if it was
    not bound. *)

val key : t -> int -> int
(** [key t slot] is the xid most recently bound to [slot]. *)

val resize : t -> int -> unit
(** [resize t slots] makes room for at least [slots] slots, keeping every
    binding; a no-op when there is room already. Allocates when it grows;
    meant for pool growth. *)

val clear : t -> unit
(** Drop every binding. *)
