(** Site tenure: which logical sites a server may serve, and until when.

    Every Slice server that answers for logical sites — storage nodes,
    small-file servers, directory servers — and the block coordinator
    embed one tenure. It holds the single rule behind routing-table
    reconfiguration (Section 3.1: logical sites bound to physical
    servers through a table) and dataless failover (Section 3.4: a
    survivor takes over a failed manager's sites), and the server's
    life:

    - {b life} — up or crashed, and the crashes so far: the one
      fail-stop gate, {!Nfs_endpoint}, reads it;
    - {b ownership} — the logical sites bound here;
    - {b drains} — owned sites mid-migration: reads are still answered,
      updates bounce so none lands behind the move's back. A drain only
      applies to an owned site, and is volatile ({!crash} ends it) so an
      aborted migration's donor serves again;
    - {b load} — requests admitted per site, the rebalancing signal;
    - {b fencing lease} — past its expiry the server is {!wedged} and
      must bounce everything, so a zombie deposed by a takeover cannot
      serve or acknowledge stale state. A fresh tenure holds an infinite
      lease under epoch 0: attaching a failure detector is what makes
      fencing real. *)

type t

val create : int list -> t
(** A live tenure owning the given sites, none in drain, with an infinite
    lease. *)

(** {2 Life} *)

val crash : t -> unit
(** Fail-stop: down, one more crash, and every drain ended (volatile
    control-plane state). Ownership, load, counters and lease stay. *)

val recover : t -> unit
val is_up : t -> bool

val crashes : t -> int
(** Crashes so far. A request that reads the same count at admission
    and later was overtaken by no crash, not even one recovered from. *)

(** {2 Ownership and drains} *)

val owns : t -> int -> bool
(** The site is bound here (in drain or not). *)

val owned_sites : t -> int list
(** Owned sites, ascending. *)

val own : t -> int -> unit
(** Bind a site here; a no-op (keeping any drain) if already owned. *)

val disown : t -> int -> unit
(** Unbind a site; ends its drain too. *)

val begin_drain : t -> int -> unit
(** Start a drain of an owned site (a no-op for a site not owned). *)

val end_drain : t -> int -> unit
val in_drain : t -> int -> bool

(** {2 Request gates} *)

val admit_read : t -> int -> bool
(** An owned site answers reads, in drain or not. Admission counts one
    request toward the site's load. *)

val admit_write : t -> int -> bool
(** Only an owned site not in drain accepts updates. Admission counts
    toward the site's load; a refusal because of a drain counts as a
    drain bounce. *)

(** {2 Load} *)

val note : t -> int -> unit
(** Count one request toward the site's load. *)

val site_load : t -> int -> int
(** Requests counted for the site since creation or the last
    {!reset_load}. *)

val reset_load : t -> int -> unit
(** Forget the site's load row (site migrated or seized away, so stale
    donor load cannot skew later rebalances). *)

val load : t -> int
(** Summed load of the owned sites. *)

(** {2 Counters} *)

val drain_bounces : t -> int
(** Updates refused because their site was in drain. *)

val note_fence : t -> unit
(** Count one request refused because the lease had expired. *)

val fence_bounces : t -> int

(** {2 Fencing lease} *)

val set_lease : t -> epoch:int -> until:float -> unit
(** Grant (or renew) the lease: serve until sim-time [until] under
    fencing epoch [epoch]. *)

val grant : t -> epoch:int -> until:float -> bool
(** A renewal from a failure detector: {!set_lease} while up; a crashed
    server is granted nothing (false). *)

val lease_epoch : t -> int

val wedged : t -> now:float -> bool
(** The lease has expired at sim-time [now]. *)
