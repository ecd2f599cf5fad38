(** Network storage node: object-based storage device (OBSD/NASD style,
    Section 2.2 of the paper). Exports a flat space of storage objects
    addressed by (object, logical offset); "the storage nodes accept NFS
    file handles as object identifiers, using an external hash to map them
    to storage objects". Serves the NFS subset read / write / commit /
    remove / getattr directly off a buffer-cached disk array with
    sequential prefetch and write clustering.

    Offsets arriving here are {e object-local}: for striped files the
    µproxy rewrites the request offset to the node-local sequence, so each
    node sees a dense stream for its stripe and the prefetcher works, just
    as a real stripe places its chunks contiguously per disk. *)

type t

val attach :
  Host.t -> ?port:int -> ?cache_bytes:int -> ?cap_secret:string ->
  ?sites:int list -> ?trace:Slice_trace.Trace.t ->
  ?qos:Slice_qos.Wfq.t -> unit -> t
(** Attach the service to a host with a disk array. Default port 2049,
    default cache 256 MB (the paper's storage nodes had 256 MB RAM).
    With [cap_secret], every request's handle must carry a valid
    {!Slice_nfs.Cap} tag minted with the same secret, else
    [NFS3ERR_PERM] — secure network-attached storage objects per
    Section 2.2: a compromised µproxy cannot forge access.
    [sites] are the logical storage sites this node initially owns
    (default [\[0\]]): bulk-I/O offsets carry their logical site in the
    high bits ({!Slice_nfs.Routekey.site_offset_int}) and requests for a
    site not owned here bounce with [SLICE_MISDIRECTED].
    With [qos], request dispatch goes through the per-tenant WFQ
    scheduler (see {!Nfs_endpoint.serve}). *)

val addr : t -> Slice_net.Packet.addr

val queue_depth : t -> float
(** Instantaneous CPU backlog in seconds: how long a request arriving now
    would wait. The load gauge behind power-of-two-choices mirror
    routing. *)

val host : t -> Host.t
(** The host this node runs on (failover attaches a successor
    coordinator to a surviving storage node's host). *)

val crash : t -> unit
(** Fail-stop the service: the endpoint goes silent (no decode, no
    replies) and the buffer cache is cold on {!recover} — committed data
    survives, as on a real node whose disks outlive its RAM. Pair with
    {!Slice_net.Net.set_node_up} to silence the whole host. *)

val recover : t -> unit
val is_up : t -> bool

val object_id_of_fh : Slice_nfs.Fh.t -> int64
(** The external hash from file handles to storage object identifiers. *)

val object_count : t -> int
val object_size : t -> Slice_nfs.Fh.t -> int64 option
(** {2 Reconfiguration hooks}

    In-process control-plane surface used by [Slice_reconfig]: logical
    sites can be drained (reads served, writes bounced with
    [SLICE_MISDIRECTED]), exported, imported and rebound without stopping
    the node. *)

val owned_sites : t -> int list
(** Logical sites served here, sorted. *)

val own_site : t -> int -> unit
val disown_site : t -> int -> unit

val begin_drain : t -> int -> unit
(** Enter the drain phase for a moving site: reads keep being served,
    non-mirrored writes bounce with [SLICE_MISDIRECTED] (mirrored writes
    still land — their twin replica already applied the duplicate, and
    the commit-time delta sweep trues up the copy). Draining is volatile:
    {!crash} clears it, so an aborted migration's donor serves again. *)

val end_drain : t -> int -> unit

type site_image
(** A deep copy of one logical site's subobjects, for migration. *)

val export_site : t -> int -> site_image
val import_site : t -> int -> site_image -> unit
val drop_site : t -> int -> unit
(** Remove every subobject of the site (the donor's half of a committed
    migration). *)

val image_bytes : site_image -> int64
(** Logical bytes in the image — what a migration transfers. *)

val site_bytes : t -> int -> int64
(** Logical bytes currently stored for a site on this node. *)

val site_load : t -> int -> int
(** Read/write requests served for the site since attach (rebalancing
    signal). *)

val reset_site_load : t -> int -> unit
(** Forget the per-site load counter (site migrated or seized away). *)

val drain_bounces : t -> int
(** Writes bounced because their site was mid-drain. *)

val misdirect_bounces : t -> int
(** Requests bounced because their site is not bound here (stale µproxy
    tables after a reconfiguration). *)

(** {2 Fencing lease (failover)} *)

val set_lease : t -> epoch:int -> until:float -> unit
(** Grant (or renew) this node's fencing lease: it may serve until
    sim-time [until] under fencing epoch [epoch]. Nodes start with an
    infinite lease (epoch 0) — attaching a failure detector is what
    makes fencing real. *)

val lease_epoch : t -> int

val is_wedged : t -> bool
(** The lease has expired: every request bounces with
    [SLICE_MISDIRECTED] until a new lease is granted, so a zombie
    deposed by a takeover cannot acknowledge writes against stale
    object state. *)

val fence_bounces : t -> int
(** Requests bounced because the lease had expired. *)

val reads : t -> int
val writes : t -> int
val bytes_read : t -> int
val bytes_written : t -> int
val disk : t -> Slice_disk.Disk.t
val drop_caches : t -> unit
(** Cold-cache the node (contents stay on "disk"); used to measure
    disk-bound read paths. *)

val cache_hits : t -> int
val cache_misses : t -> int
