(** The Slice µproxy: an interposed request-routing packet filter.

    Installed on a client's network path (here: the client host's egress
    and ingress filter chain, the paper's "configured below the IP stack
    on each client node"), it virtualizes a single NFS server address:

    - requests to the virtual server are intercepted, partially decoded
      (request type + up to four argument fields), classified, and
      redirected by rewriting the destination address — with incremental
      checksum repair — to a storage node, small-file server, or directory
      server chosen by the configured routing policies;
    - bulk I/O on striped files additionally has its offset field
      rewritten to the node-local stripe offset; mirrored files have
      writes duplicated to both replicas and reads alternated between
      them;
    - replies are matched to soft-state pending records by XID, their
      source rewritten back to the virtual address, and their post-op
      attribute blocks patched from the µproxy's attribute cache (which
      it keeps current with I/O traffic and writes back to the directory
      servers via setattr on commit or eviction);
    - NFS commit on a multi-site file is absorbed and orchestrated through
      the block-service coordinator (write commitment, intention
      completion), with the reply synthesized to the client;
    - [lookup]/[getattr]/[access] are answered directly at the proxy when
      its metadata cache holds a live-leased entry (names — including
      negative entries — and attributes), with write-through invalidation
      on every mutating op it routes and a short TTL bounding what an
      unseen mutation by another client can cost (NFS close-to-open
      semantics);
    - readdir over a name-hashed volume is iterated across all directory
      sites by cookie translation;
    - a server bouncing a request with [SLICE_MISDIRECTED] triggers a lazy
      refresh of the µproxy's private routing-table snapshots, one per
      server class. The request is retried at once when some table moved
      since it was forwarded, and after {!Slice_net.Rpc.pause} times the
      retries so far when none did (the move has not committed yet), up
      to {!Slice_net.Rpc.attempts} tries; the client's retransmission
      drives any later one. The µproxy's own calls to a site, the
      attribute write-back and a commit's small-file part, are
      {!Slice_net.Rpc.call_role}s whose re-sends refresh the snapshots
      first.

    Every request forwarded to a storage node or a directory server
    leaves through one tail per class, and every reply the µproxy makes
    up itself (metadata hits, translated readdir pages, a mirrored
    write's error) through one client-reply path.

    The metadata caches — attributes and block maps keyed by file id,
    names keyed by the parent's file id and a hash of the name — are
    bounded LRU slot tables ({!Slice_util.Slot_lru}) whose values sit in
    per-cache columns. A name entry stores its bytes once, when it is
    learned; a lookup compares them where they sit in the request, so it
    allocates nothing, and names whose hashes collide never answer for
    each other. Evicting a dirty attribute writes it back first.

    The µproxy keeps no state shared across clients; losing its soft
    state only costs client RPC retransmissions. Per-phase CPU is both
    charged to the client host and accumulated for the Table 3
    breakdown. *)

type t

type targets = {
  virtual_addr : Slice_net.Packet.addr;
  dir_table : Table.t;
  smallfile_table : Table.t option;
  storage : Table.t option;
      (** logical storage site -> physical node; [None] when the ensemble
          runs without a storage class *)
  coordinator : unit -> Slice_net.Packet.addr option;
      (** the block-service coordinator's address (it serves
          {!Slice_storage.Ctrl.port}). Whether there is one is read at
          {!install}; its address is read at each transmission, so a
          coordinator takeover rebinds it without reinstalling proxies *)
}

type qos = {
  q_tenant : int;  (** tenant id of this µproxy's client *)
  q_tenants : Slice_qos.Tenant.t;  (** shared registry accounted into *)
  q_admit : Slice_qos.Bucket.t option;
      (** token-bucket admission gate; over-rate requests are deferred at
          this edge (never dropped) until a token accrues *)
  q_read_probe : (int -> float) option;
      (** instantaneous backlog of a logical storage site; its presence
          turns mirrored-read routing into power-of-two-choices *)
}
(** Per-µproxy QoS wiring (normally built by [Slice_core.Ensemble]). *)

val install :
  Slice_storage.Host.t ->
  ?params:Params.t ->
  ?seed:int ->
  ?trace:Slice_trace.Trace.t ->
  ?qos:qos ->
  targets ->
  t
(** Interpose on all traffic of this host. [seed] drives the
    mkdir-switching coin. With [trace], every intercepted NFS call opens
    a request-root span; proxy CPU bookings, outgoing RPCs and remote
    server work attach under it. With [qos], requests pass the admission
    gate before routing, replies account ops/bytes/latency to the
    tenant, and mirrored reads go to the less-loaded replica. *)

val discard_soft_state : t -> unit
(** Failure injection: drop pending records and every metadata cache
    entry (attributes, dirty ones included, names and block maps) —
    clients must recover by retransmission. A reply to a dropped record
    passes through to the client unmatched. *)

(** {2 Statistics} *)

type phase_cpu = {
  interception : float;
  decode : float;
  rewrite : float;
  soft_state : float;
}

val cpu_breakdown : t -> phase_cpu
(** Accumulated CPU seconds per µproxy phase (Table 3). *)

val packets_intercepted : t -> int
val replies_processed : t -> int

val reply_status : bytes -> int
(** Peek the NFS status word of an encoded reply without decoding it
    (-1 when the packet is too short). On the per-packet path — kept
    allocation-free (A1). *)

val op_of_proc : int -> string
(** Constant op-name string for an NFS procedure number (no allocation —
    the strings are literals). *)

val routed_to_storage : t -> int
val routed_to_smallfile : t -> int
val routed_to_dir : t -> int
(** Requests forwarded to each class. A mirrored write counts once in
    [routed_to_storage]; [routed_to_dir] includes NULL calls and I/O sent
    to a directory server for want of a storage class. *)

val dir_site_histogram : t -> int array
(** Name-routed requests per logical directory site — the load-balance
    measure behind Figures 3 and 4. *)

val mkdir_redirects : t -> int
val mirror_duplicates : t -> int
val attr_patches : t -> int
val attr_writebacks : t -> int
val commits_orchestrated : t -> int
val intents_opened : t -> int
val stale_bounces : t -> int
val map_fetches : t -> int

val expired_pending : t -> int
(** Pending records reaped by the background sweep because no reply (and
    no client retransmission, which refreshes the record) arrived within
    10 s — the leak the sweep exists to stop. Zero in a healthy run:
    entries normally leave via the reply path. *)

val pending_size : t -> int
(** Live pending records (soft state keyed by XID, in a slot table that
    grows with the requests in flight and has no cap). Must be 0 once
    the workload has quiesced — anything else is a leaked record. *)

type meta_cache_stats = {
  hits : int;  (** positive lookup/getattr/access answered at the proxy *)
  negative_hits : int;  (** lookups answered NOENT from a negative entry *)
  misses : int;  (** fast-path attempts forwarded for lack of an entry *)
  stale : int;  (** fast-path attempts forwarded because a lease lapsed *)
  invalidations : int;  (** mutating ops that invalidated cached entries *)
}

val meta_cache_stats : t -> meta_cache_stats
(** Metadata fast-path counters. Requests the fast path answers never
    reach a directory server — the offload the cache exists to provide. *)

val fence_invalidations : t -> int
(** Times a routing-table fencing-epoch advance flushed the metadata
    caches (a manager takeover deposed the incarnation the entries came
    from). Clean entries are dropped, dirty attributes keep their bytes
    (lease revoked, written back to the successor) so no acked update is
    lost. *)

val admission_deferrals : t -> int
(** Requests the QoS token bucket held back (each wait counts once). *)

val p2c_probes : t -> int
(** Mirrored reads routed by power-of-two-choices. *)

val p2c_diverted : t -> int
(** Mirrored reads the load probe steered away from the chunk-parity
    default replica. *)

val pending_tenant : t -> xid:int -> int option
(** Test hook: tenant stamped on the live pending record for [xid]. *)
