(** Compact routing tables mapping logical server sites to physical
    servers (Section 3.3.1). "Multiple logical sites may map to the same
    physical server, leaving flexibility for reconfiguration. The routing
    tables constitute soft state; the mapping is determined externally, so
    the µproxy never modifies the tables."

    This is the authoritative, externally-managed table; each µproxy holds
    a private {!snapshot} (a hint) that may go stale and is refreshed
    lazily when a server bounces a misdirected request. *)

type t

val create : Slice_net.Packet.addr array -> t
(** [create map] with [map.(logical) = physical]. *)

val nsites : t -> int
(** Number of logical sites (fixed at creation: the rebalancing
    granularity). *)

val lookup : t -> int -> Slice_net.Packet.addr
val version : t -> int

val update : t -> Slice_net.Packet.addr array -> unit
(** Reconfiguration: rebind logical sites to physical servers, bumping
    the version so stale µproxy snapshots refresh on their next bounce.
    Publishing a mapping identical to the current one is a no-op (no
    version bump): idempotent control-plane commits must not cause
    refresh storms. Must keep the same number of logical sites — the
    site count is the rebalancing granularity, fixed at creation because
    the routing hashes are [mod nsites] (growing it would rehome every
    entry); deployments run more logical sites than servers instead.
    @raise Invalid_argument on a length change. *)

val snapshot : t -> Slice_net.Packet.addr array * int
(** Copy of the mapping plus its version, for a µproxy's private hint. *)

val data_nodes : Slice_net.Packet.addr array -> Slice_nfs.Fh.t -> Slice_net.Packet.addr list
(** The placement rule: the storage nodes that may hold data of a file
    under a storage-class mapping (a {!snapshot}'s array), each once. A
    mirrored file lives on its two replica sites' nodes, primary first;
    any other file is striped over every node, in ascending order. *)

val node_set : Slice_net.Packet.addr array -> Slice_net.Packet.addr array
(** Every node of a mapping once, in ascending order: where an unmirrored
    file lives. A µproxy computes it once per snapshot. *)

val placement :
  Slice_net.Packet.addr array ->
  nodes:Slice_net.Packet.addr array ->
  Slice_nfs.Fh.t ->
  Slice_net.Packet.addr array
(** {!data_nodes} as an array, given the mapping's {!node_set}: an
    unmirrored file gets [nodes] itself, shared and not to be written. *)

val epoch : t -> int
(** Fencing epoch (starts at 1). Unlike the version — which moves on any
    rebinding — the epoch only advances on a failover takeover, and marks
    every lease granted under a smaller epoch as deposed. *)

val bump_epoch : t -> unit
(** Advance the fencing epoch after a takeover claims a failed server's
    sites. Also bumps the version (even if the mapping is unchanged) so
    stale µproxy snapshots refresh — and, seeing the epoch move, discard
    metadata cached from the dead incarnation. *)
