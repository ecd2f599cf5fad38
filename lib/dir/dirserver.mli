(** Directory server (Sections 3.2 and 4.3).

    Stores directory information as cells — name entries and attribute
    cells — indexed by hash chains keyed on (parent handle, name). Cells
    for one directory may be distributed across servers: entries reference
    remote attribute cells through the site key minted into each file
    handle, and servers cooperate through the {!Peer} protocol for
    cross-site link counts, entry counts, and attribute access. The same
    code base serves both name-space distribution policies (the µproxy
    decides where requests land):

    - {e mkdir switching}: a directory's entries live with its attribute
      cell; a redirected mkdir creates the child at this site and installs
      the parent's name entry remotely (the "orphaned directory" case,
      done as a logged two-phase update);
    - {e name hashing}: each entry lives at MD5(parent fh, name) mod N;
      conflicting operations on one entry serialize at its site.

    Every update is journaled to a write-ahead log before the reply
    ("dataless" manager); {!crash}/{!recover} rebuild the server from the
    surviving log, re-driving incomplete cross-site updates (idempotent
    thanks to peer-side dedup of operation ids). *)

type policy = Mkdir_switching | Name_hashing

type config = {
  logical_id : int;  (** this server's logical site id, 0-based *)
  nsites : int;  (** logical directory sites in the volume *)
  policy : policy;
  resolve : int -> Slice_net.Packet.addr;  (** logical site -> physical *)
  peer_port : int;  (** peer protocol port (conventionally 2051) *)
  data_sites : Slice_nfs.Fh.t -> Slice_net.Packet.addr list;
      (** storage nodes that may hold bulk data of a file *)
  smallfile_site : Slice_nfs.Fh.t -> Slice_net.Packet.addr option;
  coordinator : Slice_nfs.Fh.t -> (Slice_net.Packet.addr * int) option;
      (** block-service coordinator for multi-site remove/truncate *)
  mirror_new_files : bool;
      (** per-file mirrored-striping policy flag minted into new regular
          files' handles (Section 3.1's attribute-based mirroring) *)
  cap_secret : string option;
      (** when set, every minted handle is sealed with a {!Slice_nfs.Cap}
          capability tag that the storage nodes (sharing the secret)
          verify — the NASD-style protection that lets the µproxy live
          outside the trust boundary (Section 2.2) *)
  also_owns : int list;
      (** additional logical sites this server hosts from the start.
          "Multiple logical sites may map to the same physical server,
          leaving flexibility for reconfiguration" (Section 3.3.1): run
          more logical sites than servers and rebalance by moving logical
          sites ({!import_log} plus {!Slice_storage.Tenure.own}) and
          rebinding the routing table. *)
}

type costs = {
  per_op : float;
      (** CPU per name-space request (~166 µs: the paper's 6000 ops/s
          saturation; log records land around 83 bytes/update, matching
          its ~0.5 MB/s of log traffic at saturation) *)
  per_peer_op : float;
}

type t

val attach :
  Slice_storage.Host.t ->
  ?port:int ->
  ?costs:costs ->
  ?trace:Slice_trace.Trace.t ->
  ?qos:Slice_qos.Wfq.t ->
  config ->
  t
(** Serve NFS on [port] (default 2049) and the peer protocol on
    [config.peer_port]. The volume root (fileID 1) is owned by logical
    site 0, which installs it at attach time. *)

val addr : t -> Slice_net.Packet.addr

(** {2 Introspection} *)

val ops_served : t -> int
val peer_ops_served : t -> int
val cross_site_ops : t -> int
(** Requests that needed at least one peer round trip. *)

val entry_count : t -> int
val attr_cell_count : t -> int
val log_bytes : t -> int
val lookup_local : t -> parent:Slice_nfs.Fh.t -> string -> Slice_nfs.Fh.t option
(** Test hook: consult this server's entry table directly. *)

(** {2 Failure injection} *)

val log_image : t -> string
(** The stable (synced) journal image — what shared storage would hold
    after this server fails. *)

val import_log : ?skip:int -> t -> log:string -> int
(** Replay another server's journal image into this server, journaling
    every imported record locally (snapshot records are downgraded to
    merge-snapshots so the import can never reset this server's own
    cells, now or on a later replay). [skip] resumes a previous import of
    the same append-only journal: the first [skip] records are assumed
    already applied, so a second pass over a fresher image applies
    exactly the delta — how a migration catches up, atomically in sim
    time, after its bulk transfer. Returns the records consumed (the
    next [skip]). Does not sync. *)

val tenure : t -> Slice_storage.Tenure.t
(** The server's site tenure. A drained site keeps answering reads while
    name-space updates bounce with [SLICE_MISDIRECTED]; {!crash} clears
    drains, so an aborted migration's donor serves the site again after
    recovery. An expired lease bounces every NFS and peer request, so a
    zombie deposed by a takeover cannot serve stale state. *)

val is_up : t -> bool
(** Service liveness (false between {!crash} and {!recover}); failure
    detectors use it to pick live standbys. *)

val host : t -> Slice_storage.Host.t
(** The host this server is attached to (failover detectors register
    their lease-renewal endpoint on it). *)

val crash : t -> unit
(** Drop all volatile state; only synced log records survive. *)

val recover : t -> unit
(** Rebuild cells from the log; re-send prepared-but-uncommitted peer
    updates; resume service. *)

val checkpoint : t -> unit
(** Fold the log into a snapshot record (bounds log growth). *)
