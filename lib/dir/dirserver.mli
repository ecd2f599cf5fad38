(** Directory server (Sections 3.2 and 4.3).

    Stores directory information as cells — name entries and attribute
    cells — indexed by hash chains keyed on (parent handle, name). Cells
    for one directory may be distributed across servers: entries reference
    remote attribute cells through the site key minted into each file
    handle, and servers cooperate through the {!Peer} protocol for
    cross-site link counts, entry counts, and attribute access: a peer
    call goes to the site's holder of the moment and passes the site
    gate NFS requests pass, and a refused one goes again. The same code
    base serves both name-space distribution policies (the µproxy
    decides where requests land):

    - {e mkdir switching}: a directory's entries live with its attribute
      cell; a redirected mkdir creates the child at this site and installs
      the parent's name entry remotely (the "orphaned directory" case,
      done as a logged two-phase update);
    - {e name hashing}: each entry lives at MD5(parent fh, name) mod N;
      conflicting operations on one entry serialize at its site.

    Every update is journaled to a write-ahead log before the reply
    ("dataless" manager), forced only before a peer prepare, a call to
    the coordinator or a reply leaves the server. An entry is counted at
    its parent's cell wherever that lives, a peer's [Add_entry]
    included. State and journal are kept per logical site, under one
    group commit for all of a server's sites. A restart ({!recover}), a
    move and a takeover ({!adopt_site}) open a site's journal the same
    way: replay it, then re-drive its incomplete cross-site updates
    (idempotent thanks to peer-side dedup of operation ids). *)

type config = {
  logical_id : int;  (** this server's logical site id, 0-based *)
  nsites : int;  (** logical directory sites in the volume *)
  policy : Slice_nfs.Routekey.name_policy;
  resolve : int -> Slice_net.Packet.addr;  (** logical site -> physical, read per transmission *)
  data_sites : Slice_nfs.Fh.t -> Slice_net.Packet.addr list;
      (** every node that may hold data of a file: its storage nodes,
          then its small-file server; a remove cleans each of them *)
  coordinator : unit -> Slice_net.Packet.addr option;
      (** the block-service coordinator's address (it serves
          {!Slice_storage.Ctrl.port}) for multi-site remove/truncate,
          resolved at each transmission *)
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
          sites ({!adopt_site} plus {!Slice_storage.Tenure.own}) and
          rebinding the routing table. *)
}

type t

val attach :
  Slice_storage.Host.t ->
  ?trace:Slice_trace.Trace.t ->
  ?qos:Slice_qos.Wfq.t ->
  config ->
  t
(** Serve NFS on port 2049 and the peer protocol on {!Peer.port}. Each
    request costs ~166 µs of CPU (the paper's 6000 ops/s saturation) and
    each peer message 60 µs. The volume root (fileID 1) is owned by
    logical site 0, which installs it at attach time. *)

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

(** {2 Sites and failure injection} *)

val adopt_site : t -> from:t -> int -> int
(** [adopt_site t ~from site] moves [site]'s stable journal from [from]
    to [t] by reference ({!Slice_wal.Wal.hand_over}) and opens it as
    {!recover} does an owned site's, appending nothing and taking no
    simulated time. Returns the journal bytes replayed. Ownership is the
    caller's ({!Slice_storage.Tenure.own}). *)

val site_bytes : t -> int -> int
(** The length of the site's stable journal here. *)

val settle_site : t -> int -> unit
(** Fiber: force the journal until no record of the site is pending or
    in a round in flight, so its stable image holds everything the site
    logged, or until a crash drops them. *)

val drop_site : t -> int -> unit
(** Forget a site's cells, entries, dedup rows and prepares here. *)

val tenure : t -> Slice_storage.Tenure.t
(** The server's site tenure and life. A drained site keeps answering
    reads while name-space updates, a peer's too, bounce with
    [SLICE_MISDIRECTED]; {!crash} clears drains, so an aborted
    migration's donor serves the site again after recovery. An expired
    lease bounces every NFS and peer request, so a zombie deposed by a
    takeover cannot serve stale state. The tenure is down between
    {!crash} and {!recover}. *)

val host : t -> Slice_storage.Host.t
(** The host this server is attached to (failover detectors register
    their lease-renewal endpoint on it). *)

val crash : t -> unit
(** Fail-stop ({!Slice_storage.Tenure.crash}): drop all volatile state
    and {!Slice_wal.Wal.crash} the log, so only synced records survive.
    Takes no simulated time. A request the crash overtakes, in its CPU
    wait or its journal round, ends without a reply. *)

val recover : t -> unit
(** Open the journal of every owned site: rebuild its state and re-send
    its prepared-but-uncommitted peer updates (one a peer does not
    answer stays prepared for the next recovery); resume service. *)

val checkpoint : t -> unit
(** Fiber: fold each owned site's journal into a snapshot record (bounds
    log growth). The old records are dropped only once the snapshots are
    stable; a crash before then raises {!Slice_wal.Wal.Crashed} and
    leaves the old journals whole. *)
