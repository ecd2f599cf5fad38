(** Ensemble assembly: builds a complete Slice deployment on a simulated
    switched LAN — storage nodes, block-service coordinator, directory
    servers, small-file servers, routing tables, a virtual NFS server
    address — and installs a µproxy on each client host added to it.

    Faithful structural details:
    - storage nodes are 733 MHz-class machines with 8-arm disk arrays;
    - the coordinator runs as an extension of storage node 0's module;
    - directory and small-file servers are PC-class {e dataless} managers:
      small-file zones are striped over the network storage array by
      the manager's own zone backend ({!Slice_smallfile.Zone}), and
      directory journals go to a dedicated local log disk
      (sequential-only traffic; see DESIGN.md for the substitution note);
    - clients are PC-class hosts whose µproxy interposes on the path to
      the virtual server address; they are the only hosts with one. *)

type qos_config = {
  tenants : Slice_qos.Tenant.spec array;
      (** tenant roster shared by every layer; ids are array indices *)
  wfq_depth : int;
      (** concurrent jobs per server's WFQ scheduler. Dataless managers
          (directory and small-file servers) hold a dispatch slot across
          backend round trips, so they run at 4x this depth; storage
          nodes use it as-is. Size it to the storage node's disk-arm
          count: deeper dispatch just moves queueing below the
          scheduler, where weights cannot protect anyone. *)
  p2c_reads : bool;
      (** route mirrored reads by power-of-two-choices over replica
          backlogs instead of chunk-parity alternation *)
  system_tenant : int;
      (** tenant charged for infrastructure traffic (dataless managers'
          own calls, small-file zone I/O included, and unlabelled
          clients); index into [tenants] *)
}
(** Per-tenant QoS: a shared tenant registry, a WFQ scheduler replacing
    FIFO dispatch at every server, token-bucket admission at tenant
    µproxies (for specs with a positive [admit_rate]) and optional
    power-of-d mirrored reads. *)

type config = {
  seed : int;
  storage_nodes : int;
  disks_per_node : int;
  storage_cache : int;  (** bytes of buffer cache per storage node *)
  dir_servers : int;
  smallfile_servers : int;
  smallfile_cache : int;  (** bytes of cache per small-file server *)
  proxy_params : Params.t;  (** routing policies shared by all µproxies *)
  mirror_new_files : bool;
  secure_objects : bool;
      (** seal NASD-style capability tags into minted handles and make the
          storage nodes verify them (the µproxy stays outside the trust
          boundary; see {!Slice_nfs.Cap}) *)
  dir_sites : int;
  smallfile_sites : int;
  storage_sites : int;
      (** logical site counts per class — the rebalancing granularity,
          fixed for the volume's lifetime. 0 (the default) means one site
          per initial server; run more sites than servers to leave
          headroom for elastic scaling ({!add_server} plus
          [Slice_reconfig]). *)
  qos : qos_config option;  (** per-tenant QoS; [None] = FIFO everywhere *)
}

val default_config : config
(** 4 storage nodes × 8 disks, 1 directory server, 2 small-file servers,
    default µproxy parameters. *)

type t

val create : config -> t
(** @raise Invalid_argument when [smallfile_servers > 0] and
    [storage_nodes = 0]: small-file servers are dataless, their zones
    live on the storage array. *)

val engine : t -> Slice_sim.Engine.t
val net : t -> Slice_net.Net.t
(** The switched LAN, seeded with [config.seed]. It starts fault-free;
    {!Fault.install} puts loss, link faults and partitions on it. *)

val virtual_addr : t -> Slice_net.Packet.addr
val root : Slice_nfs.Fh.t
(** The volume root handle clients start from. *)

val add_client : ?tenant:int -> t -> name:string -> Slice_storage.Host.t * Proxy.t
(** A fresh client host with its µproxy interposed. Under a QoS config,
    [tenant] labels every request from this host (binding its address in
    the registry and arming the tenant's admission bucket and, when
    configured, the p2c read probe); omitted, the client accounts to the
    system tenant, ungated.
    @raise Invalid_argument when [tenant] is out of range. *)

val qos_tenants : t -> Slice_qos.Tenant.t option
(** The shared tenant registry, when a QoS config is active — the
    per-tenant ops/bytes/latency/queue-delay readout. *)

val storage : t -> Slice_storage.Obsd.t array

val coordinator : t -> Slice_storage.Coordinator.t option

val replace_coordinator : t -> Slice_storage.Coordinator.t -> unit
(** Failover: hand the coordinator role to a successor instance (attached
    on a surviving storage host). Every consumer — µproxies, directory
    servers, the metrics gauges — resolves its address at each
    transmission, so the swap is atomic in sim time. The deposed
    instance stays on its host, wedged by its fencing lease. *)

val dirs : t -> Slice_dir.Dirserver.t array
val smallfiles : t -> Slice_smallfile.Smallfile.t array
val dir_table : t -> Table.t
val smallfile_table : t -> Table.t option

val storage_table : t -> Table.t option
(** Logical storage site -> physical node binding shared with every
    µproxy; [None] when the ensemble has no storage class. *)

val config : t -> config

(** {2 Server classes}

    The three server classes, each with its own routing table and
    logical-site space. A server is named by its class and its index,
    which is stable: the arrays only grow. *)

type klass = Dir | Smallfile | Storage

val klass_name : klass -> string
(** ["dir"], ["smallfile"] or ["storage"] — used in metric names, trace
    spans, the reconfiguration intent log and failover target names. *)

val klass_of_name : string -> klass option

val servers : t -> klass -> int
(** Servers of the class, including crashed and drained ones. *)

val server_host : t -> klass -> int -> Slice_storage.Host.t
val server_addr : t -> klass -> int -> Slice_net.Packet.addr

val tenure : t -> klass -> int -> Slice_storage.Tenure.t
(** The server's site ownership, drains, load, fencing lease and life. *)

val is_up : t -> klass -> int -> bool
(** The server's tenure is up (a crashed server answers nothing). *)

val table : t -> klass -> Table.t option
(** The class's logical site -> server table; [None] when the ensemble
    runs no server of the class ([Dir] is always [Some]). *)

val crash : t -> klass -> int -> unit
(** Fail-stop server [i] of the class: the service stops (volatile state
    goes; a directory server keeps its synced journal, a storage node
    and a small-file server a cold cache) and the net downs its host, so
    in-flight packets die. Takes no simulated time. {!Fault} puts
    crashes and recoveries on a time schedule. Every coordinator the
    host runs, a deposed one included, crashes too: crashing storage
    node 0 stalls commits and map fetches until a successor takes
    over. *)

val recover : t -> klass -> int -> unit
(** Bring the host up, then the service: a directory server replays its
    journal (see {!Slice_dir.Dirserver.recover}), and so do a storage
    node's coordinators. *)

val add_server : t -> klass -> int
(** Elastic scaling: attach one more server of the class and return its
    index. It joins owning no logical sites: the reconfiguration control
    plane ({!Slice_reconfig}) migrates sites onto it and republishes the
    routing table. @raise Invalid_argument for a small-file server
    without storage nodes. *)

val client_proxies : t -> Proxy.t list
(** The µproxies {!add_client} installed, in creation order: every
    µproxy of the ensemble. *)

val meta_cache_totals : t -> Proxy.meta_cache_stats
(** Metadata fast-path counters summed over all client µproxies. *)

val dir_ops_served : t -> int
(** Name-space requests served, summed over the directory servers — the
    denominator of the metadata-offload exhibit. *)

val trace : t -> Slice_trace.Trace.t option
(** The ensemble-wide tracer, present when
    [proxy_params.trace_enabled] (or {!Params.trace_force}); shared by
    every µproxy and server. *)

val drain_traces : unit -> Slice_trace.Trace.t list
(** All tracers built since the last drain, in ensemble-creation order —
    the CLI's [--trace-json] dump collects the traces of exhibits that
    build their ensembles internally. *)

val metrics : t -> Slice_util.Metrics.t
(** A unified registry of gauges over every counter the ensemble's parts
    keep (net, µproxies, storage, coordinator, directory and small-file
    servers, tracer). [Slice_util.Metrics.dump] of the result is
    deterministic across same-seed runs. *)

val run : ?until:float -> t -> unit
(** Convenience: run the underlying engine. *)
