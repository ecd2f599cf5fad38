module Engine = Slice_sim.Engine
module Net = Slice_net.Net
module Rpc = Slice_net.Rpc
module Packet = Slice_net.Packet
module Nfs = Slice_nfs.Nfs
module Fh = Slice_nfs.Fh
module Codec = Slice_nfs.Codec
module Routekey = Slice_nfs.Routekey
module Host = Slice_storage.Host
module Obsd = Slice_storage.Obsd
module Coordinator = Slice_storage.Coordinator
module Tenure = Slice_storage.Tenure
module Smallfile = Slice_smallfile.Smallfile
module Bcache = Slice_disk.Bcache
module Dirserver = Slice_dir.Dirserver
module Trace = Slice_trace.Trace
module Metrics = Slice_util.Metrics

(* Multi-tenant QoS: one shared tenant registry, a WFQ scheduler per
   server, token-bucket admission at tenant µproxies, and (optionally)
   power-of-two-choices mirrored reads. [system_tenant] is the tenant
   the infrastructure's own traffic accounts to — dataless small-file
   managers reach the storage array through their own zone backends, so
   their backend I/O arrives with the manager host as source and must
   not be charged to whichever tenant is id 0. *)
type qos_config = {
  tenants : Slice_qos.Tenant.spec array;
  wfq_depth : int;
  p2c_reads : bool;
  system_tenant : int;
}

type config = {
  seed : int;
  storage_nodes : int;
  disks_per_node : int;
  storage_cache : int;
  dir_servers : int;
  smallfile_servers : int;
  smallfile_cache : int;
  proxy_params : Params.t;
  mirror_new_files : bool;
  secure_objects : bool;
  dir_sites : int;
  smallfile_sites : int;
  storage_sites : int;
      (** logical site counts per class — the rebalancing granularity,
          fixed for the volume's lifetime (routing hashes are mod the
          site count). 0 means one site per initial server, the
          pre-reconfiguration identity mapping. Run more sites than
          servers to leave headroom for {!add_server}. *)
  qos : qos_config option;
}

let default_config =
  {
    seed = 42;
    storage_nodes = 4;
    disks_per_node = 8;
    storage_cache = 256 * 1024 * 1024;
    dir_servers = 1;
    smallfile_servers = 2;
    smallfile_cache = 1024 * 1024 * 1024;
    proxy_params = Params.default;
    mirror_new_files = false;
    secure_objects = false;
    dir_sites = 0;
    smallfile_sites = 0;
    storage_sites = 0;
    qos = None;
  }

type klass = Dir | Smallfile | Storage

type qos_rt = { qr_cfg : qos_config; qr_reg : Slice_qos.Tenant.t }

type t = {
  cfg : config;
  eng : Engine.t;
  net_ : Net.t;
  trace_ : Trace.t option;
  vaddr : Packet.addr;
  mutable storage_ : Obsd.t array;
  st_tbl : Table.t option; (* logical storage site -> physical node *)
  mutable coords : Coordinator.t list; (* every instance attached, the role's holder first *)
  mutable coord_ep : Packet.addr option; (* the holder's address, built once *)
  mutable dirs_ : Dirserver.t array;
  mutable smallfiles_ : Smallfile.t array;
  dir_tbl : Table.t;
  sf_tbl : Table.t option;
  mutable next_client : int;
  mutable client_proxies : Proxy.t list; (* newest first *)
  qos_ : qos_rt option;
}

(* Every server gets its own WFQ instance: fair shares are per-server
   (the contended resource is that server's CPU), the registry is
   shared. Dataless managers (directory and small-file servers) hold a
   dispatch slot across their backend round trips to network storage,
   so they run 4x the configured depth — enough concurrency to cover
   the backend bandwidth-delay product without loosening the storage
   nodes' own isolation. *)
let wfq_of ?(dataless = false) qos_ eng =
  match qos_ with
  | Some q ->
      let depth = q.qr_cfg.wfq_depth * if dataless then 4 else 1 in
      Some (Slice_qos.Wfq.create eng ~tenants:q.qr_reg ~depth ())
  | None -> None

let bind_system_host qos_ (host : Host.t) =
  match qos_ with
  | Some q ->
      Slice_qos.Tenant.bind_addr q.qr_reg ~addr:host.Host.addr
        ~tenant:q.qr_cfg.system_tenant
  | None -> ()

let root = Fh.root

(* Shared secret between the file managers and the storage nodes. Any
   value works — the µproxies never see it. *)
let cap_secret = "slice-ensemble-shared-secret"

(* Tracers of every ensemble built so far, for the CLI's --trace-json
   dump (exhibits build their ensembles internally and only hand back a
   report). Creation order is deterministic; drained by the dumper. *)
let trace_registry : Trace.t list ref = ref [] (* newest first *)

let drain_traces () =
  let l = List.rev !trace_registry in
  trace_registry := [];
  l

(* Logical sites [0..sites), dealt round-robin over [servers]: server [i]
   initially hosts every site congruent to it. With sites = servers this
   is the identity mapping — the pre-reconfiguration deployments. *)
let sites_owned_by ~servers ~sites i =
  List.filter (fun j -> j mod servers = i) (List.init sites (fun k -> k))

(* Every call to the coordinator resolves its address at each
   transmission, so the address is kept beside the coordinator and
   resolving allocates nothing. All consumers (µproxies, directory
   servers, zone backends) resolve it here, so a failover's swap to a
   successor is atomic in sim time, and a call in flight goes on to the
   successor. *)
let coord_endpoint t () = t.coord_ep

let replace_coordinator t c =
  t.coords <- c :: t.coords;
  t.coord_ep <- Some (Coordinator.addr c)

(* Every node that may hold data of [fh], for a directory server's remove
   cleanup: the storage nodes of the placement rule, read through the
   live table, then the file's small-file server. *)
let data_sites_of t (fh : Fh.t) =
  (match t.st_tbl with Some tbl -> Table.data_nodes (fst (Table.snapshot tbl)) fh | None -> [])
  @
  match t.sf_tbl with
  | Some tbl when t.cfg.proxy_params.Params.threshold > 0 ->
      [ Table.lookup tbl (Routekey.file_site ~nsites:(Table.nsites tbl) fh) ]
  | _ -> []

(* One host per server, named after its class and index. Net addresses
   are assigned in creation order. *)
let storage_host net cfg i =
  (* 733 MHz Xeon-class, 8-arm arrays *)
  Host.create net ~name:(Printf.sprintf "storage%d" i) ~cpu_scale:1.6 ~disks:cfg.disks_per_node ()

(* PC-class with a dedicated sequential log disk *)
let dir_host net i = Host.create net ~name:(Printf.sprintf "dir%d" i) ~disks:1 ()

let smallfile_host net i = Host.create net ~name:(Printf.sprintf "smallfile%d" i) ()

let attach_storage t ~host ~sites =
  bind_system_host t.qos_ host;
  Obsd.attach host ~cache_bytes:t.cfg.storage_cache
    ?cap_secret:(if t.cfg.secure_objects then Some cap_secret else None)
    ~sites ?trace:t.trace_ ?qos:(wfq_of t.qos_ t.eng) ()

let attach_dir t ~idx ~host ~also_owns =
  let l_dir = Table.nsites t.dir_tbl in
  let config =
    {
      Dirserver.logical_id = idx;
      nsites = l_dir;
      policy = t.cfg.proxy_params.Params.name_policy;
      resolve = (fun logical -> Table.lookup t.dir_tbl (logical mod l_dir));
      data_sites = data_sites_of t;
      coordinator = coord_endpoint t;
      mirror_new_files = t.cfg.mirror_new_files;
      cap_secret = (if t.cfg.secure_objects then Some cap_secret else None);
      also_owns;
    }
  in
  bind_system_host t.qos_ host;
  Dirserver.attach host ?trace:t.trace_ ?qos:(wfq_of ~dataless:true t.qos_ t.eng) config

(* Small-file servers are dataless managers: each zone backend sends
   its chunks to the nodes the live storage table names, and its
   commits to the coordinator, itself. *)
let attach_smallfile t ~idx ~host ~sites =
  let nsites = match t.sf_tbl with Some tbl -> Table.nsites tbl | None -> 1 in
  let st =
    match t.st_tbl with Some st -> st | None -> invalid_arg "Ensemble: no storage for small-file zones"
  in
  bind_system_host t.qos_ host;
  let rpc = Rpc.create t.net_ host.Host.addr ~port:1900 in
  let backend =
    Slice_smallfile.Zone.backend t.eng rpc ~nsites:(Table.nsites st) ~resolve:(Table.lookup st)
      ~coordinator:(coord_endpoint t)
      ?cap_secret:(if t.cfg.secure_objects then Some cap_secret else None)
      ~sf_idx:idx ~stripe_unit:t.cfg.proxy_params.Params.stripe_unit ()
  in
  Smallfile.attach host ~cache_bytes:t.cfg.smallfile_cache
    ~threshold:t.cfg.proxy_params.Params.threshold ~nsites ~sites ~backend ?trace:t.trace_
    ?qos:(wfq_of ~dataless:true t.qos_ t.eng) ()

let create cfg =
  if cfg.smallfile_servers > 0 && cfg.storage_nodes = 0 then
    invalid_arg "Ensemble.create: small-file servers are dataless and need storage nodes";
  let eng = Engine.create () in
  let net_ = Net.create eng ~seed:cfg.seed () in
  let trace_ =
    if cfg.proxy_params.Params.trace_enabled || !Params.trace_force then
      Some (Trace.create eng ~sample:cfg.proxy_params.Params.trace_sample ())
    else None
  in
  (match trace_ with Some tr -> trace_registry := tr :: !trace_registry | None -> ());
  let qos_ =
    match cfg.qos with
    | Some qc ->
        if qc.system_tenant < 0 || qc.system_tenant >= Array.length qc.tenants then
          invalid_arg "Ensemble.create: system_tenant out of range";
        Some { qr_cfg = qc; qr_reg = Slice_qos.Tenant.create qc.tenants }
    | None -> None
  in
  let vaddr = Net.add_node net_ ~name:"virtual-nfs" in
  let l_st = if cfg.storage_sites > 0 then cfg.storage_sites else cfg.storage_nodes in
  let l_dir = if cfg.dir_sites > 0 then cfg.dir_sites else cfg.dir_servers in
  let l_sf = if cfg.smallfile_sites > 0 then cfg.smallfile_sites else cfg.smallfile_servers in
  (* hosts in class order: storage, directory, small-file *)
  let storage_hosts = Array.init cfg.storage_nodes (storage_host net_ cfg) in
  let dir_hosts = Array.init cfg.dir_servers (dir_host net_) in
  let sf_hosts = Array.init cfg.smallfile_servers (smallfile_host net_) in
  (* logical site [j] starts on server [j mod servers] *)
  let table (hosts : Host.t array) sites =
    let n = Array.length hosts in
    if n = 0 then None
    else Some (Table.create (Array.init sites (fun j -> hosts.(j mod n).Host.addr)))
  in
  let t =
    {
      cfg;
      eng;
      net_;
      trace_;
      vaddr;
      storage_ = [||];
      st_tbl = table storage_hosts l_st;
      coords = [];
      coord_ep = None;
      dirs_ = [||];
      smallfiles_ = [||];
      dir_tbl =
        (match table dir_hosts l_dir with
        | Some tbl -> tbl
        | None -> invalid_arg "Ensemble.create: no directory server");
      sf_tbl = table sf_hosts l_sf;
      next_client = 0;
      client_proxies = [];
      qos_;
    }
  in
  t.storage_ <-
    Array.mapi
      (fun i host ->
        attach_storage t ~host ~sites:(sites_owned_by ~servers:cfg.storage_nodes ~sites:l_st i))
      storage_hosts;
  if cfg.storage_nodes > 0 then
    (* the coordinator's block maps place chunks on logical sites; the
       µproxies bind them to nodes through the storage table *)
    replace_coordinator t
      (Coordinator.attach storage_hosts.(0) ~map_sites:(Array.init l_st (fun j -> j)) ?trace:trace_ ());
  t.dirs_ <-
    Array.init cfg.dir_servers (fun i ->
        attach_dir t ~idx:i ~host:dir_hosts.(i)
          ~also_owns:
            (List.filter (fun j -> j <> i)
               (sites_owned_by ~servers:cfg.dir_servers ~sites:l_dir i)));
  (* small-file servers attach last: their dataless backends need the
     storage table and the coordinator *)
  t.smallfiles_ <-
    Array.init cfg.smallfile_servers (fun i ->
        attach_smallfile t ~idx:i ~host:sf_hosts.(i)
          ~sites:(sites_owned_by ~servers:cfg.smallfile_servers ~sites:l_sf i));
  t

let engine t = t.eng
let net t = t.net_
let virtual_addr t = t.vaddr

(* Replica load probe for power-of-two-choices: logical storage site ->
   instantaneous backlog of the node currently serving it (resolved
   through the live table, so migrations keep the gauge honest). *)
let site_backlog t site =
  match t.st_tbl with
  | None -> 0.0
  | Some tbl ->
      let addr = Table.lookup tbl site in
      let n = Array.length t.storage_ in
      let rec find i =
        if i >= n then 0.0
        else if Obsd.addr t.storage_.(i) = addr then Obsd.queue_depth t.storage_.(i)
        else find (i + 1)
      in
      find 0

let add_client ?tenant t ~name:client_name =
  t.next_client <- t.next_client + 1;
  let host = Host.create t.net_ ~name:client_name () in
  let qos =
    match (t.qos_, tenant) with
    | None, _ -> None
    | Some q, None ->
        (* unlabelled client under a QoS config: accounts to the system
           tenant, no admission gate, no probing *)
        Slice_qos.Tenant.bind_addr q.qr_reg ~addr:host.Host.addr
          ~tenant:q.qr_cfg.system_tenant;
        Some
          {
            Proxy.q_tenant = q.qr_cfg.system_tenant;
            q_tenants = q.qr_reg;
            q_admit = None;
            q_read_probe = None;
          }
    | Some q, Some id ->
        if id < 0 || id >= Slice_qos.Tenant.count q.qr_reg then
          invalid_arg "Ensemble.add_client: tenant out of range";
        Slice_qos.Tenant.bind_addr q.qr_reg ~addr:host.Host.addr ~tenant:id;
        let spec = Slice_qos.Tenant.spec_of q.qr_reg id in
        let admit =
          if spec.Slice_qos.Tenant.admit_rate > 0.0 then
            Some
              (Slice_qos.Bucket.create ~rate:spec.Slice_qos.Tenant.admit_rate
                 ~burst:spec.Slice_qos.Tenant.admit_burst)
          else None
        in
        let probe = if q.qr_cfg.p2c_reads then Some (site_backlog t) else None in
        Some
          { Proxy.q_tenant = id; q_tenants = q.qr_reg; q_admit = admit; q_read_probe = probe }
  in
  let proxy =
    Proxy.install host ~params:t.cfg.proxy_params ~seed:(t.cfg.seed + t.next_client)
      ?trace:t.trace_ ?qos
      {
        Proxy.virtual_addr = t.vaddr;
        dir_table = t.dir_tbl;
        smallfile_table = t.sf_tbl;
        storage = t.st_tbl;
        coordinator = coord_endpoint t;
      }
  in
  t.client_proxies <- proxy :: t.client_proxies;
  (host, proxy)

(* ---- the server classes ----
   Every per-class question and lifecycle step answers here; the
   reconfiguration control plane, failover and the exhibits name a
   server as a class and an index. *)

let klass_name = function Dir -> "dir" | Smallfile -> "smallfile" | Storage -> "storage"

let klass_of_name = function
  | "dir" -> Some Dir
  | "smallfile" -> Some Smallfile
  | "storage" -> Some Storage
  | _ -> None

let servers t = function
  | Dir -> Array.length t.dirs_
  | Smallfile -> Array.length t.smallfiles_
  | Storage -> Array.length t.storage_

let server_host t k i =
  match k with
  | Dir -> Dirserver.host t.dirs_.(i)
  | Smallfile -> Smallfile.host t.smallfiles_.(i)
  | Storage -> Obsd.host t.storage_.(i)

let server_addr t k i = (server_host t k i).Host.addr

let tenure t k i =
  match k with
  | Dir -> Dirserver.tenure t.dirs_.(i)
  | Smallfile -> Smallfile.tenure t.smallfiles_.(i)
  | Storage -> Obsd.tenure t.storage_.(i)

let is_up t k i = Tenure.is_up (tenure t k i)

let table t = function Dir -> Some t.dir_tbl | Smallfile -> t.sf_tbl | Storage -> t.st_tbl

let on_coordinators t k i f =
  List.iter (fun c -> if Coordinator.addr c = server_addr t k i then f c) t.coords

(* Fail-stop a server at both layers: the service stops answering and the
   net drops everything addressed to (or sent by) the host, so in-flight
   packets die exactly as on a powered-off machine. The host takes down
   the coordinators it runs, a deposed one included. *)
let crash t k i =
  (match k with
  | Dir -> Dirserver.crash t.dirs_.(i)
  | Smallfile -> Smallfile.crash t.smallfiles_.(i)
  | Storage -> Obsd.crash t.storage_.(i));
  on_coordinators t k i Coordinator.crash;
  Net.set_node_up t.net_ (server_addr t k i) false

(* The node comes up before the service: a directory server's journal
   replay re-drives cross-site updates over the net. *)
let recover t k i =
  Net.set_node_up t.net_ (server_addr t k i) true;
  (match k with
  | Dir -> Dirserver.recover t.dirs_.(i)
  | Smallfile | Storage -> Tenure.recover (tenure t k i));
  on_coordinators t k i Coordinator.recover

(* ---- elastic scaling ----
   New servers join owning no logical sites; the reconfiguration control
   plane ([Slice_reconfig]) migrates sites onto them and republishes the
   routing tables. Indices returned are stable (arrays only grow). *)
let add_server t k =
  let i = servers t k in
  (match k with
  | Storage ->
      let s = attach_storage t ~host:(storage_host t.net_ t.cfg i) ~sites:[] in
      t.storage_ <- Array.append t.storage_ [| s |]
  | Dir ->
      let d = attach_dir t ~idx:i ~host:(dir_host t.net_ i) ~also_owns:[] in
      (* attach claims the server's namesake site; a late joiner starts
         empty-handed instead — sites arrive by migration *)
      Tenure.disown (Dirserver.tenure d) i;
      t.dirs_ <- Array.append t.dirs_ [| d |]
  | Smallfile ->
      let s = attach_smallfile t ~idx:i ~host:(smallfile_host t.net_ i) ~sites:[] in
      t.smallfiles_ <- Array.append t.smallfiles_ [| s |]);
  i

let storage t = t.storage_
let coordinator t = match t.coords with c :: _ -> Some c | [] -> None

let dirs t = t.dirs_
let smallfiles t = t.smallfiles_
let dir_table t = t.dir_tbl
let smallfile_table t = t.sf_tbl
let storage_table t = t.st_tbl
let config t = t.cfg
let client_proxies t = List.rev t.client_proxies

let meta_cache_totals t =
  List.fold_left
    (fun (acc : Proxy.meta_cache_stats) px ->
      let s = Proxy.meta_cache_stats px in
      {
        Proxy.hits = acc.Proxy.hits + s.Proxy.hits;
        negative_hits = acc.Proxy.negative_hits + s.Proxy.negative_hits;
        misses = acc.Proxy.misses + s.Proxy.misses;
        stale = acc.Proxy.stale + s.Proxy.stale;
        invalidations = acc.Proxy.invalidations + s.Proxy.invalidations;
      })
    { Proxy.hits = 0; negative_hits = 0; misses = 0; stale = 0; invalidations = 0 }
    t.client_proxies

let dir_ops_served t = Array.fold_left (fun acc d -> acc + Dirserver.ops_served d) 0 t.dirs_
let run ?until t = Engine.run ?until t.eng

let qos_tenants t = match t.qos_ with Some q -> Some q.qr_reg | None -> None

let trace t = t.trace_

(* One registry over every counter the ensemble's parts already keep:
   gauges read the live values, so a single deterministic dump replaces
   per-exhibit hand-rolled reporting. *)
let metrics t =
  let m = Metrics.create () in
  let g name f = Metrics.gauge m name (fun () -> float_of_int (f ())) in
  let sum_proxies f () = List.fold_left (fun acc px -> acc + f px) 0 t.client_proxies in
  g "net.packets_sent" (fun () -> Net.packets_sent t.net_);
  g "net.bytes_sent" (fun () -> Net.bytes_sent t.net_);
  g "net.packets_dropped" (fun () -> Net.packets_dropped t.net_);
  g "net.fault_drops" (fun () -> Net.fault_drops t.net_);
  g "proxy.intercepted" (sum_proxies Proxy.packets_intercepted);
  g "proxy.replies" (sum_proxies Proxy.replies_processed);
  g "proxy.routed_storage" (sum_proxies Proxy.routed_to_storage);
  g "proxy.routed_smallfile" (sum_proxies Proxy.routed_to_smallfile);
  g "proxy.routed_dir" (sum_proxies Proxy.routed_to_dir);
  g "proxy.mkdir_redirects" (sum_proxies Proxy.mkdir_redirects);
  g "proxy.mirror_duplicates" (sum_proxies Proxy.mirror_duplicates);
  g "proxy.attr_patches" (sum_proxies Proxy.attr_patches);
  g "proxy.attr_writebacks" (sum_proxies Proxy.attr_writebacks);
  g "proxy.commits" (sum_proxies Proxy.commits_orchestrated);
  g "proxy.intents" (sum_proxies Proxy.intents_opened);
  g "proxy.stale_bounces" (sum_proxies Proxy.stale_bounces);
  g "proxy.map_fetches" (sum_proxies Proxy.map_fetches);
  g "proxy.expired_pending" (sum_proxies Proxy.expired_pending);
  g "proxy.meta_hits" (fun () -> (meta_cache_totals t).Proxy.hits);
  g "proxy.meta_negative_hits" (fun () -> (meta_cache_totals t).Proxy.negative_hits);
  g "proxy.meta_misses" (fun () -> (meta_cache_totals t).Proxy.misses);
  g "proxy.meta_stale" (fun () -> (meta_cache_totals t).Proxy.stale);
  g "proxy.meta_invalidations" (fun () -> (meta_cache_totals t).Proxy.invalidations);
  g "proxy.fence_invalidations" (sum_proxies Proxy.fence_invalidations);
  g "proxy.admission_deferrals" (sum_proxies Proxy.admission_deferrals);
  g "proxy.p2c_probes" (sum_proxies Proxy.p2c_probes);
  g "proxy.p2c_diverted" (sum_proxies Proxy.p2c_diverted);
  (match t.qos_ with Some q -> Slice_qos.Tenant.register_metrics q.qr_reg m | None -> ());
  g "storage.reads" (fun () -> Array.fold_left (fun a s -> a + Obsd.reads s) 0 t.storage_);
  g "storage.writes" (fun () -> Array.fold_left (fun a s -> a + Obsd.writes s) 0 t.storage_);
  g "storage.bytes_read" (fun () -> Array.fold_left (fun a s -> a + Obsd.bytes_read s) 0 t.storage_);
  g "storage.bytes_written"
    (fun () -> Array.fold_left (fun a s -> a + Obsd.bytes_written s) 0 t.storage_);
  g "storage.cache_hits" (fun () -> Array.fold_left (fun a s -> a + Obsd.cache_hits s) 0 t.storage_);
  g "storage.cache_misses"
    (fun () -> Array.fold_left (fun a s -> a + Obsd.cache_misses s) 0 t.storage_);
  if t.coords <> [] then begin
    (* resolve the holder at dump time: a takeover swaps the instance and
       the gauges must follow the successor *)
    let gc name f = g name (fun () -> match coordinator t with Some c -> f c | None -> 0) in
    gc "coordinator.intents_logged" Coordinator.intents_logged;
    gc "coordinator.completions" Coordinator.completions;
    gc "coordinator.redos" Coordinator.redos;
    gc "coordinator.pending_intents" Coordinator.pending_intents;
    gc "coordinator.fence_bounces" (fun c -> Tenure.fence_bounces (Coordinator.tenure c))
  end;
  g "dir.ops" (fun () -> dir_ops_served t);
  g "dir.peer_ops" (fun () -> Array.fold_left (fun a d -> a + Dirserver.peer_ops_served d) 0 t.dirs_);
  g "dir.cross_site_ops"
    (fun () -> Array.fold_left (fun a d -> a + Dirserver.cross_site_ops d) 0 t.dirs_);
  g "dir.log_bytes" (fun () -> Array.fold_left (fun a d -> a + Dirserver.log_bytes d) 0 t.dirs_);
  g "dir.fence_bounces"
    (fun () ->
      Array.fold_left (fun a d -> a + Tenure.fence_bounces (Dirserver.tenure d)) 0 t.dirs_);
  g "smallfile.fence_bounces"
    (fun () ->
      Array.fold_left (fun a s -> a + Tenure.fence_bounces (Smallfile.tenure s)) 0 t.smallfiles_);
  g "smallfile.reads"
    (fun () -> Array.fold_left (fun a s -> a + Smallfile.reads s) 0 t.smallfiles_);
  g "smallfile.writes"
    (fun () -> Array.fold_left (fun a s -> a + Smallfile.writes s) 0 t.smallfiles_);
  g "smallfile.cache_hits"
    (fun () -> Array.fold_left (fun a s -> a + Smallfile.cache_hits s) 0 t.smallfiles_);
  g "smallfile.cache_misses"
    (fun () -> Array.fold_left (fun a s -> a + Smallfile.cache_misses s) 0 t.smallfiles_);
  (match t.trace_ with
  | Some tr ->
      g "trace.spans" (fun () -> Trace.count tr);
      g "trace.dropped" (fun () -> Trace.dropped tr)
  | None -> ());
  m
