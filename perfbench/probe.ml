(* Read-outs of the simulated system through its public accessors, the
   benchmark's own packet filters, and the tracer's spans. Nothing here
   schedules events or changes what the simulation does. *)

module Resource = Slice_sim.Resource
module Ensemble = Slice.Ensemble
module Proxy = Slice.Proxy
module Net = Slice_net.Net
module Packet = Slice_net.Packet
module Codec = Slice_nfs.Codec
module Host = Slice_storage.Host
module Obsd = Slice_storage.Obsd
module Coordinator = Slice_storage.Coordinator
module Dirserver = Slice_dir.Dirserver
module Smallfile = Slice_smallfile.Smallfile
module Disk = Slice_disk.Disk
module Client = Slice_workload.Client
module Trace = Slice_trace.Trace

(* ---- host roles ---- *)

type role = Client_host | Dir | Storage | Smallfile_host | Other

let role_names = [| "client"; "dir"; "storage"; "smallfile"; "other" |]
let role_index = function Client_host -> 0 | Dir -> 1 | Storage -> 2 | Smallfile_host -> 3 | Other -> 4

let roles (w : Gen.world) =
  let ens = w.Gen.ens in
  let net = Ensemble.net ens in
  let r = Array.make (Net.node_count net) Other in
  let set role (h : Host.t) = r.(h.Host.addr) <- role in
  List.iter (set Client_host) w.Gen.client_hosts;
  Array.iter (fun d -> set Dir (Dirserver.host d)) (Ensemble.dirs ens);
  Array.iter (fun s -> set Storage (Obsd.host s)) (Ensemble.storage ens);
  Array.iter (fun s -> set Smallfile_host (Smallfile.host s)) (Ensemble.smallfiles ens);
  r

(* ---- the benchmark's packet filters ---- *)

(* Filters on every server host count, while [on], the packets and bytes
   each role receives (ingress) and sends (egress), and keep bounded
   copies of the NFS calls servers receive and the replies they send,
   for the replay measurements. They never rewrite or absorb a packet.
   Client hosts get none: their µproxy's filters run first and absorb
   the traffic, which the µproxy counters already cover. *)
type capture = {
  mutable on : bool;
  rx_pkts : int array;  (** by role index *)
  rx_bytes : int array;
  tx_pkts : int array;
  tx_bytes : int array;
  calls : int array;  (** NFS calls received, by role index *)
  max_keep : int;
  mutable kept_calls : (Packet.addr * bytes) list;  (** source, payload; newest first *)
  mutable n_calls : int;
  mutable kept_replies : (Packet.addr * bytes) list;  (** destination, payload *)
  mutable n_replies : int;
}

let nfs_port = 2049

let install_filters (w : Gen.world) ~max_keep =
  let net = Ensemble.net w.Gen.ens in
  let role = roles w in
  let nr = Array.length role_names in
  let c =
    {
      on = false;
      rx_pkts = Array.make nr 0;
      rx_bytes = Array.make nr 0;
      tx_pkts = Array.make nr 0;
      tx_bytes = Array.make nr 0;
      calls = Array.make nr 0;
      max_keep;
      kept_calls = [];
      n_calls = 0;
      kept_replies = [];
      n_replies = 0;
    }
  in
  Array.iteri
    (fun addr r ->
      let ri = role_index r in
      match r with
      | Client_host | Other -> ()
      | Dir | Storage | Smallfile_host ->
          Net.add_ingress_filter net addr (fun (p : Packet.t) ->
              if c.on then begin
                c.rx_pkts.(ri) <- c.rx_pkts.(ri) + 1;
                c.rx_bytes.(ri) <- c.rx_bytes.(ri) + Packet.wire_size p;
                if p.Packet.dport = nfs_port && Codec.is_call p.Packet.payload then begin
                  c.calls.(ri) <- c.calls.(ri) + 1;
                  if c.n_calls < c.max_keep then begin
                    c.kept_calls <- (p.Packet.src, Bytes.copy p.Packet.payload) :: c.kept_calls;
                    c.n_calls <- c.n_calls + 1
                  end
                end
              end;
              Some p);
          Net.add_egress_filter net addr (fun (p : Packet.t) ->
              if c.on then begin
                c.tx_pkts.(ri) <- c.tx_pkts.(ri) + 1;
                c.tx_bytes.(ri) <- c.tx_bytes.(ri) + Packet.wire_size p;
                if
                  p.Packet.sport = nfs_port
                  && (not (Codec.is_call p.Packet.payload))
                  && c.n_replies < c.max_keep
                then begin
                  c.kept_replies <- (p.Packet.dst, Bytes.copy p.Packet.payload) :: c.kept_replies;
                  c.n_replies <- c.n_replies + 1
                end
              end;
              Some p))
    role;
  (c, role)

(* ---- simulated counters ---- *)

(* A snapshot is a flat array of named sums plus, per utilisation group,
   each instance's busy seconds; metrics are differences of two
   snapshots taken at the measured span's edges. *)
type snap = { sums : float array; busy : float array array; dir_hist : int array }

type probe = {
  sum_names : string array;
  sum_fns : (unit -> float) array;
  busy_names : string array;
  busy_fns : (unit -> float) array array;
  busy_cap : float array array;  (** parallel servers behind each instance *)
  hist_fn : unit -> int array;
}

let probe (w : Gen.world) =
  let ens = w.Gen.ens in
  let net = Ensemble.net ens in
  let proxies = Ensemble.client_proxies ens in
  let f = float_of_int in
  let over_proxies g () = f (List.fold_left (fun a p -> a + g p) 0 proxies) in
  let meta g () = f (g (Ensemble.meta_cache_totals ens)) in
  let over arr g () = Array.fold_left (fun a x -> a +. g x) 0.0 arr in
  let storage = Ensemble.storage ens and dirs = Ensemble.dirs ens and sfs = Ensemble.smallfiles ens in
  let cpu (h : Host.t) = h.Host.cpu in
  let sums =
    [
      ("net.packets", fun () -> f (Net.packets_sent net));
      ("net.bytes", fun () -> f (Net.bytes_sent net));
      ("net.drops", fun () -> f (Net.packets_dropped net));
      ("proxy.pkts", over_proxies (fun p -> Proxy.packets_intercepted p + Proxy.replies_processed p));
      ("proxy.meta_hits", meta (fun m -> m.Proxy.hits + m.Proxy.negative_hits));
      ("proxy.meta_lookups", meta (fun m -> m.Proxy.hits + m.Proxy.negative_hits + m.Proxy.misses + m.Proxy.stale));
      ("proxy.meta_invalidations", meta (fun m -> m.Proxy.invalidations));
      ("proxy.dir_forwards", over_proxies Proxy.routed_to_dir);
      ("proxy.attr_patches", over_proxies Proxy.attr_patches);
      ("proxy.commits", over_proxies Proxy.commits_orchestrated);
      ("proxy.map_fetches", over_proxies Proxy.map_fetches);
      ("proxy.mirror_dups", over_proxies Proxy.mirror_duplicates);
      ("proxy.stale_bounces", over_proxies Proxy.stale_bounces);
      ("proxy.expired_pending", over_proxies Proxy.expired_pending);
      ("qos.deferrals", over_proxies Proxy.admission_deferrals);
      ("qos.p2c_probes", over_proxies Proxy.p2c_probes);
      ("qos.p2c_diverted", over_proxies Proxy.p2c_diverted);
      ("storage.hits", over storage (fun s -> f (Obsd.cache_hits s)));
      ("storage.lookups", over storage (fun s -> f (Obsd.cache_hits s + Obsd.cache_misses s)));
      ("storage.cpu_wait", over storage (fun s -> Resource.queue_delay_total (cpu (Obsd.host s))));
      ( "storage.coord_intents",
        fun () -> match Ensemble.coordinator ens with Some c -> f (Coordinator.intents_logged c) | None -> 0.0 );
      ("disk.ops", over storage (fun s -> f (Disk.ops (Obsd.disk s))));
      ("dir.ops", over dirs (fun d -> f (Dirserver.ops_served d)));
      ("dir.cross", over dirs (fun d -> f (Dirserver.cross_site_ops d)));
      ("dir.log_bytes", over dirs (fun d -> f (Dirserver.log_bytes d)));
      ("dir.cpu_wait", over dirs (fun d -> Resource.queue_delay_total (cpu (Dirserver.host d))));
      ("smallfile.hits", over sfs (fun s -> f (Smallfile.cache_hits s)));
      ("smallfile.lookups", over sfs (fun s -> f (Smallfile.cache_hits s + Smallfile.cache_misses s)));
      ("client.retransmits", fun () -> f (List.fold_left (fun a c -> a + Client.retransmissions c) 0 w.Gen.clients));
    ]
  in
  let one g x = ((fun () -> g x), 1.0) in
  let busy =
    [
      ("net.nic", List.init (Net.node_count net) (one (Net.nic_busy_time net)));
      ("storage.cpu", Array.to_list (Array.map (fun s -> one Resource.busy_time (cpu (Obsd.host s))) storage));
      ( "disk.arm",
        Array.to_list
          (Array.map
             (fun s ->
               let d = Obsd.disk s in
               ((fun () -> Disk.arm_busy_time d), float_of_int (Disk.arms d)))
             storage) );
      ("disk.channel", Array.to_list (Array.map (fun s -> one Disk.channel_busy_time (Obsd.disk s)) storage));
      ("dir.cpu", Array.to_list (Array.map (fun d -> one Resource.busy_time (cpu (Dirserver.host d))) dirs));
      ("smallfile.cpu", Array.to_list (Array.map (fun s -> one Resource.busy_time (cpu (Smallfile.host s))) sfs));
      ("client.cpu", List.map (fun h -> one Resource.busy_time (cpu h)) w.Gen.client_hosts);
    ]
  in
  let hist_fn () =
    let n = Slice.Table.nsites (Ensemble.dir_table ens) in
    let h = Array.make n 0 in
    List.iter (fun p -> Array.iteri (fun i v -> if i < n then h.(i) <- h.(i) + v) (Proxy.dir_site_histogram p)) proxies;
    h
  in
  {
    sum_names = Array.of_list (List.map fst sums);
    sum_fns = Array.of_list (List.map snd sums);
    busy_names = Array.of_list (List.map fst busy);
    busy_fns = Array.of_list (List.map (fun (_, l) -> Array.of_list (List.map fst l)) busy);
    busy_cap = Array.of_list (List.map (fun (_, l) -> Array.of_list (List.map snd l)) busy);
    hist_fn;
  }

let snap p =
  {
    sums = Array.map (fun g -> g ()) p.sum_fns;
    busy = Array.map (Array.map (fun g -> g ())) p.busy_fns;
    dir_hist = p.hist_fn ();
  }

let index names n =
  let rec go i = if names.(i) = n then i else go (i + 1) in
  go 0

(* Counter [name] accumulated between two snapshots. *)
let delta p a b name =
  let i = index p.sum_names name in
  b.sums.(i) -. a.sums.(i)

(* Busiest instance of group [name] over the span: busy / (servers x span). *)
let util_max p a b name ~span =
  let g = index p.busy_names name in
  let m = ref 0.0 in
  Array.iteri
    (fun k v ->
      let u = (v -. a.busy.(g).(k)) /. (p.busy_cap.(g).(k) *. span) in
      if u > !m then m := u)
    b.busy.(g);
  !m

(* max / mean of directory-site request counts over the span (1 = even). *)
let site_imbalance a b =
  let d = Array.mapi (fun i v -> float_of_int (v - a.dir_hist.(i))) b.dir_hist in
  let n = Array.length d in
  let sum = Array.fold_left ( +. ) 0.0 d in
  if n = 0 || sum <= 0.0 then 0.0 else Array.fold_left Float.max 0.0 d /. (sum /. float_of_int n)

(* ---- sim-time hop breakdown ---- *)

(* Per-request self time by hop, for requests whose root span started in
   [lo, hi): a span's self time is its duration minus its direct
   children's; the root's self time is the network share (wire and
   queueing no hop accounts for). Same definition as
   Trace.hop_breakdown, restricted to the measured span. Returns sorted
   per-request sums for [hops]. *)
let hop_self_times tr ~lo ~hi ~hops =
  let infos = Array.of_list (Trace.infos tr) in
  let n = Array.length infos in
  let dur i = Float.max 0.0 (infos.(i).Trace.i_stop -. infos.(i).Trace.i_start) in
  let child_sum = Array.make (n + 1) 0.0 and root_of = Array.make (n + 1) 0 in
  Array.iteri
    (fun i (s : Trace.info) ->
      if s.Trace.i_parent > 0 then begin
        child_sum.(s.Trace.i_parent) <- child_sum.(s.Trace.i_parent) +. dur i;
        root_of.(s.Trace.i_id) <- root_of.(s.Trace.i_parent)
      end
      else root_of.(s.Trace.i_id) <- s.Trace.i_id)
    infos;
  (* per (root, hop) sums in an array indexed by root id *)
  let nh = Array.length hops in
  let per = Array.make_matrix (n + 1) nh (-1.0) in
  let bump root h v = per.(root).(h) <- Float.max 0.0 per.(root).(h) +. v in
  Array.iteri
    (fun i (s : Trace.info) ->
      let self = Float.max 0.0 (dur i -. child_sum.(s.Trace.i_id)) in
      let hop = if s.Trace.i_parent = 0 then "network" else s.Trace.i_hop in
      for h = 0 to nh - 1 do
        if hops.(h) = hop then bump root_of.(s.Trace.i_id) h self
      done)
    infos;
  Array.init nh (fun h ->
      let xs = Gen.Samples.create () in
      Array.iteri
        (fun i (s : Trace.info) ->
          let start = s.Trace.i_start in
          if s.Trace.i_parent = 0 && start >= lo && start < hi && per.(i + 1).(h) >= 0.0 then
            Gen.Samples.add xs per.(i + 1).(h))
        infos;
      Gen.Samples.sorted xs)
