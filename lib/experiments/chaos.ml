module Engine = Slice_sim.Engine
module Fiber = Slice_sim.Fiber
module Net = Slice_net.Net
module Client = Slice_workload.Client
module Untar = Slice_workload.Untar
module Specsfs = Slice_workload.Specsfs
module Ensemble = Slice.Ensemble
module Proxy = Slice.Proxy

type config = {
  seed : int;
  drop_prob : float;
  storage_nodes : int;
  untar_scale : float;
  procs : int;
  crash_node : (Ensemble.klass * int) option;
  crash_at : float;
  crash_for : float;
}

let default_config =
  {
    seed = 2001;
    drop_prob = 0.02;
    storage_nodes = 3;
    untar_scale = 0.01;
    procs = 2;
    (* never storage node 0: the block coordinator lives there *)
    crash_node = Some (Ensemble.Storage, 1);
    crash_at = 1.0;
    crash_for = 2.0;
  }

type result = {
  ops : int;
  errors : int;
  retransmissions : int;
  stale_bounces : int;
  expired_pending : int;
  pending_at_quiesce : int;
  packets_dropped : int;
  fault_drops : int;
  elapsed : float;
}

let ensemble cfg =
  Ensemble.create
    {
      Ensemble.default_config with
      storage_nodes = cfg.storage_nodes;
      smallfile_servers = 1;
      net_params = Some { Net.default_params with drop_prob = cfg.drop_prob };
      seed = cfg.seed;
    }

let schedule_crash ens cfg =
  match cfg.crash_node with
  | None -> ()
  | Some (k, i) ->
      let eng = Ensemble.engine ens in
      (* crash/recover may park (dir-server WAL sync): run them as fibers *)
      Engine.schedule_at eng cfg.crash_at (fun () ->
          Engine.spawn eng (fun () -> Ensemble.crash ens k i));
      Engine.schedule_at eng (cfg.crash_at +. cfg.crash_for) (fun () ->
          Engine.spawn eng (fun () -> Ensemble.recover ens k i))

let collect ens clients proxies ~errors =
  let net = Ensemble.net ens in
  {
    ops = Array.fold_left (fun a c -> a + Client.ops_completed c) 0 clients;
    errors;
    retransmissions = Array.fold_left (fun a c -> a + Client.retransmissions c) 0 clients;
    stale_bounces = Array.fold_left (fun a p -> a + Proxy.stale_bounces p) 0 proxies;
    expired_pending = Array.fold_left (fun a p -> a + Proxy.expired_pending p) 0 proxies;
    pending_at_quiesce = Array.fold_left (fun a p -> a + Proxy.pending_size p) 0 proxies;
    packets_dropped = Net.packets_dropped net;
    fault_drops = Net.fault_drops net;
    elapsed = Engine.now (Ensemble.engine ens);
  }

let run_untar ?(cfg = default_config) () =
  let ens = ensemble cfg in
  let eng = Ensemble.engine ens in
  let pairs =
    Array.init cfg.procs (fun i ->
        Ensemble.add_client ens ~name:(Printf.sprintf "chaos%d" i))
  in
  let proxies = Array.map snd pairs in
  let clients =
    Array.mapi
      (fun i (host, _) ->
        Client.create host ~server:(Ensemble.virtual_addr ens) ~port:(1000 + i) ())
      pairs
  in
  schedule_crash ens cfg;
  let spec = Untar.scaled_spec cfg.untar_scale in
  (* Untar raises Failure on any operation that comes back wrong — its
     own oracle for lost work. (Client.errors is useless here: the
     benchmark's lookup-miss step returns NOENT by design.) *)
  let failed = ref 0 in
  Engine.spawn eng (fun () ->
      Fiber.join_all eng
        (Array.to_list
           (Array.mapi
              (fun i cl () ->
                try
                  ignore
                    (Untar.run cl ~root:Ensemble.root ~name:(Printf.sprintf "proc%d" i) spec)
                with Failure _ -> incr failed)
              clients)));
  Engine.run eng;
  collect ens clients proxies ~errors:!failed

let run_specsfs ?(cfg = default_config) () =
  let ens = ensemble cfg in
  let eng = Ensemble.engine ens in
  let pairs =
    Array.init cfg.procs (fun i ->
        Ensemble.add_client ens ~name:(Printf.sprintf "chaos%d" i))
  in
  let proxies = Array.map snd pairs in
  let clients =
    Array.mapi
      (fun i (host, _) ->
        Client.create host ~server:(Ensemble.virtual_addr ens) ~port:(1000 + i) ())
      pairs
  in
  schedule_crash ens cfg;
  let r =
    Specsfs.run eng ~clients ~root:Ensemble.root
      {
        Specsfs.default_config with
        offered_iops = 200.0;
        processes = cfg.procs;
        duration = 3.0;
        warmup = 0.5;
        bytes_per_iops = 20_000.0;
        seed = cfg.seed;
      }
  in
  collect ens clients proxies ~errors:r.Specsfs.errors

let report () =
  let clean = run_untar ~cfg:{ default_config with drop_prob = 0.0; crash_node = None } () in
  let lossy = run_untar ~cfg:{ default_config with crash_node = None } () in
  (* untar is pure name traffic, so its crash victim is a directory
     server; specsfs moves data, so it loses a storage node *)
  let crashy = run_untar ~cfg:{ default_config with crash_node = Some (Ensemble.Dir, 0) } () in
  let sfs = run_specsfs () in
  let pct_i n = string_of_int n in
  let row label (r : result) =
    Report.row ~label
      ~paper:"0 lost"
      ~measured:
        (Printf.sprintf "%d ops, %d err, %d rexmit, %d pend" r.ops r.errors r.retransmissions
           r.pending_at_quiesce)
      ~note:
        (Printf.sprintf "%d drops (%d fault), %d expired, %d bounces" r.packets_dropped
           r.fault_drops r.expired_pending r.stale_bounces)
      ()
  in
  {
    Report.title = "Chaos: fault injection (loss + node crash), zero lost operations";
    preamble =
      [
        "the paper's end-to-end argument: the µproxy may drop state and packets;";
        "client RPC retransmission recovers. Each run must finish with zero";
        "client-visible errors and zero leaked pending records.";
        Printf.sprintf "clean run sanity: %s retransmissions (must be 0)"
          (pct_i clean.retransmissions);
      ];
    rows =
      [
        row "untar, no faults" clean;
        row (Printf.sprintf "untar, %.0f%% loss" (default_config.drop_prob *. 100.0)) lossy;
        row
          (Printf.sprintf "untar, %.0f%% loss + dir crash" (default_config.drop_prob *. 100.0))
          crashy;
        row "specsfs, loss + storage crash" sfs;
      ];
  }
