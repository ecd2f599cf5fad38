module Engine = Slice_sim.Engine
module Fiber = Slice_sim.Fiber
module Net = Slice_net.Net
module Client = Slice_workload.Client
module Untar = Slice_workload.Untar
module Specsfs = Slice_workload.Specsfs
module Ensemble = Slice.Ensemble
module Proxy = Slice.Proxy
module Fault = Slice.Fault

type workload = Untar | Specsfs

(* 2 % loss on every link from the start; optionally one server down at
   t = 1 s for 2 s, well inside the client retry budget. *)
let loss = (0.0, Fault.Net (Net.Loss 0.02))
let crash k i = [ loss; (1.0, Fault.Crash (Server (k, i))); (3.0, Fault.Recover (Server (k, i))) ]

let exhibit =
  [
    ("untar, no faults", Untar, []);
    ("untar, 2% loss", Untar, [ loss ]);
    (* untar is pure name traffic, so its crash victim is a directory
       server; specsfs moves data, so it loses a storage node (never
       node 0: the block coordinator lives there) *)
    ("untar, 2% loss + dir crash", Untar, crash Ensemble.Dir 0);
    ("specsfs, loss + storage crash", Specsfs, crash Ensemble.Storage 1);
  ]

let seed = 2001
let procs = 2

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

let run workload schedule =
  let ens =
    Ensemble.create
      { Ensemble.default_config with storage_nodes = 3; smallfile_servers = 1; seed }
  in
  let eng = Ensemble.engine ens in
  let pairs =
    Array.init procs (fun i -> Ensemble.add_client ens ~name:(Printf.sprintf "chaos%d" i))
  in
  let proxies = Array.map snd pairs in
  let clients =
    Array.mapi
      (fun i (host, _) ->
        Client.create host ~server:(Ensemble.virtual_addr ens) ~port:(1000 + i) ())
      pairs
  in
  Fault.install ens schedule;
  let errors =
    match workload with
    | Untar ->
        let spec = Untar.scaled_spec 0.01 in
        (* Untar raises Failure on any operation that comes back wrong —
           its own oracle for lost work. (Client.errors is useless here:
           the benchmark's lookup-miss step returns NOENT by design.) *)
        let failed = ref 0 in
        Engine.spawn eng (fun () ->
            Fiber.join_all eng
              (Array.to_list
                 (Array.mapi
                    (fun i cl () ->
                      try
                        ignore
                          (Untar.run cl ~root:Ensemble.root ~name:(Printf.sprintf "proc%d" i)
                             spec)
                      with Failure _ -> incr failed)
                    clients)));
        Engine.run eng;
        !failed
    | Specsfs ->
        (Specsfs.run eng ~clients ~root:Ensemble.root
           {
             Specsfs.default_config with
             offered_iops = 200.0;
             processes = procs;
             duration = 3.0;
             warmup = 0.5;
             bytes_per_iops = 20_000.0;
             seed;
           })
          .Specsfs.errors
  in
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
    elapsed = Engine.now eng;
  }

let report () =
  let runs = List.map (fun (label, w, schedule) -> (label, run w schedule)) exhibit in
  let clean_retransmissions = match runs with (_, r) :: _ -> r.retransmissions | [] -> 0 in
  let row (label, (r : result)) =
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
        Printf.sprintf "clean run sanity: %d retransmissions (must be 0)" clean_retransmissions;
      ];
    rows = List.map row runs;
  }
