(* Multi-tenant traffic storm: the per-tenant QoS exhibit.

   Three tenants share one Slice ensemble: an interactive web tenant
   (open-loop Zipf page reads over mirrored files, with a mid-run flash
   crowd), an AI-ingest flood (closed-loop whole-file reads over a
   4-64 KB set) and a backup scanner sweeping the whole namespace. The
   same storm runs twice from identical seeds — once with FIFO servers
   (QoS off) and once with weighted fair queueing, token-bucket
   admission on the scanner and power-of-two-choices mirrored reads
   (QoS on). The headline: QoS keeps the interactive tenant's p99 under
   a configured bound while sacrificing almost none of the aggregate
   throughput (WFQ is work-conserving; admission only trims the
   scanner's bursts). *)

module Engine = Slice_sim.Engine
module Stats = Slice_util.Stats
module Json = Slice_util.Json
module Metrics = Slice_util.Metrics
module Tenant = Slice_qos.Tenant
module Ensemble = Slice.Ensemble
module Proxy = Slice.Proxy
module Client = Slice_workload.Client
module Stormgen = Slice_workload.Stormgen
module Zipf = Slice_workload.Zipf
module Prng = Slice_util.Prng

type tenant_result = {
  tn_name : string;
  tn_ops : int;
  tn_ops_s : float;
  tn_bytes : int;
  tn_p50_ms : float;
  tn_p95_ms : float;
  tn_p99_ms : float;
  tn_errors : int;
}

type side = {
  sd_label : string;
  sd_tenants : tenant_result array;  (* web, flood, scan *)
  sd_total_ops : int;
  sd_admission_deferrals : int;
  sd_p2c_probes : int;
  sd_p2c_diverted : int;
  sd_metrics : Json.t;
}

type t = {
  st_off : side;
  st_on : side;
  st_throughput_ratio : float;  (* on/off aggregate measured ops *)
  st_p99_bound_ms : float;
  st_duration : float;
}

let ms v = v *. 1e3

(* Interactive p99 must stay under this with QoS on — the contract the
   bench smoke gate enforces. *)
let default_p99_bound_ms = 55.0

(* Tenant roster. The scanner is the only admission-gated tenant: its
   weight already caps its share under contention, the bucket just stops
   burst trains from forming queues at all. [system] absorbs the
   dataless small-file managers' backend I/O — it rides the flood's
   critical path, so it keeps a real weight. *)
let tenant_specs ~scale =
  [|
    Tenant.spec ~klass:Tenant.Interactive ~name:"web" ~weight:16.0 ();
    Tenant.spec ~klass:Tenant.Batch ~name:"flood" ~weight:3.0 ();
    Tenant.spec ~klass:Tenant.Background ~name:"scan" ~weight:1.5
      ~admit_rate:(600.0 *. scale) ~admit_burst:40.0 ();
    Tenant.spec ~klass:Tenant.Batch ~name:"system" ~weight:6.0 ();
  |]

let system_tenant = 3

let result_of name (tl : Stormgen.tally) ~duration =
  {
    tn_name = name;
    tn_ops = tl.Stormgen.ops;
    tn_ops_s = float_of_int tl.Stormgen.ops /. duration;
    tn_bytes = tl.Stormgen.bytes;
    tn_p50_ms = ms (Stats.percentile tl.Stormgen.lat 50.0);
    tn_p95_ms = ms (Stats.percentile tl.Stormgen.lat 95.0);
    tn_p99_ms = ms (Stats.percentile tl.Stormgen.lat 99.0);
    tn_errors = tl.Stormgen.errors;
  }

let run_side ~scale ~seed ~duration ~warmup ~qos_on =
  let qos =
    if qos_on then
      Some
        {
          Ensemble.tenants = tenant_specs ~scale;
          wfq_depth = 4;
          p2c_reads = true;
          system_tenant;
        }
    else None
  in
  (* A deliberately tight ensemble: half the storage nodes and arms of
     the default, and caches far smaller than the combined working set,
     so the scan and flood actually contend with the web tenant for
     disk arms and server CPU instead of being absorbed by cache. *)
  let cfg =
    {
      Ensemble.default_config with
      seed;
      storage_nodes = 2;
      disks_per_node = 6;
      storage_cache = 2 * 1024 * 1024;
      smallfile_cache = 16 * 1024 * 1024;
      mirror_new_files = true;
      qos;
    }
  in
  let ens = Ensemble.create cfg in
  let eng = Ensemble.engine ens in
  let vaddr = Ensemble.virtual_addr ens in
  let mk_client ~tenant ~name ~port =
    let host, _px = Ensemble.add_client ~tenant ens ~name in
    Client.create host ~server:vaddr ~port ()
  in
  (* identical labels both sides: with QoS off the tenant id is ignored *)
  let web_cl = mk_client ~tenant:0 ~name:"web0" ~port:2001 in
  let flood_cl = mk_client ~tenant:1 ~name:"flood0" ~port:2002 in
  let scan_cl = mk_client ~tenant:2 ~name:"scan0" ~port:2003 in
  let web_files = max 8 (int_of_float (48.0 *. scale)) in
  let flood_files = max 16 (int_of_float (128.0 *. scale)) in
  let web_t = Stormgen.tally () and flood_t = Stormgen.tally () and scan_t = Stormgen.tally () in
  Engine.spawn eng (fun () ->
      (* --- setup: each tenant builds its subtree --- *)
      let web_tree = ref None and flood_tree = ref None in
      Slice_sim.Fiber.join_all eng
        [
          (fun () ->
            web_tree :=
              Some
                (Stormgen.build_tree web_cl ~root:Ensemble.root ~name:"web" ~dirs:6
                   ~files:web_files ~size_of:(fun _ -> 262144)));
          (fun () ->
            flood_tree :=
              Some
                (Stormgen.build_tree flood_cl ~root:Ensemble.root ~name:"flood" ~dirs:4
                   ~files:flood_files
                   ~size_of:(fun i -> 4096 + (i * 4096 mod 61440))));
        ];
      let web_tree = Option.get !web_tree and flood_tree = Option.get !flood_tree in
      (* --- the storm: all three tenants at once --- *)
      let t0 = Engine.now eng in
      let t_measure = t0 +. warmup in
      let t_end = t_measure +. duration in
      let zipf = Zipf.create ~n:web_files ~s:1.1 in
      Slice_sim.Fiber.join_all eng
        [
          (fun () ->
            Stormgen.web_run eng web_cl
              ~prng:(Prng.create (seed + 101))
              ~zipf ~tree:web_tree
              ~cfg:
                {
                  Stormgen.web_rate = 500.0 *. scale;
                  web_outstanding = 64;
                  web_hotspot_at = t_measure +. (duration /. 2.0);
                  web_hotspot_frac = 0.5;
                }
              ~t0 ~t_measure ~t_end web_t);
          (fun () ->
            Stormgen.flood_run eng flood_cl
              ~prng:(Prng.create (seed + 202))
              ~tree:flood_tree
              ~cfg:{ Stormgen.flood_workers = 32 }
              ~t_measure ~t_end flood_t);
          (fun () ->
            Stormgen.scan_run eng scan_cl ~workers:8
              ~trees:[| web_tree; flood_tree |]
              ~t_measure ~t_end scan_t);
        ]);
  Ensemble.run ens;
  let sum_proxies f = List.fold_left (fun acc px -> acc + f px) 0 (Ensemble.client_proxies ens) in
  let tenants =
    [|
      result_of "web" web_t ~duration;
      result_of "flood" flood_t ~duration;
      result_of "scan" scan_t ~duration;
    |]
  in
  {
    sd_label = (if qos_on then "qos_on" else "qos_off");
    sd_tenants = tenants;
    sd_total_ops = Array.fold_left (fun a r -> a + r.tn_ops) 0 tenants;
    sd_admission_deferrals = sum_proxies Proxy.admission_deferrals;
    sd_p2c_probes = sum_proxies Proxy.p2c_probes;
    sd_p2c_diverted = sum_proxies Proxy.p2c_diverted;
    sd_metrics = Metrics.dump (Ensemble.metrics ens);
  }

let compute ?(scale = 1.0) ?(seed = 4242) () =
  let duration = 3.0 and warmup = 0.5 in
  let off = run_side ~scale ~seed ~duration ~warmup ~qos_on:false in
  let on = run_side ~scale ~seed ~duration ~warmup ~qos_on:true in
  let ratio =
    if off.sd_total_ops = 0 then 0.0
    else float_of_int on.sd_total_ops /. float_of_int off.sd_total_ops
  in
  {
    st_off = off;
    st_on = on;
    st_throughput_ratio = ratio;
    st_p99_bound_ms = default_p99_bound_ms;
    st_duration = duration;
  }

let interactive_p99_ms side = side.sd_tenants.(0).tn_p99_ms

let report_of t =
  let side_rows side =
    Array.to_list
      (Array.map
         (fun r ->
           Report.row
             ~label:(Printf.sprintf "%s %s" side.sd_label r.tn_name)
             ~paper:"-"
             ~measured:(Printf.sprintf "%.0f ops/s" r.tn_ops_s)
             ~note:
               (Printf.sprintf "p50 %.2f / p95 %.2f / p99 %.2f ms; %d ops; %d errors"
                  r.tn_p50_ms r.tn_p95_ms r.tn_p99_ms r.tn_ops r.tn_errors)
             ())
         side.sd_tenants)
  in
  {
    Report.title = "Traffic storm: per-tenant QoS (WFQ + admission + p2c reads)";
    preamble =
      [
        "Same three-tenant storm, same seeds, run FIFO (qos_off) then with";
        "weighted fair queueing at every server, token-bucket admission on";
        "the scanner and power-of-two-choices mirrored reads (qos_on).";
        Printf.sprintf
          "Interactive p99: %.2f ms off -> %.2f ms on (bound %.0f ms); aggregate kept %.1f%%."
          (interactive_p99_ms t.st_off) (interactive_p99_ms t.st_on) t.st_p99_bound_ms
          (100.0 *. t.st_throughput_ratio);
        Printf.sprintf "Admission deferrals %d; p2c probes %d (%d diverted)."
          t.st_on.sd_admission_deferrals t.st_on.sd_p2c_probes t.st_on.sd_p2c_diverted;
      ];
    rows = side_rows t.st_off @ side_rows t.st_on;
  }

(* Deterministic artifact: field names sorted at every level, tenants in
   roster order. *)
let json_of t =
  let num v = Json.Num v in
  let side s =
    Json.Obj
      [
        ("admission_deferrals", num (float_of_int s.sd_admission_deferrals));
        ("label", Json.Str s.sd_label);
        ("metrics", s.sd_metrics);
        ("p2c_diverted", num (float_of_int s.sd_p2c_diverted));
        ("p2c_probes", num (float_of_int s.sd_p2c_probes));
        ( "tenants",
          Json.Arr
            (Array.to_list
               (Array.map
                  (fun r ->
                    Json.Obj
                      [
                        ("bytes", num (float_of_int r.tn_bytes));
                        ("errors", num (float_of_int r.tn_errors));
                        ("name", Json.Str r.tn_name);
                        ("ops", num (float_of_int r.tn_ops));
                        ("ops_s", num r.tn_ops_s);
                        ("p50_ms", num r.tn_p50_ms);
                        ("p95_ms", num r.tn_p95_ms);
                        ("p99_ms", num r.tn_p99_ms);
                      ])
                  s.sd_tenants)) );
        ("total_ops", num (float_of_int s.sd_total_ops));
      ]
  in
  Json.Obj
    [
      ("duration_s", num t.st_duration);
      ("interactive_p99_off_ms", num (interactive_p99_ms t.st_off));
      ("interactive_p99_on_ms", num (interactive_p99_ms t.st_on));
      ("p99_bound_ms", num t.st_p99_bound_ms);
      ("qos_off", side t.st_off);
      ("qos_on", side t.st_on);
      ("throughput_ratio", num t.st_throughput_ratio);
    ]
