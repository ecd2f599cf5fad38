(* End-to-end tracing exhibit: replay the SPECsfs-style mix with span
   recording on and print, per op class, where the time goes — proxy CPU,
   network (root self time: wire + queueing), server CPU, WAL and disk.

   The same deterministic workload as the offload exhibit (same file set,
   same replay loop); two same-seed runs produce byte-identical JSON,
   which is what the acceptance check diffs. *)

module Engine = Slice_sim.Engine
module Stats = Slice_util.Stats
module Json = Slice_util.Json
module Metrics = Slice_util.Metrics
module Trace = Slice_trace.Trace
module Client = Slice_workload.Client
module Livemix = Slice_workload.Livemix

type t = {
  rows : (string * string * Stats.t) list;  (** (op, hop, latency) sorted *)
  spans : int;
  dropped : int;
  ops : int;
  metrics : Json.t;  (** unified-registry dump at end of run *)
  trace : Json.t;  (** full span dump *)
}

let compute ?(scale = 1.0) ?(seed = 42) () =
  let clients = 2 in
  let files_per_proc = max 24 (int_of_float (96.0 *. scale)) in
  let ops_per_proc = max 120 (int_of_float (900.0 *. scale)) in
  let ens =
    Slice.Ensemble.create
      {
        Slice.Ensemble.default_config with
        seed;
        storage_nodes = 4;
        dir_servers = 2;
        smallfile_servers = 2;
        proxy_params = { Slice.Params.default with trace_enabled = true };
      }
  in
  let eng = Slice.Ensemble.engine ens in
  let cls =
    Array.init clients (fun i ->
        let host, _proxy = Slice.Ensemble.add_client ens ~name:(Printf.sprintf "tr%d" i) in
        Client.create host ~server:(Slice.Ensemble.virtual_addr ens) ())
  in
  let measured = ref 0 in
  Engine.spawn eng (fun () ->
      let filesets = Livemix.build_all eng cls (Offload.fileset_shape ~files:files_per_proc) in
      Offload.replay eng cls filesets ~seed ~ops_per_proc ~on_op:(fun _ -> incr measured));
  Engine.run eng;
  let tr =
    match Slice.Ensemble.trace ens with
    | Some tr -> tr
    | None -> failwith "tracing exhibit: tracer missing"
  in
  {
    rows = Trace.hop_breakdown tr;
    spans = Trace.count tr;
    dropped = Trace.dropped tr;
    ops = !measured;
    metrics = Metrics.dump (Slice.Ensemble.metrics ens);
    trace = Trace.to_json tr;
  }

let ms v = v *. 1e3

let report_of t =
  {
    Report.title = "Request tracing: per-op-class latency by hop (SPECsfs mix)";
    preamble =
      [
        "Span trees recorded at every hop of every request; a hop's time is its";
        "self time (children subtracted). 'total' is the whole request at the";
        "uproxy; 'network' is root self time — wire latency plus queueing that";
        Printf.sprintf "no server accounts for. %d spans recorded (%d dropped), %d measured ops."
          t.spans t.dropped t.ops;
      ];
    rows =
      List.map
        (fun (op, hop, s) ->
          Report.row
            ~label:(Printf.sprintf "%s/%s" op hop)
            ~paper:"-"
            ~measured:(Printf.sprintf "p50 %.3f ms" (ms (Stats.percentile s 50.0)))
            ~note:
              (Printf.sprintf "p95 %.3f p99 %.3f mean %.3f ms; n=%d"
                 (ms (Stats.percentile s 95.0))
                 (ms (Stats.percentile s 99.0))
                 (ms (Stats.mean s)) (Stats.count s))
            ())
        t.rows;
  }

(* Deterministic artifact: field names sorted at every level, rows in
   (op, hop) order. *)
let json_of t =
  let num v = Json.Num v in
  Json.Obj
    [
      ("dropped", num (float_of_int t.dropped));
      ( "hops",
        Json.Arr
          (List.map
             (fun (op, hop, s) ->
               Json.Obj
                 [
                   ("count", num (float_of_int (Stats.count s)));
                   ("hop", Json.Str hop);
                   ("mean_ms", num (ms (Stats.mean s)));
                   ("op", Json.Str op);
                   ("p50_ms", num (ms (Stats.percentile s 50.0)));
                   ("p95_ms", num (ms (Stats.percentile s 95.0)));
                   ("p99_ms", num (ms (Stats.percentile s 99.0)));
                 ])
             t.rows) );
      ("metrics", t.metrics);
      ("ops", num (float_of_int t.ops));
      ("spans", num (float_of_int t.spans));
      ("trace", t.trace);
    ]
