(* The repository benchmark: steady-state host cost and simulated latency
   per op on three workloads, plus a traced per-layer run.

   Usage: main.exe --workload NAME --seed N --seconds S --trace 0|1 [--tiny]

   --trace 0 (timed run): set up the workload, then advance the
   simulation window by window with [Engine.run ~until], timing each
   window on the host clock (scaled to a reference host speed, see
   Clock) and counting minor-heap words; set-up is repeated and timed on
   its own. Prints the end-to-end metrics.

   --trace 1 (traced run): the same untraced run, then a traced run of
   the same seed (tracer forced on, the measured span driven one
   [Engine.step] at a time, packet filters on every server, GC phases
   read from Runtime_events) whose simulated results must equal the
   untraced run's exactly, then replays of the captured calls and
   replies. Prints the per-layer metrics.

   Either way the run fails with exit code 1 when an output check fails.
   The last line of standard output is one JSON object:
   {"attempted", "correct", "failed", "metrics": {name: {unit, value}}}. *)

module Engine = Slice_sim.Engine
module Ensemble = Slice.Ensemble
module Params = Slice.Params
module Proxy = Slice.Proxy
module Net = Slice_net.Net
module Metrics = Slice_util.Metrics
module Json = Slice_util.Json
module Stats = Slice_util.Stats
module Tenant = Slice_qos.Tenant

type args = { workload : string; seed : int; seconds : int; trace : bool; tiny : bool }

let usage () =
  prerr_endline "usage: main.exe --workload sfs_mix|untar_create|storm_qos --seed N --seconds S --trace 0|1 [--tiny]";
  exit 2

let parse argv =
  let rec go a = function
    | [] -> a
    | "--workload" :: w :: rest -> go { a with workload = w } rest
    | "--seed" :: n :: rest -> go { a with seed = int_of_string n } rest
    | "--seconds" :: n :: rest -> go { a with seconds = int_of_string n } rest
    | "--trace" :: ("0" | "1" as t) :: rest -> go { a with trace = t = "1" } rest
    | "--tiny" :: rest -> go { a with tiny = true } rest
    | _ -> usage ()
  in
  let a = go { workload = ""; seed = 1; seconds = 10; trace = false; tiny = false } argv in
  if (not (List.mem a.workload Gen.workloads)) || a.seconds < 1 then usage ();
  a

(* ---- sizing ---- *)

(* Simulated seconds measured per requested host second. Calibrated so a
   run measures about --seconds of host time on a 2-core x86-64 VM; the
   span is a fixed function of the arguments, so one seed always
   simulates the same thing. *)
let sim_per_wall = function "sfs_mix" -> 13.0 | "untar_create" -> 4.5 | _ -> 20.0

(* Simulated warm-up between file-set build and the measured span. The
   storm's file set builds in a tenth of a second, so its warm-up is
   longer: a set-up time made of a few collections' worth of work spread
   by 30 % or more between runs. *)
let warmup = function "storm_qos" -> 10.0 | _ -> 2.0

(* Rough NFS ops per simulated second, for sizing the trace sample. *)
let ops_rate = function "sfs_mix" -> 2000.0 | "untar_create" -> 19000.0 | _ -> 3500.0

let span a = if a.tiny then 1.0 else float_of_int a.seconds *. sim_per_wall a.workload
let windows a = if a.tiny then 20 else 1000
let setups a = if a.tiny then 1 else if a.workload = "sfs_mix" then 3 else 5
let rounds a = if a.tiny then 2 else 20

(* Trace about 20k request roots (the tracer keeps at most 200k spans). *)
let trace_sample a =
  Float.min 1.0 (20000.0 /. ((ops_rate a.workload *. (span a +. warmup a.workload)) +. 40000.0))

(* ---- host time ---- *)

(* Speed probes taken beside some host-time measurement (see Clock). *)
module Probes = struct
  type t = { xs : Gen.Samples.t; mutable total_ns : int }

  let create () = { xs = Gen.Samples.create (); total_ns = 0 }

  let take t =
    let p = Clock.probe_ns () in
    Gen.Samples.add t.xs (float_of_int p);
    t.total_ns <- t.total_ns + p;
    p

  let median t = int_of_float (Gen.quantile (Gen.Samples.sorted t.xs) 0.5)

  (* Host-time figures measured while [t] was taken, as reference-VM time. *)
  let factor t = Clock.nominal_probe_ns /. float_of_int (max 1 (median t))
end

(* ---- one run ---- *)

let events_per_probe = 8192
let warmup_chunks = 100

(* Build the workload and warm it up, probing host speed every few
   thousand events. Returns the world and the set-up's host seconds, raw
   and as reference-VM seconds (probe time excluded from both). *)
let setup a =
  let probes = Probes.create () in
  let t0 = Clock.now_ns () in
  let drive eng =
    let n = ref 0 in
    while Engine.step eng do
      incr n;
      if !n mod events_per_probe = 0 then ignore (Probes.take probes)
    done
  in
  let w = Gen.build a.workload ~seed:a.seed ~tiny:a.tiny ~trace_sample:(trace_sample a) ~drive in
  let eng = Ensemble.engine w.Gen.ens and rc = w.Gen.rc in
  let t_start = Engine.now eng in
  rc.Gen.t_measure <- t_start +. warmup a.workload;
  rc.Gen.t_end <- rc.Gen.t_measure +. span a;
  let t_measure = rc.Gen.t_measure and t_end = rc.Gen.t_end in
  Engine.spawn eng (fun () -> w.Gen.start ~t_measure ~t_end);
  for k = 1 to warmup_chunks do
    let until =
      if k = warmup_chunks then t_measure
      else t_start +. (warmup a.workload *. float_of_int k /. float_of_int warmup_chunks)
    in
    Engine.run ~until eng;
    ignore (Probes.take probes)
  done;
  let raw_ns = Clock.now_ns () - t0 - probes.Probes.total_ns in
  (w, float_of_int raw_ns /. 1e9, float_of_int raw_ns *. Probes.factor probes /. 1e9)

(* Window [i]'s closing edge in simulated time. *)
let edge (rc : Gen.recorder) ~windows i =
  if i = windows - 1 then rc.Gen.t_end
  else rc.Gen.t_measure +. ((rc.Gen.t_end -. rc.Gen.t_measure) *. float_of_int (i + 1) /. float_of_int windows)

(* Quiesce, then run the output checks; returns the problems found. *)
let finish (w : Gen.world) =
  let ens = w.Gen.ens in
  let eng = Ensemble.engine ens and rc = w.Gen.rc in
  Engine.run eng;
  let problems = ref [] in
  Engine.spawn eng (fun () -> problems := w.Gen.check ());
  Engine.run eng;
  List.iteri
    (fun i p ->
      if Proxy.pending_size p <> 0 then
        problems := Printf.sprintf "µproxy %d holds %d pending records after quiesce" i (Proxy.pending_size p) :: !problems)
    (Ensemble.client_proxies ens);
  let drops = Net.packets_dropped (Ensemble.net ens) in
  if drops <> 0 then problems := Printf.sprintf "%d packets dropped" drops :: !problems;
  if rc.Gen.failed_total > 0 then
    problems :=
      Printf.sprintf "%d ops failed or were shed (%s)" rc.Gen.failed_total (String.concat "; " (List.rev rc.Gen.problems))
      :: !problems;
  List.rev !problems

type sim_result = {
  ops : int;  (** ops completed inside the measured span *)
  sim_span : float;
  lat : float array;  (** sorted latency-class samples *)
  due : int;
  failed : int;
  fingerprint : string;  (** simulated outputs and the metrics dump, tracer gauges excluded *)
  problems : string list;
}

let strip_trace_gauges = function
  | Json.Obj fields ->
      Json.Obj
        (List.map
           (fun (k, v) ->
             match v with
             | Json.Obj series ->
                 (k, Json.Obj (List.filter (fun (n, _) -> not (String.starts_with ~prefix:"trace." n)) series))
             | _ -> (k, v))
           fields)
  | j -> j

let sim_result (w : Gen.world) ~ops =
  let rc = w.Gen.rc in
  let lat = Gen.Samples.sorted rc.Gen.lat in
  let problems = finish w in
  let fingerprint =
    Printf.sprintf "ops=%d due=%d failed=%d lat=%d p50=%h p999=%h completed=%d now=%h\n%s" ops rc.Gen.due
      rc.Gen.failed (Array.length lat) (Gen.quantile lat 0.5) (Gen.quantile lat 0.999) rc.Gen.completed
      (Engine.now (Ensemble.engine w.Gen.ens))
      (Json.to_string (strip_trace_gauges (Metrics.dump (Ensemble.metrics w.Gen.ens))))
  in
  { ops; sim_span = rc.Gen.t_end -. rc.Gen.t_measure; lat; due = rc.Gen.due; failed = rc.Gen.failed; fingerprint; problems }

type timed = {
  setup_s : float;  (** reference-VM seconds *)
  setup_raw_s : float;
  span_ns : float;  (** reference-VM ns of the measured span *)
  per_window_us : float array;  (** reference-VM µs per completed op, by window *)
  raw_window_us : float array;  (** the same, unscaled *)
  slowdown : float;  (** median probe time over the span / the reference VM's *)
  words : float;  (** minor words allocated in the measured span *)
  promoted : float;
  majors : int;
  live_growth : float;  (** live major-heap words, span end minus start (per-layer mode only) *)
  peak_heap_mb : float;
  sim : sim_result;
}

(* Live major-heap words after a full collection. *)
let live_words () =
  Gc.full_major ();
  (Gc.stat ()).Gc.live_words

(* Timed run, tracing off: one [Engine.run ~until] per window, each
   followed by a speed probe that scales it. In per-layer mode the live
   heap is also read at the span's edges, outside the timed windows. *)
let timed a =
  let w, setup_raw_s, setup_s = setup a in
  let eng = Ensemble.engine w.Gen.ens and rc = w.Gen.rc in
  let windows = windows a in
  let per_window_us = Array.make windows 0.0 and raw_window_us = Array.make windows 0.0 in
  let probes = Probes.create () in
  let span_ns = ref 0.0 in
  let c0 = rc.Gen.completed in
  let live0 = if a.trace then live_words () else 0 in
  let g0 = Gc.quick_stat () in
  let w0 = Gc.minor_words () in
  for i = 0 to windows - 1 do
    let c = rc.Gen.completed and t = Clock.now_ns () in
    Engine.run ~until:(edge rc ~windows i) eng;
    let ns = Clock.now_ns () - t in
    let scaled = Clock.scale ns ~probe:(Probes.take probes) in
    let ops = float_of_int (max 1 (rc.Gen.completed - c)) in
    span_ns := !span_ns +. scaled;
    per_window_us.(i) <- scaled /. 1e3 /. ops;
    raw_window_us.(i) <- float_of_int ns /. 1e3 /. ops
  done;
  let words = Gc.minor_words () -. w0 in
  let g1 = Gc.quick_stat () in
  let live_growth = if a.trace then float_of_int (live_words () - live0) else 0.0 in
  let sim = sim_result w ~ops:(rc.Gen.completed - c0) in
  let peak_heap_mb = float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * 8) /. 1e6 in
  {
    setup_s;
    setup_raw_s;
    span_ns = !span_ns;
    per_window_us;
    raw_window_us;
    slowdown = 1.0 /. Probes.factor probes;
    words;
    promoted = g1.Gc.promoted_words -. g0.Gc.promoted_words;
    majors = g1.Gc.major_collections - g0.Gc.major_collections;
    live_growth;
    peak_heap_mb;
    sim;
  }

(* ---- traced run instruments ---- *)

(* Host ns per [Engine.step]: exact counts below 100 µs, the rare longer
   steps kept individually. *)
module Steps = struct
  let small = 100_000

  type t = { counts : int array; big : Gen.Samples.t; mutable n : int }

  let create () = { counts = Array.make small 0; big = Gen.Samples.create (); n = 0 }

  let add t ns =
    t.n <- t.n + 1;
    if ns < small then t.counts.(max 0 ns) <- t.counts.(max 0 ns) + 1 else Gen.Samples.add t.big (float_of_int ns)

  let quantile t q =
    let rank = max 1 (int_of_float (Float.ceil (q *. float_of_int t.n))) in
    let rec go i acc =
      if i = small then Gen.quantile (Gen.Samples.sorted t.big) (float_of_int (rank - acc) /. float_of_int t.big.Gen.Samples.n)
      else if acc + t.counts.(i) >= rank then float_of_int i
      else go (i + 1) (acc + t.counts.(i))
    in
    if t.n = 0 then 0.0 else go 0 0
end

(* Minor and major GC time from the runtime's own phase events. *)
module Gc_phases = struct
  type t = {
    cursor : Runtime_events.cursor;
    mutable cb : Runtime_events.Callbacks.t option;
    mutable minor_ns : int;
    mutable major_ns : int;
    mutable minor_at : int;
    mutable major_at : int;
    mutable lost : int;
  }

  let ns ts = Int64.to_int (Runtime_events.Timestamp.to_int64 ts)

  let start () =
    Runtime_events.start ();
    let t =
      {
        cursor = Runtime_events.create_cursor None;
        cb = None;
        minor_ns = 0;
        major_ns = 0;
        minor_at = -1;
        major_at = -1;
        lost = 0;
      }
    in
    let runtime_begin _ ts = function
      | Runtime_events.EV_MINOR -> t.minor_at <- ns ts
      | Runtime_events.EV_MAJOR_SLICE -> t.major_at <- ns ts
      | _ -> ()
    and runtime_end _ ts = function
      | Runtime_events.EV_MINOR when t.minor_at >= 0 ->
          t.minor_ns <- t.minor_ns + (ns ts - t.minor_at);
          t.minor_at <- -1
      | Runtime_events.EV_MAJOR_SLICE when t.major_at >= 0 ->
          t.major_ns <- t.major_ns + (ns ts - t.major_at);
          t.major_at <- -1
      | _ -> ()
    in
    t.cb <-
      Some
        (Runtime_events.Callbacks.create ~runtime_begin ~runtime_end
           ~lost_events:(fun _ n -> t.lost <- t.lost + n)
           ());
    t

  let poll t = match t.cb with Some cb -> ignore (Runtime_events.read_poll t.cursor cb None) | None -> ()

  let reset t =
    poll t;
    t.minor_ns <- 0;
    t.major_ns <- 0;
    t.lost <- 0

  let stop t = Runtime_events.free_cursor t.cursor
end

type traced = {
  t_span_ns : float;  (** reference-VM ns of the measured span *)
  factor : float;  (** reference-VM scale over the span, for step and GC times *)
  replay_factor : float;  (** reference-VM scale beside the replays *)
  steps : Steps.t;
  sentinels : int;
  gcp : Gc_phases.t;
  t_sim : sim_result;
  s0 : Probe.snap;
  s1 : Probe.snap;
  pr : Probe.probe;
  cap : Probe.capture;
  hops : float array array;
  web_qdelay_p99 : float;
  codec_dec : Replay.cost;
  codec_enc : Replay.cost;
  proxy_replay : Replay.cost;
  wfq_replay : Replay.cost;
}

let hops = [| "proxy"; "network"; "server"; "disk" |]

(* Traced run: same seed and span, tracer forced on, the measured span
   driven one [Engine.step] at a time with a no-op sentinel event and a
   speed probe at each window edge. *)
let traced a =
  Params.trace_force := true;
  let gcp = Gc_phases.start () in
  let w, _, _ = setup a in
  let ens = w.Gen.ens in
  let eng = Ensemble.engine ens and rc = w.Gen.rc in
  let cap, role = Probe.install_filters w ~max_keep:4096 in
  let pr = Probe.probe w in
  let windows = windows a in
  let steps = Steps.create () in
  let c0 = rc.Gen.completed in
  (* the same edge collection as the untraced run, so the overhead ratio compares like with like *)
  Gc.full_major ();
  Gc_phases.reset gcp;
  cap.Probe.on <- true;
  let s0 = Probe.snap pr in
  let probes = Probes.create () in
  let t_span_ns = ref 0.0 in
  for i = 0 to windows - 1 do
    let reached = ref false in
    let t0 = Clock.now_ns () in
    Engine.schedule_at eng (edge rc ~windows i) (fun () -> reached := true);
    while not !reached do
      let t = Clock.now_ns () in
      ignore (Engine.step eng);
      Steps.add steps (Clock.now_ns () - t)
    done;
    Gc_phases.poll gcp;
    t_span_ns := !t_span_ns +. Clock.scale (Clock.now_ns () - t0) ~probe:(Probes.take probes)
  done;
  let s1 = Probe.snap pr in
  cap.Probe.on <- false;
  let t_sim = sim_result w ~ops:(rc.Gen.completed - c0) in
  Gc_phases.stop gcp;
  let hops =
    match Ensemble.trace ens with
    | Some tr -> Probe.hop_self_times tr ~lo:rc.Gen.t_measure ~hi:rc.Gen.t_end ~hops
    | None -> Array.map (fun _ -> [||]) hops
  in
  ignore (Ensemble.drain_traces ());
  Params.trace_force := false;
  let web_qdelay_p99 =
    match Ensemble.qos_tenants ens with Some reg -> Stats.percentile (Tenant.queue_delay reg 0) 99.0 | None -> 0.0
  in
  let rounds = rounds a in
  let replay_probes = Probes.create () in
  for _ = 1 to 21 do
    ignore (Probes.take replay_probes)
  done;
  {
    t_span_ns = !t_span_ns;
    factor = Probes.factor probes;
    replay_factor = Probes.factor replay_probes;
    steps;
    sentinels = windows;
    gcp;
    t_sim;
    s0;
    s1;
    pr;
    cap;
    hops;
    web_qdelay_p99;
    codec_dec = Replay.decode_call ~rounds cap;
    codec_enc = Replay.encode_reply ~rounds cap;
    proxy_replay = Replay.proxy ens cap role;
    wfq_replay = Replay.wfq ~rounds ens cap;
  }

(* ---- metrics ---- *)

let per x n = if n = 0.0 then 0.0 else x /. n

let sorted_windows (t : timed) =
  let a = Array.copy t.per_window_us in
  Array.sort Float.compare a;
  a
let ms s = s *. 1e3

(* The gated end-to-end metrics. failed_frac is printed beside them but
   not gated: it is 0 by construction (the result line's "failed"). *)
let end_to_end (t : timed) ~setup_s =
  let ops = float_of_int t.sim.ops in
  [
    ("wall_us_per_op", "us/op", Gen.quantile (sorted_windows t) 0.5);
    ("wall_us_per_op_p95", "us/op", Gen.quantile (sorted_windows t) 0.95);
    ("words_per_op", "words/op", per t.words ops);
    ("setup_s", "s", setup_s);
    ("peak_heap_mb", "MB", t.peak_heap_mb);
    ("sim_ops_s", "ops/s", per ops t.sim.sim_span);
    ("sim_lat_p50_ms", "ms", ms (Gen.quantile t.sim.lat 0.5));
    ("sim_lat_p999_ms", "ms", ms (Gen.quantile t.sim.lat 0.999));
  ]

let failed_frac (s : sim_result) = per (float_of_int s.failed) (float_of_int s.due)

(* Printed beside the gated metrics: failed_frac, and the unscaled host
   figures with the host slowdown that scaled them. *)
let ungated (t : timed) ~setup_raw_s =
  let raw = Array.copy t.raw_window_us in
  Array.sort Float.compare raw;
  [
    ("failed_frac", "ratio", failed_frac t.sim);
    ("wall_us_per_op_raw", "us/op", Gen.quantile raw 0.5);
    ("setup_s_raw", "s", setup_raw_s);
    ("host_slowdown", "ratio", t.slowdown);
  ]

(* Host times are scaled to the reference VM like the end-to-end ones:
   step and GC times by the probes beside the traced span, replay times
   by probes taken just before the replays. *)
let per_layer (t : timed) (x : traced) =
  let ops = float_of_int t.sim.ops and span = t.sim.sim_span in
  let traced_ns v = v *. x.factor and replay_ns v = v *. x.replay_factor in
  let kops = ops /. 1e3 in
  let d = Probe.delta x.pr x.s0 x.s1 in
  let u = Probe.util_max x.pr x.s0 x.s1 ~span in
  let role r = x.cap.Probe.calls.(Probe.role_index r) in
  let hop h q = ms (Gen.quantile x.hops.(h) q) in
  [
    ("gc.promoted_words_per_op", "words/op", per t.promoted ops);
    ("gc.major_collections_per_kop", "1/kop", per (float_of_int t.majors) kops);
    ("gc.live_growth_words_per_op", "words/op", per t.live_growth ops);
    ("gc.minor_ms_per_kop", "ms/kop", per (traced_ns (float_of_int x.gcp.Gc_phases.minor_ns) /. 1e6) kops);
    ("gc.major_ms_per_kop", "ms/kop", per (traced_ns (float_of_int x.gcp.Gc_phases.major_ns) /. 1e6) kops);
    ("sim.events_per_op", "events/op", per (float_of_int (x.steps.Steps.n - x.sentinels)) ops);
    ("sim.step_ns_p50", "ns", traced_ns (Steps.quantile x.steps 0.5));
    ("sim.step_ns_p99", "ns", traced_ns (Steps.quantile x.steps 0.99));
    ("net.packets_per_op", "pkt/op", per (d "net.packets") ops);
    ("net.bytes_per_op", "B/op", per (d "net.bytes") ops);
    ("net.drops", "count", d "net.drops");
    ("net.nic_util_max", "ratio", u "net.nic");
    ("proxy.pkts_per_op", "pkt/op", per (d "proxy.pkts") ops);
    ("proxy.meta_hit_ratio", "ratio", per (d "proxy.meta_hits") (d "proxy.meta_lookups"));
    ("proxy.meta_invalidations_per_op", "1/op", per (d "proxy.meta_invalidations") ops);
    ("proxy.dir_forwards_per_op", "1/op", per (d "proxy.dir_forwards") ops);
    ("proxy.attr_patches_per_op", "1/op", per (d "proxy.attr_patches") ops);
    ("proxy.commits_per_op", "1/op", per (d "proxy.commits") ops);
    ("proxy.map_fetches_per_op", "1/op", per (d "proxy.map_fetches") ops);
    ("proxy.mirror_dups_per_op", "1/op", per (d "proxy.mirror_dups") ops);
    ("proxy.stale_bounces", "count", d "proxy.stale_bounces");
    ("proxy.expired_pending", "count", d "proxy.expired_pending");
    ("proxy.replay_ns_per_pkt", "ns/pkt", replay_ns x.proxy_replay.Replay.ns);
    ("proxy.replay_words_per_pkt", "words/pkt", x.proxy_replay.Replay.words);
    ("nfs.decode_call_replay_ns", "ns", replay_ns x.codec_dec.Replay.ns);
    ("nfs.decode_call_replay_words", "words", x.codec_dec.Replay.words);
    ("nfs.encode_reply_replay_ns", "ns", replay_ns x.codec_enc.Replay.ns);
    ("nfs.encode_reply_replay_words", "words", x.codec_enc.Replay.words);
    ("storage.reqs_per_op", "1/op", per (float_of_int (role Probe.Storage)) ops);
    ("storage.cache_hit_ratio", "ratio", per (d "storage.hits") (d "storage.lookups"));
    ("storage.cpu_util_max", "ratio", u "storage.cpu");
    ("storage.cpu_wait_us_per_op", "us/op", per (d "storage.cpu_wait" *. 1e6) ops);
    ("storage.coord_intents_per_op", "1/op", per (d "storage.coord_intents") ops);
    ("disk.ops_per_op", "1/op", per (d "disk.ops") ops);
    ("disk.arm_util_max", "ratio", u "disk.arm");
    ("disk.channel_util_max", "ratio", u "disk.channel");
    ("dir.ops_per_op", "1/op", per (d "dir.ops") ops);
    ("dir.cross_site_ratio", "ratio", per (d "dir.cross") (d "dir.ops"));
    ("dir.cpu_util_max", "ratio", u "dir.cpu");
    ("dir.cpu_wait_us_per_op", "us/op", per (d "dir.cpu_wait" *. 1e6) ops);
    ("dir.log_bytes_per_op", "B/op", per (d "dir.log_bytes") ops);
    ("dir.site_imbalance", "ratio", Probe.site_imbalance x.s0 x.s1);
    ("smallfile.reqs_per_op", "1/op", per (float_of_int (role Probe.Smallfile_host)) ops);
    ("smallfile.cache_hit_ratio", "ratio", per (d "smallfile.hits") (d "smallfile.lookups"));
    ("smallfile.cpu_util_max", "ratio", u "smallfile.cpu");
    ("qos.deferrals_per_kop", "1/kop", per (d "qos.deferrals") kops);
    ("qos.p2c_divert_ratio", "ratio", per (d "qos.p2c_diverted") (d "qos.p2c_probes"));
    ("qos.web_queue_delay_p99_ms", "ms", ms x.web_qdelay_p99);
    ("qos.wfq_replay_ns", "ns", replay_ns x.wfq_replay.Replay.ns);
    ("client.retransmits_per_kop", "1/kop", per (d "client.retransmits") kops);
    ("client.cpu_util_max", "ratio", u "client.cpu");
    ("hop.proxy_ms_p50", "ms", hop 0 0.5);
    ("hop.network_ms_p50", "ms", hop 1 0.5);
    ("hop.server_ms_p50", "ms", hop 2 0.5);
    ("hop.disk_ms_p50", "ms", hop 3 0.5);
    ("hop.disk_ms_p99", "ms", hop 3 0.99);
    ("trace.overhead_ratio", "ratio", per x.t_span_ns t.span_ns);
  ]

(* ---- output ---- *)

let json_num v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v else Printf.sprintf "%.17g" v

(* The result line, keys in sorted order at every level. *)
let result_line ~correct ~attempted ~failed metrics =
  let metrics = List.sort (fun (a, _, _) (b, _, _) -> String.compare a b) metrics in
  Printf.sprintf "{\"attempted\": %d, \"correct\": %b, \"failed\": %d, \"metrics\": {%s}}" attempted correct failed
    (String.concat ", "
       (List.map
          (fun (n, u, v) -> Printf.sprintf "\"%s\": {\"unit\": \"%s\", \"value\": %s}" n u (json_num v))
          metrics))

let print_table title rows =
  Printf.printf "%s\n" title;
  List.iter (fun (n, u, v) -> Printf.printf "  %-32s %14.6g %s\n" n v u) rows

let median l =
  let a = Array.of_list l in
  Array.sort Float.compare a;
  Gen.quantile a 0.5

let () =
  let a = parse (List.tl (Array.to_list Sys.argv)) in
  let t = timed a in
  let s = t.sim in
  Printf.printf
    "workload %s seed %d: %d ops in %.3f simulated s over %d windows, %d latency samples, %.3f reference-VM host s\n"
    a.workload a.seed s.ops s.sim_span (windows a) (Array.length s.lat) (t.span_ns /. 1e9);
  let problems, metrics =
    if not a.trace then begin
      (* further set-ups, timed on their own; the median is reported *)
      Gc.compact ();
      let extra =
        List.init
          (setups a - 1)
          (fun _ ->
            let _, raw, secs = setup a in
            Gc.compact ();
            (raw, secs))
      in
      let rows = end_to_end t ~setup_s:(median (t.setup_s :: List.map snd extra)) in
      print_table "end-to-end" (rows @ ungated t ~setup_raw_s:(median (t.setup_raw_s :: List.map fst extra)));
      (s.problems, rows)
    end
    else begin
      Gc.compact ();
      let x = traced a in
      let rows = per_layer t x in
      print_table "per-layer (traced run)" rows;
      Printf.printf "server traffic in the measured span (packets/bytes received, sent; NFS calls received)\n";
      Array.iteri
        (fun i name ->
          if x.cap.Probe.rx_pkts.(i) + x.cap.Probe.tx_pkts.(i) > 0 then
            Printf.printf "  %-10s rx %d / %d B, tx %d / %d B, calls %d\n" name x.cap.Probe.rx_pkts.(i)
              x.cap.Probe.rx_bytes.(i) x.cap.Probe.tx_pkts.(i) x.cap.Probe.tx_bytes.(i) x.cap.Probe.calls.(i))
        Probe.role_names;
      if x.gcp.Gc_phases.lost > 0 then Printf.printf "warning: %d runtime events lost\n" x.gcp.Gc_phases.lost;
      let perturbed =
        if x.t_sim.fingerprint = s.fingerprint then []
        else [ "traced run's simulated outputs differ from the untraced run's" ]
      in
      (s.problems @ x.t_sim.problems @ perturbed, rows)
    end
  in
  List.iter (fun p -> prerr_endline ("check failed: " ^ p)) problems;
  let correct = problems = [] in
  print_endline (result_line ~correct ~attempted:(max 1 s.due) ~failed:s.failed metrics);
  exit (if correct then 0 else 1)
