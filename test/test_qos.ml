(* Per-tenant QoS: the Zipf sampler's shape, WFQ scheduling invariants
   (work conservation, weight-proportional shares, equal-tag fairness),
   tenant-tag preservation across retransmit/supersede slot reuse, and
   storm-exhibit determinism. *)

open Helpers
module Engine = Slice_sim.Engine
module Prng = Slice_util.Prng
module Json = Slice_util.Json
module Tenant = Slice_qos.Tenant
module Bucket = Slice_qos.Bucket
module Wfq = Slice_qos.Wfq
module Zipf = Slice_workload.Zipf
module Nfs = Slice_nfs.Nfs
module Fh = Slice_nfs.Fh
module Codec = Slice_nfs.Codec
module Packet = Slice_net.Packet
module Net = Slice_net.Net
module Host = Slice_storage.Host
module Proxy = Slice.Proxy
module Params = Slice.Params
module Table = Slice.Table
module E = Slice_experiments

(* ---- Zipf sampler ---- *)

(* The mass oracle is a normalized power law and the empirical draw
   frequencies converge to it. *)
let zipf_shape () =
  let n = 40 in
  let z = Zipf.create ~n ~s:1.1 in
  check_int "n recorded" n (Zipf.n z);
  (* masses are a probability distribution, monotone decreasing in rank *)
  let total = ref 0.0 in
  for k = 0 to n - 1 do
    total := !total +. Zipf.mass z k;
    if k > 0 then
      check_bool
        (Printf.sprintf "mass decreasing at %d" k)
        true
        (Zipf.mass z k <= Zipf.mass z (k - 1))
  done;
  check_float_eps 1e-9 "masses sum to 1" 1.0 !total;
  check_float_eps 1e-9 "cumulative reaches 1" 1.0 (Zipf.cumulative z (n - 1));
  (* the power law itself: mass(0)/mass(1) = 2^s *)
  check_float_eps 1e-9 "power-law ratio" (2.0 ** 1.1) (Zipf.mass z 0 /. Zipf.mass z 1);
  (* empirical frequencies track the oracle *)
  let draws = 30_000 in
  let prng = Prng.create 7 in
  let hist = Array.make n 0 in
  for _ = 1 to draws do
    let k = Zipf.sample z prng in
    hist.(k) <- hist.(k) + 1
  done;
  for k = 0 to 4 do
    let emp = float_of_int hist.(k) /. float_of_int draws in
    let exp_ = Zipf.mass z k in
    check_bool
      (Printf.sprintf "rank %d empirical %.4f ~ %.4f" k emp exp_)
      true
      (Float.abs (emp -. exp_) < 0.01)
  done;
  (* s = 0 degenerates to uniform *)
  let u = Zipf.create ~n:10 ~s:0.0 in
  check_float_eps 1e-9 "s=0 uniform" 0.1 (Zipf.mass u 9)

let zipf_deterministic () =
  let z = Zipf.create ~n:100 ~s:0.9 in
  let seq seed = List.init 200 (fun _ -> 0) |> List.map (fun _ -> Zipf.sample z (Prng.create seed)) in
  ignore seq;
  let draw seed =
    let prng = Prng.create seed in
    List.init 200 (fun _ -> Zipf.sample z prng)
  in
  check_bool "same seed, same stream" true (draw 42 = draw 42);
  check_bool "different seed, different stream" true (draw 42 <> draw 43)

(* ---- WFQ scheduler ---- *)

let mk_wfq ?(depth = 1) weights =
  let eng = Engine.create () in
  let specs =
    Array.mapi (fun i w -> Tenant.spec ~name:(Printf.sprintf "t%d" i) ~weight:w ()) weights
  in
  let tenants = Tenant.create specs in
  (eng, Wfq.create eng ~tenants ~depth ())

(* A lone active tenant gets the server to itself: its tiny weight never
   strands capacity when the heavyweights are idle. *)
let wfq_work_conservation () =
  let eng, w = mk_wfq [| 0.1; 100.0; 100.0 |] in
  let jobs = 20 and service = 0.01 in
  let done_ = ref 0 in
  Engine.spawn eng (fun () ->
      for _ = 1 to jobs do
        Wfq.submit w ~tenant:0 ~cost:service (fun complete ->
            Engine.sleep eng service;
            incr done_;
            complete ())
      done);
  Engine.run eng;
  check_int "all jobs served" jobs !done_;
  check_int "all from the active tenant" jobs (Wfq.dispatched w 0);
  (* depth 1, back-to-back: the makespan is exactly jobs * service — no
     idle gaps waiting on the idle tenants' weight *)
  check_float_eps 1e-9 "no stranded capacity" (float_of_int jobs *. service) (Engine.now eng);
  check_int "backlog drained" 0 (Wfq.backlog w)

(* Under saturation, service shares are weight-proportional: 3:1 weights
   serve ~75%/25% of dispatches over any window. *)
let wfq_weight_shares () =
  let eng, w = mk_wfq [| 3.0; 1.0 |] in
  let service = 0.001 in
  let snap = ref (0, 0) in
  Engine.spawn eng (fun () ->
      for _ = 1 to 200 do
        Wfq.submit w ~tenant:0 ~cost:service (fun complete ->
            Engine.sleep eng service;
            complete ());
        Wfq.submit w ~tenant:1 ~cost:service (fun complete ->
            Engine.sleep eng service;
            complete ())
      done);
  Engine.spawn eng (fun () ->
      (* mid-run, both queues still saturated: 100 dispatches done *)
      Engine.sleep eng (100.0 *. service);
      snap := (Wfq.dispatched w 0, Wfq.dispatched w 1));
  Engine.run eng;
  let d0, d1 = !snap in
  check_int "window saturated" 100 (d0 + d1);
  check_bool (Printf.sprintf "3:1 shares (%d vs %d)" d0 d1) true (d0 >= 72 && d0 <= 78);
  check_int "work conserving overall" 400 (Wfq.total_dispatched w)

(* Regression: two equal-weight tenants submitting at the same instant
   interleave strictly — the lowest-id tie-break must not become
   head-of-line starvation, because serving one tenant pushes its next
   tag past the other's. *)
let wfq_equal_timestamp_fairness () =
  let eng, w = mk_wfq [| 1.0; 1.0 |] in
  let order = ref [] in
  Engine.spawn eng (fun () ->
      (* tenant 1 enqueues its whole burst first: FIFO dispatch would
         serve all of tenant 1 before tenant 0 touches the server *)
      for _ = 1 to 8 do
        Wfq.submit w ~tenant:1 ~cost:1.0 (fun complete ->
            order := 1 :: !order;
            Engine.sleep eng 0.001;
            complete ())
      done;
      for _ = 1 to 8 do
        Wfq.submit w ~tenant:0 ~cost:1.0 (fun complete ->
            order := 0 :: !order;
            Engine.sleep eng 0.001;
            complete ())
      done);
  Engine.run eng;
  let order = List.rev !order in
  check_int "all served" 16 (List.length order);
  (* equal tags must not become blockwise service: over every prefix the
     served counts stay within 2 of each other (serving the lower id on
     a tie pushes its next tag past the other's, forcing interleave) *)
  let c = [| 0; 0 |] in
  List.iter
    (fun t ->
      c.(t) <- c.(t) + 1;
      check_bool
        (Printf.sprintf "prefix balanced (%d vs %d)" c.(0) c.(1))
        true
        (abs (c.(0) - c.(1)) <= 2))
    order;
  check_int "even split" 8 c.(0)

(* ---- token bucket ---- *)

let bucket_refill () =
  let b = Bucket.create ~rate:10.0 ~burst:2.0 in
  check_bool "initial burst spendable" true (Bucket.try_take b ~now:0.0);
  check_bool "second token there" true (Bucket.try_take b ~now:0.0);
  check_bool "burst exhausted" false (Bucket.try_take b ~now:0.0);
  let wait = Bucket.next_ready b ~now:0.0 in
  check_bool "refill wait positive" true (wait > 0.0 && wait <= 0.1 +. 1e-9);
  check_bool "token back after the wait" true (Bucket.try_take b ~now:(0.0 +. wait));
  (* a long idle period refills to burst, not beyond *)
  check_bool "t1" true (Bucket.try_take b ~now:100.0);
  check_bool "t2" true (Bucket.try_take b ~now:100.0);
  check_bool "burst caps accrual" false (Bucket.try_take b ~now:100.0)

(* ---- tenant tag through the µproxy pending pool ---- *)

let reg_fh i =
  { Fh.file_id = Int64.of_int (1000 + i); gen = 1; ftype = Fh.Reg; mirrored = false;
    attr_site = 0; cap = 0L }

let mk_qos_proxy () =
  let eng = Engine.create () in
  let net = Net.create eng () in
  let chost = Host.create net ~name:"client" () in
  let dhost = Host.create net ~name:"dir" () in
  let vaddr = Net.add_node net ~name:"virt" in
  let tenants =
    Tenant.create
      [|
        Tenant.spec ~name:"system" ~weight:1.0 ();
        Tenant.spec ~name:"web" ~weight:8.0 ();
        Tenant.spec ~name:"scan" ~weight:1.0 ();
      |]
  in
  Tenant.bind_addr tenants ~addr:chost.Host.addr ~tenant:2;
  let proxy =
    Proxy.install chost
      ~params:
        { Params.default with threshold = 0; meta_cache_enabled = false; pending_sweep_interval = 0.0 }
      ~qos:{ Proxy.q_tenant = 2; q_tenants = tenants; q_admit = None; q_read_probe = None }
      {
        Proxy.virtual_addr = vaddr;
        dir_table = Table.create [| dhost.Host.addr |];
        smallfile_table = None;
        storage = None;
        coordinator = (fun () -> None);
      }
  in
  (eng, net, chost, dhost, vaddr, proxy, tenants)

(* The tenant tag stamped at interception survives a retransmit
   superseding the pending record in place, and the reply accounts the
   op to that tenant. *)
let tenant_survives_retransmit () =
  let eng, net, chost, dhost, vaddr, proxy, tenants = mk_qos_proxy () in
  let fh = reg_fh 1 in
  let attr = Nfs.default_attr ~ftype:Fh.Reg ~fileid:fh.Fh.file_id ~now:0.0 in
  let call = Nfs.Getattr fh and resp = Ok (Nfs.RGetattr attr) in
  let call_pkt ~xid =
    Packet.make ~src:chost.Host.addr ~dst:vaddr ~sport:1000 ~dport:2049
      (Codec.encode_call ~xid call)
  in
  run_on eng (fun () -> Net.send net (call_pkt ~xid:0x5151));
  check_bool "tag stamped at interception" true (Proxy.pending_tenant proxy ~xid:0x5151 = Some 2);
  (* the retransmit supersedes the record in place — same slot, tag kept *)
  run_on eng (fun () -> Net.send net (call_pkt ~xid:0x5151));
  check_int "slot reused" 1 (Proxy.pending_size proxy);
  check_bool "tag survives supersede" true (Proxy.pending_tenant proxy ~xid:0x5151 = Some 2);
  run_on eng (fun () ->
      Net.send net
        (Packet.make ~src:dhost.Host.addr ~dst:chost.Host.addr ~sport:2049 ~dport:1000
           (Codec.encode_reply ~xid:0x5151 resp)));
  check_bool "slot settled" true (Proxy.pending_tenant proxy ~xid:0x5151 = None);
  check_int "op accounted to the stamped tenant" 1 (Tenant.ops tenants 2);
  check_int "no bleed into other tenants" 0 (Tenant.ops tenants 0 + Tenant.ops tenants 1)

(* ---- storm exhibit ---- *)

(* Same seed, same artifact, byte for byte — the CI determinism gate in
   miniature. Also pins the isolation contract at the default scale (at
   smaller scales the FIFO run is too light for the ratio to hold): QoS
   holds the interactive p99 under the bound, keeps >= 95% of the FIFO
   aggregate, and both the admission gate and the p2c probe engage. *)
let storm_deterministic () =
  let t = E.Storm.compute () in
  check_string "run-twice byte-identical"
    (Json.to_string (E.Storm.json_of t))
    (Json.to_string (E.Storm.json_of (E.Storm.compute ())));
  let off = t.E.Storm.st_off and on = t.E.Storm.st_on in
  check_bool "measured ops on both sides" true
    (off.E.Storm.sd_total_ops > 0 && on.E.Storm.sd_total_ops > 0);
  let p99 = E.Storm.interactive_p99_ms on in
  check_bool
    (Printf.sprintf "interactive p99 %.1f ms within the %.0f ms bound" p99
       t.E.Storm.st_p99_bound_ms)
    true
    (p99 > 0.0 && p99 <= t.E.Storm.st_p99_bound_ms);
  check_bool
    (Printf.sprintf "aggregate throughput ratio %.3f >= 0.95" t.E.Storm.st_throughput_ratio)
    true
    (t.E.Storm.st_throughput_ratio >= 0.95);
  check_bool "admission gate engaged" true (on.E.Storm.sd_admission_deferrals > 0);
  check_bool "p2c read probe engaged" true (on.E.Storm.sd_p2c_probes > 0)

let suite =
  [
    ("zipf shape", `Quick, zipf_shape);
    ("zipf deterministic", `Quick, zipf_deterministic);
    ("wfq work conservation", `Quick, wfq_work_conservation);
    ("wfq weight shares", `Quick, wfq_weight_shares);
    ("wfq equal-timestamp fairness", `Quick, wfq_equal_timestamp_fairness);
    ("bucket refill", `Quick, bucket_refill);
    ("tenant survives retransmit", `Quick, tenant_survives_retransmit);
    ("storm deterministic", `Slow, storm_deterministic);
  ]
