(* Scale-out exhibit: online reconfiguration under live load.

   A small ensemble (2 storage / 1 dir / 1 small-file server, 8 logical
   sites per class) runs a SPECsfs-flavoured mix continuously while the
   control plane grows each class by one server, rebalancing logical
   sites onto the newcomers with the full drain/copy/commit machinery.
   Four measurement windows — baseline, then one after each addition —
   show delivered throughput and per-class latency; ops issued while a
   migration is in flight are counted separately (service never stops).
   A post-run audit then proves no update was lost or duplicated: every
   created name still resolves, every byte written reads back at full
   length, and every logical site is owned by exactly one server whose
   address the routing table publishes.

   Deterministic end to end: same seed, byte-identical JSON. *)

module Engine = Slice_sim.Engine
module Stats = Slice_util.Stats
module Json = Slice_util.Json
module Metrics = Slice_util.Metrics
module Client = Slice_workload.Client
module Livemix = Slice_workload.Livemix
module Reconfig = Slice_reconfig.Reconfig
module Ensemble = Slice.Ensemble
module Proxy = Slice.Proxy

type phase = {
  ph_label : string;
  ph_ops : int;
  ph_ops_s : float;
  ph_lat : Stats.t array;  (** per request class: name, smallfile, storage *)
  ph_stale : int;  (** µproxy bounce-refreshes during the window *)
  ph_drain : int;  (** donor drain bounces during the window *)
}

type t = {
  phases : phase list;
  trans_ops : int;  (** ops completed while a migration was in flight *)
  migrations : int;
  sites_moved : int;
  aborted : int;
  bytes_copied : int64;
  drain_bounces : int;
  audit : Livemix.audit;
  ownership_violations : int;
  rc_metrics : Json.t;  (** reconfig registry dump at end of run *)
}

(* Mix over the three request classes: enough weight on each that every
   server addition relieves a loaded class. *)
let op_mix =
  Livemix.
    [|
      (15.0, O_lookup);
      (10.0, O_getattr);
      (7.0, O_access);
      (8.0, O_readdir);
      (18.0, O_sread);
      (12.0, O_swrite);
      (16.0, O_bread);
      (10.0, O_bwrite);
      (4.0, O_bcommit);
    |]

let compute ?(scale = 1.0) ?(seed = 42) () =
  let clients = 4 in
  let small = max 16 (int_of_float (64.0 *. scale)) in
  let big = max 2 (int_of_float (6.0 *. scale)) in
  let window = max 0.8 (4.0 *. scale) in
  let ens =
    Ensemble.create
      {
        Ensemble.default_config with
        seed;
        storage_nodes = 2;
        dir_servers = 1;
        smallfile_servers = 1;
        mirror_new_files = false;
        dir_sites = 8;
        smallfile_sites = 8;
        storage_sites = 8;
      }
  in
  let eng = Ensemble.engine ens in
  let rc = Reconfig.attach ?trace:(Ensemble.trace ens) ens in
  let cls =
    Array.init clients (fun i ->
        let host, _proxy =
          Ensemble.add_client ens ~name:(Printf.sprintf "sc%d" i)
        in
        Client.create host ~server:(Ensemble.virtual_addr ens) ())
  in
  let nphases = 4 in
  (* the class grown before each window *)
  let grows = [| None; Some Ensemble.Dir; Some Storage; Some Smallfile |] in
  let labels =
    [|
      "baseline (1 dir / 2 storage / 1 smallfile)";
      "+1 directory server";
      "+1 storage node";
      "+1 small-file server";
    |]
  in
  let lat = Array.init nphases (fun _ -> Array.init 3 (fun _ -> Stats.create ())) in
  let ops = Array.make nphases 0 in
  let elapsed = Array.make nphases 0.0 in
  let stale = Array.make nphases 0 in
  let drain = Array.make nphases 0 in
  let trans = ref 0 in
  let stale_now () =
    List.fold_left (fun a p -> a + Proxy.stale_bounces p) 0 (Ensemble.client_proxies ens)
  in
  let controller open_window =
    for i = 0 to nphases - 1 do
      Option.iter (fun k -> Reconfig.execute rc (Add_server k)) grows.(i);
      let s0 = stale_now () and d0 = Reconfig.drain_bounces rc in
      elapsed.(i) <- open_window i;
      stale.(i) <- stale_now () - s0;
      drain.(i) <- Reconfig.drain_bounces rc - d0
    done
  in
  let on_op ~phase ~cls ~failed:_ dt =
    if phase >= 0 then begin
      Stats.add lat.(phase).(cls) dt;
      ops.(phase) <- ops.(phase) + 1
    end
    else incr trans
  in
  (* 256 KB big files *)
  let shape = { Livemix.prefix = "sc"; nsmall = small; nbig = big; chunks = 8; nlinks = 0 } in
  let audit = ref None in
  Engine.spawn eng (fun () ->
      let a = Livemix.run eng cls shape op_mix ~seed ~window ~controller ~on_op in
      audit := Some (a, List.length (Reconfig.ownership_violations rc)));
  Engine.run eng;
  let audit, ownership_violations = Option.get !audit in
  let phases =
    List.init nphases (fun i ->
        {
          ph_label = labels.(i);
          ph_ops = ops.(i);
          ph_ops_s =
            (if elapsed.(i) > 0.0 then float_of_int ops.(i) /. elapsed.(i)
             else 0.0);
          ph_lat = lat.(i);
          ph_stale = stale.(i);
          ph_drain = drain.(i);
        })
  in
  {
    phases;
    trans_ops = !trans;
    migrations = Reconfig.migrations rc;
    sites_moved = Reconfig.sites_moved rc;
    aborted = Reconfig.aborted rc;
    bytes_copied = Reconfig.bytes_copied rc;
    drain_bounces = Reconfig.drain_bounces rc;
    audit;
    ownership_violations;
    rc_metrics = Metrics.dump (Reconfig.metrics rc);
  }

let ms v = v *. 1e3

let report_of t =
  {
    Report.title = "Scale-out: online reconfiguration under live SPECsfs-style load";
    preamble =
      [
        "Four windows: baseline, then one after each server addition. Sites";
        "migrate with drain/copy/commit while the mix keeps running; µproxies";
        "chase the moved sites via SLICE_MISDIRECTED bounces. p95 latency is";
        "per request class (name / smallfile / storage), in ms.";
        Printf.sprintf
          "%d migrations moved %d sites (%Ld bytes, %d aborted); %d ops completed"
          t.migrations t.sites_moved t.bytes_copied t.aborted t.trans_ops;
        "while a migration was in flight. Post-run audit: "
        ^ Livemix.audit_note t.audit ~ownership_violations:t.ownership_violations
        ^ ".";
      ];
    rows =
      List.map
        (fun p ->
          Report.row ~label:p.ph_label ~paper:"-"
            ~measured:(Printf.sprintf "%.0f ops/s" p.ph_ops_s)
            ~note:
              (Printf.sprintf
                 "p95 name %.2f / sf %.2f / st %.2f; %d ops; %d stale, %d drain bounces"
                 (ms (Stats.percentile p.ph_lat.(0) 95.0))
                 (ms (Stats.percentile p.ph_lat.(1) 95.0))
                 (ms (Stats.percentile p.ph_lat.(2) 95.0))
                 p.ph_ops p.ph_stale p.ph_drain)
            ())
        t.phases;
  }

(* Deterministic artifact: field names sorted at every level, phases in
   run order, per-class latency keyed by class name. *)
let json_of t =
  let num v = Json.Num v in
  Json.Obj
    [
      ("audit", Livemix.audit_json t.audit ~ownership_violations:t.ownership_violations);
      ("bytes_copied", num (Int64.to_float t.bytes_copied));
      ("drain_bounces", num (float_of_int t.drain_bounces));
      ("migrations", num (float_of_int t.migrations));
      ("migrations_aborted", num (float_of_int t.aborted));
      ("ops_during_migration", num (float_of_int t.trans_ops));
      ( "phases",
        Json.Arr
          (List.map
             (fun p ->
               Json.Obj
                 [
                   ("drain_bounces", num (float_of_int p.ph_drain));
                   ("label", Json.Str p.ph_label);
                   ( "lat_ms",
                     Json.Obj
                       (List.init 3 (fun i ->
                            (Livemix.classes.(i), Livemix.lat_json p.ph_lat.(i))))
                   );
                   ("ops", num (float_of_int p.ph_ops));
                   ("ops_s", num p.ph_ops_s);
                   ("stale_bounces", num (float_of_int p.ph_stale));
                 ])
             t.phases) );
      ("reconfig_metrics", t.rc_metrics);
      ("sites_moved", num (float_of_int t.sites_moved));
    ]
