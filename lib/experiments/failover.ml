(* Failover exhibit: dataless manager takeover under live load.

   A redundant ensemble (3 storage / 2 dir / 2 small-file servers, 8
   logical sites per class) runs a mixed workload continuously while the
   chaos schedule kills one manager of each class in turn: a directory
   server, a small-file server, then storage node 0 — taking the block
   coordinator with it. The lease/heartbeat detector declares each
   victim dead, waits out the largest lease it ever granted, and a
   hot standby replays the victim's journal/intention log from shared
   storage and claims its sites under a bumped fencing epoch. Each
   victim is then revived as a zombie and probed directly: every request
   bounces with SLICE_MISDIRECTED (counted at the server), and a mkdir
   sent to the zombie provably creates nothing. Finally the victims
   rejoin as empty peers.

   The exhibit reports MTTR per takeover (first missed renewal to
   service restored) and requests lost (post-run audit: every acked
   name and byte readable, every site owned by exactly one server) —
   the target is zero. Deterministic end to end: same seed,
   byte-identical JSON. *)

module Engine = Slice_sim.Engine
module Fh = Slice_nfs.Fh
module Stats = Slice_util.Stats
module Json = Slice_util.Json
module Metrics = Slice_util.Metrics
module Rpc = Slice_net.Rpc
module Host = Slice_storage.Host
module Ctrl = Slice_storage.Ctrl
module Coordinator = Slice_storage.Coordinator
module Tenure = Slice_storage.Tenure
module Client = Slice_workload.Client
module Livemix = Slice_workload.Livemix
module Reconfig = Slice_reconfig.Reconfig
module Fo = Slice_failover.Failover
module Ensemble = Slice.Ensemble
module Proxy = Slice.Proxy

type phase = {
  ph_label : string;
  ph_ops : int;
  ph_ops_s : float;
  ph_lat : Stats.t;
  ph_errs : int;  (** client-visible NFS errors during the window *)
}

type zombie = {
  z_name : string;
  z_bounces : int;  (** fence bounces counted at the revived victim *)
  z_update_blocked : bool;  (** the mutation sent to the zombie left no trace *)
}

type t = {
  phases : phase list;
  takeovers : Fo.event list;
  zombies : zombie list;
  audit : Livemix.audit;
  ownership_violations : int;
  fence_invalidations : int;  (** µproxy cache flushes on epoch bumps *)
  heartbeats : int;
  lease_duration : float;
  fo_metrics : Json.t;
}

(* All three request classes, without access. *)
let op_mix =
  Livemix.
    [|
      (18.0, O_lookup);
      (12.0, O_getattr);
      (6.0, O_readdir);
      (20.0, O_sread);
      (14.0, O_swrite);
      (16.0, O_bread);
      (10.0, O_bwrite);
      (4.0, O_bcommit);
    |]

let compute ?(scale = 1.0) ?(seed = 42) () =
  let clients = 3 in
  let small = max 16 (int_of_float (48.0 *. scale)) in
  let big = max 2 (int_of_float (4.0 *. scale)) in
  let window = max 1.0 (1.2 *. scale) in
  let ens =
    Ensemble.create
      {
        Ensemble.default_config with
        seed;
        storage_nodes = 3;
        dir_servers = 2;
        smallfile_servers = 2;
        mirror_new_files = false;
        dir_sites = 8;
        smallfile_sites = 8;
        storage_sites = 8;
      }
  in
  let eng = Ensemble.engine ens in
  let net = Ensemble.net ens in
  let rc = Reconfig.attach ?trace:(Ensemble.trace ens) ens in
  let fo = Fo.attach ens rc in
  let cls =
    Array.init clients (fun i ->
        let host, _proxy = Ensemble.add_client ens ~name:(Printf.sprintf "fo%d" i) in
        Client.create host ~server:(Ensemble.virtual_addr ens) ())
  in
  let nphases = 7 in
  let labels =
    [|
      "baseline (2 dir / 2 smallfile / 3 storage)";
      "dir 0 killed: lease expiry, takeover by peer";
      "dir 0 rejoined as empty peer";
      "smallfile 0 killed: takeover by peer";
      "smallfile 0 rejoined as empty peer";
      "storage 0 killed: coordinator takeover";
      "storage 0 recovered";
    |]
  in
  let lat = Array.init nphases (fun _ -> Stats.create ()) in
  let ops = Array.make nphases 0 in
  let errs = Array.make nphases 0 in
  let elapsed = Array.make nphases 0.0 in
  let zombies = ref [] in
  let old_coord = Option.get (Ensemble.coordinator ens) in
  (* Probe a revived victim directly (no µproxy): the lease it lost
     fences every request, and the mutation leaves no trace. *)
  let probe_zombie (k, i) =
    let name = Ensemble.klass_name k in
    let fences () = Tenure.fence_bounces (Ensemble.tenure ens k i) in
    let h = Host.create net ~name:("zprobe-" ^ name) () in
    let zc = Client.create h ~server:(Ensemble.server_addr ens k i) () in
    let before = fences () in
    let blocked =
      match Client.mkdir zc Fh.root ("zombie-" ^ name) with
      | Error _ -> true
      | Ok _ -> false
    in
    let blocked =
      blocked && Result.is_error (Client.lookup cls.(0) Fh.root ("zombie-" ^ name))
    in
    zombies :=
      {
        z_name = name;
        z_bounces = fences () - before;
        z_update_blocked = blocked;
      }
      :: !zombies
  in
  let controller open_window =
    let window_phase i = elapsed.(i) <- open_window i in
    window_phase 0;
    (* --- directory, then small-file manager: kill, revive as a zombie,
       rejoin --- *)
    List.iteri
      (fun n k ->
        Ensemble.crash ens k 0;
        window_phase ((2 * n) + 1);
        Ensemble.recover ens k 0;
        probe_zombie (k, 0);
        Fo.rejoin fo k 0;
        window_phase ((2 * n) + 2))
      [ Ensemble.Dir; Smallfile ];
    (* --- block coordinator (lives on storage node 0) --- *)
    Ensemble.crash ens Storage 0;
    window_phase 5;
    Ensemble.recover ens Storage 0;
    (* the deposed coordinator instance answers again — fenced *)
    let h = Host.create net ~name:"zprobe-coord" () in
    let rpc = Rpc.create net h.Host.addr ~port:1902 in
    let before = Tenure.fence_bounces (Coordinator.tenure old_coord) in
    let nacked =
      let xid = Rpc.fresh_xid rpc in
      match
        Rpc.call rpc ~timeout:0.5 ~retries:2
          ~dst:(Coordinator.addr old_coord)
          ~dport:Ctrl.port
          (Ctrl.encode_msg ~xid (Ctrl.Complete { op_id = 0L }))
      with
      | reply -> Ctrl.decode_reply reply = Ctrl.Nack
      | exception Rpc.Timeout -> false
    in
    zombies :=
      {
        z_name = "coordinator";
        z_bounces = Tenure.fence_bounces (Coordinator.tenure old_coord) - before;
        z_update_blocked = nacked;
      }
      :: !zombies;
    window_phase 6
  in
  let on_op ~phase ~cls:_ ~failed dt =
    if phase >= 0 then begin
      Stats.add lat.(phase) dt;
      ops.(phase) <- ops.(phase) + 1;
      if failed then errs.(phase) <- errs.(phase) + 1
    end
  in
  (* 128 KB big files *)
  let shape = { Livemix.prefix = "fo"; nsmall = small; nbig = big; chunks = 4; nlinks = 0 } in
  let audit = ref None in
  Engine.spawn eng (fun () ->
      let a = Livemix.run eng cls shape op_mix ~seed ~window ~controller ~on_op in
      (* audit before stopping the detector: it needs live leases *)
      audit := Some (a, List.length (Reconfig.ownership_violations rc));
      Fo.stop fo);
  Engine.run eng;
  let audit, ownership_violations = Option.get !audit in
  let phases =
    List.init nphases (fun i ->
        {
          ph_label = labels.(i);
          ph_ops = ops.(i);
          ph_ops_s =
            (if elapsed.(i) > 0.0 then float_of_int ops.(i) /. elapsed.(i) else 0.0);
          ph_lat = lat.(i);
          ph_errs = errs.(i);
        })
  in
  {
    phases;
    takeovers = Fo.events fo;
    zombies = List.rev !zombies;
    audit;
    ownership_violations;
    fence_invalidations =
      List.fold_left
        (fun a p -> a + Proxy.fence_invalidations p)
        0
        (Ensemble.client_proxies ens);
    heartbeats = Fo.heartbeats fo;
    lease_duration = Fo.lease_duration fo;
    fo_metrics = Metrics.dump (Fo.metrics fo);
  }

let ms v = v *. 1e3

let report_of t =
  let zombie_note z =
    Printf.sprintf "%s zombie: %d fence bounces, update %s" z.z_name z.z_bounces
      (if z.z_update_blocked then "blocked" else "NOT BLOCKED")
  in
  {
    Report.title = "Failover: hot-standby takeover with fencing epochs";
    preamble =
      [
        "One manager of each class is killed under live load; the lease";
        "detector declares it dead, waits out the largest granted lease, and";
        "a standby replays its journal from shared storage and claims its";
        Printf.sprintf
          "sites under a bumped fencing epoch (lease %.0f ms, %d heartbeats)."
          (ms t.lease_duration) t.heartbeats;
        String.concat "; " (List.map zombie_note t.zombies) ^ ".";
        "Post-run audit: "
        ^ Livemix.audit_note t.audit ~ownership_violations:t.ownership_violations
        ^ ".";
      ]
      @ List.map
          (fun (e : Fo.event) ->
            Printf.sprintf
              "takeover %s: server %d -> %d, %d sites, %d bytes replayed, detect %.0f ms, MTTR %.0f ms"
              e.ev_class e.ev_victim e.ev_standby e.ev_sites e.ev_bytes (ms e.ev_detect)
              (ms e.ev_mttr))
          t.takeovers;
    rows =
      List.map
        (fun p ->
          Report.row ~label:p.ph_label ~paper:"-"
            ~measured:(Printf.sprintf "%.0f ops/s" p.ph_ops_s)
            ~note:
              (Printf.sprintf "p95 %.2f ms; %d ops; %d errors"
                 (ms (Stats.percentile p.ph_lat 95.0))
                 p.ph_ops p.ph_errs)
            ())
        t.phases;
  }

(* Deterministic artifact: field names sorted at every level, phases and
   takeovers in run order. *)
let json_of t =
  let num v = Json.Num v in
  Json.Obj
    [
      ("audit", Livemix.audit_json t.audit ~ownership_violations:t.ownership_violations);
      ("failover_metrics", t.fo_metrics);
      ("fence_invalidations", num (float_of_int t.fence_invalidations));
      ("heartbeats", num (float_of_int t.heartbeats));
      ("lease_duration_ms", num (ms t.lease_duration));
      ( "phases",
        Json.Arr
          (List.map
             (fun p ->
               Json.Obj
                 [
                   ("errors", num (float_of_int p.ph_errs));
                   ("label", Json.Str p.ph_label);
                   ("lat_ms", Livemix.lat_json p.ph_lat);
                   ("ops", num (float_of_int p.ph_ops));
                   ("ops_s", num p.ph_ops_s);
                 ])
             t.phases) );
      ("requests_lost", num (float_of_int t.audit.Livemix.lost));
      ( "takeovers",
        Json.Arr
          (List.map
             (fun (e : Fo.event) ->
               Json.Obj
                 [
                   ("class", Json.Str e.ev_class);
                   ("detect_ms", num (ms e.ev_detect));
                   ("mttr_ms", num (ms e.ev_mttr));
                   ("replayed_bytes", num (float_of_int e.ev_bytes));
                   ("sites", num (float_of_int e.ev_sites));
                   ("standby", num (float_of_int e.ev_standby));
                   ("victim", num (float_of_int e.ev_victim));
                 ])
             t.takeovers) );
      ( "zombies",
        Json.Arr
          (List.map
             (fun z ->
               Json.Obj
                 [
                   ("fence_bounces", num (float_of_int z.z_bounces));
                   ("name", Json.Str z.z_name);
                   ("update_blocked", Json.Bool z.z_update_blocked);
                 ])
             t.zombies) );
    ]
