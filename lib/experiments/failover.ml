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
module Fiber = Slice_sim.Fiber
module Nfs = Slice_nfs.Nfs
module Fh = Slice_nfs.Fh
module Prng = Slice_util.Prng
module Stats = Slice_util.Stats
module Json = Slice_util.Json
module Metrics = Slice_util.Metrics
module Rpc = Slice_net.Rpc
module Host = Slice_storage.Host
module Ctrl = Slice_storage.Ctrl
module Coordinator = Slice_storage.Coordinator
module Tenure = Slice_storage.Tenure
module Client = Slice_workload.Client
module Reconfig = Slice_reconfig.Reconfig
module Fo = Slice_failover.Failover
module Dirserver = Slice_dir.Dirserver
module Smallfile = Slice_smallfile.Smallfile
module Ensemble = Slice.Ensemble
module Proxy = Slice.Proxy

let small_bytes = 4096
let chunk = 32768
let big_chunks = 4

type entry = { e_dir : Fh.t; e_name : string; e_fh : Fh.t }

type fileset = { fs_dirs : Fh.t array; fs_small : entry array; fs_big : entry array }

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

type audit = { aud_checked : int; aud_lost : int; aud_ownership_violations : int }

type takeover = {
  tk_class : string;
  tk_victim : int;
  tk_standby : int;
  tk_sites : int;
  tk_detect : float;
  tk_mttr : float;
}

type t = {
  phases : phase list;
  takeovers : takeover list;
  zombies : zombie list;
  audit : audit;
  fence_invalidations : int;  (** µproxy cache flushes on epoch bumps *)
  heartbeats : int;
  lease_duration : float;
  fo_metrics : Json.t;
}

let build_fileset cl ~root ~proc ~small ~big =
  let fail what st = failwith ("failover setup " ^ what ^ ": " ^ Nfs.status_name st) in
  let top =
    match Client.mkdir cl root (Printf.sprintf "fo%02d" proc) with
    | Ok (fh, _) -> fh
    | Error st -> fail "mkdir" st
  in
  let ndirs = max 2 (small / 24) in
  let dirs =
    Array.init ndirs (fun i ->
        if i = 0 then top
        else
          match Client.mkdir cl top (Printf.sprintf "d%03d" i) with
          | Ok (fh, _) -> fh
          | Error st -> fail "mkdir2" st)
  in
  let fs_small =
    Array.init small (fun i ->
        let dir = dirs.(i mod ndirs) in
        let name = Printf.sprintf "f%04d" i in
        match Client.create_file cl dir name with
        | Ok (fh, _) ->
            ignore (Client.write_at cl fh ~off:0L ~data:(Nfs.Synthetic small_bytes) ());
            ignore (Client.commit cl fh);
            { e_dir = dir; e_name = name; e_fh = fh }
        | Error st -> fail "create" st)
  in
  let fs_big =
    Array.init big (fun i ->
        let name = Printf.sprintf "g%02d" i in
        match Client.create_file cl top name with
        | Ok (fh, _) ->
            for c = 0 to big_chunks - 1 do
              ignore
                (Client.write_at cl fh
                   ~off:(Int64.of_int (c * chunk))
                   ~data:(Nfs.Synthetic chunk) ())
            done;
            ignore (Client.commit cl fh);
            { e_dir = top; e_name = name; e_fh = fh }
        | Error st -> fail "create big" st)
  in
  { fs_dirs = dirs; fs_small; fs_big }

type op = O_lookup | O_getattr | O_readdir | O_sread | O_swrite | O_bread | O_bwrite | O_bcommit

let op_mix =
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

let pick_small prng fs =
  let n = Array.length fs.fs_small in
  let hot = max 1 (n / 5) in
  if Prng.float prng 1.0 < 0.8 then fs.fs_small.(Prng.int prng hot)
  else fs.fs_small.(Prng.int prng n)

let pick_big prng fs = fs.fs_big.(Prng.int prng (Array.length fs.fs_big))

(* chunks >= 2 sit above the small-file threshold: storage-class I/O *)
let big_off prng = Int64.of_int ((2 + Prng.int prng (big_chunks - 2)) * chunk)

let one_op cl prng fs =
  match Prng.weighted prng op_mix with
  | O_lookup ->
      let f = pick_small prng fs in
      Result.is_error (Client.lookup cl f.e_dir f.e_name)
  | O_getattr ->
      let f = pick_small prng fs in
      Result.is_error (Client.getattr cl f.e_fh)
  | O_readdir ->
      let d = fs.fs_dirs.(Prng.int prng (Array.length fs.fs_dirs)) in
      Result.is_error (Client.call cl (Nfs.Readdir (d, 0L, 24)))
  | O_sread ->
      let f = pick_small prng fs in
      Result.is_error (Client.read_at cl f.e_fh ~off:0L ~count:small_bytes)
  | O_swrite ->
      let f = pick_small prng fs in
      Result.is_error
        (Client.write_at cl f.e_fh ~off:0L ~data:(Nfs.Synthetic small_bytes) ())
  | O_bread ->
      let g = pick_big prng fs in
      Result.is_error (Client.read_at cl g.e_fh ~off:(big_off prng) ~count:chunk)
  | O_bwrite ->
      let g = pick_big prng fs in
      Result.is_error
        (Client.write_at cl g.e_fh ~off:(big_off prng) ~data:(Nfs.Synthetic chunk) ())
  | O_bcommit ->
      let g = pick_big prng fs in
      Result.is_error (Client.commit cl g.e_fh)

(* Post-run audit: the takeovers lost nothing — every acked name still
   resolves, every committed byte reads back, and every logical site of
   every class has exactly one owner, published by the routing table. *)
let run_audit rc cls (filesets : fileset array) =
  let checked = ref 0 and lost = ref 0 in
  Array.iteri
    (fun p fs ->
      let c = cls.(p) in
      Array.iter
        (fun f ->
          incr checked;
          (match Client.lookup c f.e_dir f.e_name with
          | Ok (fh, _) when Int64.equal fh.Fh.file_id f.e_fh.Fh.file_id -> ()
          | _ -> incr lost);
          incr checked;
          match Client.read_at c f.e_fh ~off:0L ~count:small_bytes with
          | Ok (d, _) when Nfs.wdata_length d = small_bytes -> ()
          | _ -> incr lost)
        fs.fs_small;
      Array.iter
        (fun g ->
          for ci = 0 to big_chunks - 1 do
            incr checked;
            match
              Client.read_at c g.e_fh ~off:(Int64.of_int (ci * chunk)) ~count:chunk
            with
            | Ok (d, _) when Nfs.wdata_length d = chunk -> ()
            | _ -> incr lost
          done)
        fs.fs_big)
    filesets;
  { aud_checked = !checked; aud_lost = !lost; aud_ownership_violations = List.length (Reconfig.ownership_violations rc) }

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
  let bucket = ref (-1) in
  let running = ref true in
  let zombies = ref [] in
  let audit = ref { aud_checked = 0; aud_lost = 0; aud_ownership_violations = 0 } in
  let old_coord = Option.get (Ensemble.coordinator ens) in
  Engine.spawn eng (fun () ->
      let filesets = Array.make clients None in
      Fiber.join_all eng
        (List.init clients (fun p () ->
             filesets.(p) <-
               Some (build_fileset cls.(p) ~root:Fh.root ~proc:p ~small ~big)));
      let filesets = Array.map Option.get filesets in
      (* Probe a revived victim directly (no µproxy): the lease it lost
         fences every request, and the mutation leaves no trace. *)
      let probe_zombie name addr fences check_absent =
        let h = Host.create net ~name:("zprobe-" ^ name) () in
        let zc = Client.create h ~server:addr () in
        let before = fences () in
        let blocked =
          match Client.mkdir zc Fh.root ("zombie-" ^ name) with
          | Error _ -> true
          | Ok _ -> false
        in
        let blocked = blocked && check_absent () in
        zombies :=
          {
            z_name = name;
            z_bounces = fences () - before;
            z_update_blocked = blocked;
          }
          :: !zombies
      in
      let window_phase i =
        let t0 = Engine.now eng in
        bucket := i;
        Engine.sleep eng window;
        bucket := -1;
        elapsed.(i) <- Engine.now eng -. t0
      in
      let controller () =
        window_phase 0;
        (* --- directory manager --- *)
        Ensemble.crash_dir ens 0;
        window_phase 1;
        let d0 = (Ensemble.dirs ens).(0) in
        Ensemble.recover_dir ens 0;
        probe_zombie "dir" (Dirserver.addr d0)
          (fun () -> Tenure.fence_bounces (Dirserver.tenure d0))
          (fun () ->
            Result.is_error (Client.lookup cls.(0) Fh.root "zombie-dir"));
        Fo.rejoin_dir fo 0;
        window_phase 2;
        (* --- small-file manager --- *)
        Ensemble.crash_smallfile ens 0;
        window_phase 3;
        let s0 = (Ensemble.smallfiles ens).(0) in
        Ensemble.recover_smallfile ens 0;
        probe_zombie "smallfile" (Smallfile.addr s0)
          (fun () -> Tenure.fence_bounces (Smallfile.tenure s0))
          (fun () ->
            Result.is_error (Client.lookup cls.(0) Fh.root "zombie-smallfile"));
        Fo.rejoin_smallfile fo 0;
        window_phase 4;
        (* --- block coordinator (lives on storage node 0) --- *)
        Ensemble.crash_storage ens 0;
        window_phase 5;
        Ensemble.recover_storage ens 0;
        (* the deposed coordinator instance answers again — fenced *)
        let h = Host.create net ~name:"zprobe-coord" () in
        let rpc = Rpc.create net h.Host.addr ~port:1902 in
        let before = Tenure.fence_bounces (Coordinator.tenure old_coord) in
        let nacked =
          let xid = Rpc.fresh_xid rpc in
          match
            Rpc.call rpc ~timeout:0.5 ~retries:2
              ~dst:(Coordinator.addr old_coord)
              ~dport:(Coordinator.port old_coord)
              (Ctrl.encode_msg ~xid (Ctrl.Complete { op_id = 0L }))
          with
          | reply -> snd (Ctrl.decode_reply reply) = Ctrl.Nack
          | exception Rpc.Timeout -> false
        in
        zombies :=
          {
            z_name = "coordinator";
            z_bounces = Tenure.fence_bounces (Coordinator.tenure old_coord) - before;
            z_update_blocked = nacked;
          }
          :: !zombies;
        window_phase 6;
        running := false
      in
      let worker p w () =
        let prng = Prng.create (seed + 131 + (p * 7919) + (w * 977)) in
        while !running do
          let ph = !bucket in
          let s = Engine.now eng in
          let err = one_op cls.(p) prng filesets.(p) in
          if ph >= 0 then begin
            Stats.add lat.(ph) (Engine.now eng -. s);
            ops.(ph) <- ops.(ph) + 1;
            if err then errs.(ph) <- errs.(ph) + 1
          end
        done
      in
      Fiber.join_all eng
        (controller
        :: List.concat (List.init clients (fun p -> List.init 2 (fun w -> worker p w))));
      (* audit before stopping the detector: it needs live leases *)
      audit := run_audit rc cls filesets;
      Fo.stop fo);
  Engine.run eng;
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
    takeovers =
      List.map
        (fun (e : Fo.event) ->
          {
            tk_class = e.Fo.ev_class;
            tk_victim = e.Fo.ev_victim;
            tk_standby = e.Fo.ev_standby;
            tk_sites = e.Fo.ev_sites;
            tk_detect = e.Fo.ev_detect;
            tk_mttr = e.Fo.ev_mttr;
          })
        (Fo.events fo);
    zombies = List.rev !zombies;
    audit = !audit;
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
  let audit_note =
    if t.audit.aud_lost = 0 && t.audit.aud_ownership_violations = 0 then
      Printf.sprintf "clean: %d checks, 0 lost, 0 ownership violations"
        t.audit.aud_checked
    else
      Printf.sprintf "FAILED: %d checks, %d lost, %d ownership violations"
        t.audit.aud_checked t.audit.aud_lost t.audit.aud_ownership_violations
  in
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
        "Post-run audit: " ^ audit_note ^ ".";
      ]
      @ List.map
          (fun tk ->
            Printf.sprintf
              "takeover %s: server %d -> %d, %d sites, detect %.0f ms, MTTR %.0f ms"
              tk.tk_class tk.tk_victim tk.tk_standby tk.tk_sites (ms tk.tk_detect)
              (ms tk.tk_mttr))
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
      ( "audit",
        Json.Obj
          [
            ("checked", num (float_of_int t.audit.aud_checked));
            ("lost", num (float_of_int t.audit.aud_lost));
            ( "ownership_violations",
              num (float_of_int t.audit.aud_ownership_violations) );
          ] );
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
                   ( "lat_ms",
                     Json.Obj
                       [
                         ("mean_ms", num (ms (Stats.mean p.ph_lat)));
                         ("n", num (float_of_int (Stats.count p.ph_lat)));
                         ("p50_ms", num (ms (Stats.percentile p.ph_lat 50.0)));
                         ("p95_ms", num (ms (Stats.percentile p.ph_lat 95.0)));
                       ] );
                   ("ops", num (float_of_int p.ph_ops));
                   ("ops_s", num p.ph_ops_s);
                 ])
             t.phases) );
      ("requests_lost", num (float_of_int t.audit.aud_lost));
      ( "takeovers",
        Json.Arr
          (List.map
             (fun tk ->
               Json.Obj
                 [
                   ("class", Json.Str tk.tk_class);
                   ("detect_ms", num (ms tk.tk_detect));
                   ("mttr_ms", num (ms tk.tk_mttr));
                   ("sites", num (float_of_int tk.tk_sites));
                   ("standby", num (float_of_int tk.tk_standby));
                   ("victim", num (float_of_int tk.tk_victim));
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

let report ?scale () = report_of (compute ?scale ())
