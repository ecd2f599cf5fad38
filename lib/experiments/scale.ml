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
module Fiber = Slice_sim.Fiber
module Nfs = Slice_nfs.Nfs
module Fh = Slice_nfs.Fh
module Prng = Slice_util.Prng
module Stats = Slice_util.Stats
module Json = Slice_util.Json
module Metrics = Slice_util.Metrics
module Client = Slice_workload.Client
module Reconfig = Slice_reconfig.Reconfig
module Plan = Slice_reconfig.Plan
module Ensemble = Slice.Ensemble
module Proxy = Slice.Proxy

let small_bytes = 4096
let chunk = 32768 (* one stripe unit *)

let big_chunks = 8
(* 256 KB files; chunks >= 2 sit above the small-file threshold, so I/O
   there is storage-class *)

let classes = [| "name"; "smallfile"; "storage" |]

type entry = { e_dir : Fh.t; e_name : string; e_fh : Fh.t }

type fileset = {
  fs_dirs : Fh.t array;
  fs_small : entry array;
  fs_big : entry array;
}

type phase = {
  ph_label : string;
  ph_ops : int;
  ph_ops_s : float;
  ph_lat : Stats.t array;  (** per request class: name, smallfile, storage *)
  ph_stale : int;  (** µproxy bounce-refreshes during the window *)
  ph_drain : int;  (** donor drain bounces during the window *)
}

type audit = {
  aud_checked : int;
  aud_lost : int;
  aud_ownership_violations : int;
}

type t = {
  phases : phase list;
  trans_ops : int;  (** ops completed while a migration was in flight *)
  migrations : int;
  sites_moved : int;
  aborted : int;
  bytes_copied : int64;
  drain_bounces : int;
  audit : audit;
  rc_metrics : Json.t;  (** reconfig registry dump at end of run *)
}

let build_fileset cl ~root ~proc ~small ~big =
  let fail what st = failwith ("scale setup " ^ what ^ ": " ^ Nfs.status_name st) in
  let top =
    match Client.mkdir cl root (Printf.sprintf "sc%02d" proc) with
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
            ignore
              (Client.write_at cl fh ~off:0L ~data:(Nfs.Synthetic small_bytes) ());
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

(* Mix over the three request classes: enough weight on each that every
   server addition relieves a loaded class. *)
type op =
  | O_lookup
  | O_getattr
  | O_access
  | O_readdir
  | O_sread
  | O_swrite
  | O_bread
  | O_bwrite
  | O_bcommit

let op_mix =
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

(* 80/20 hot-set skew over the small files, as in the SPECsfs generator. *)
let pick_small prng fs =
  let n = Array.length fs.fs_small in
  let hot = max 1 (n / 5) in
  if Prng.float prng 1.0 < 0.8 then fs.fs_small.(Prng.int prng hot)
  else fs.fs_small.(Prng.int prng n)

let pick_big prng fs = fs.fs_big.(Prng.int prng (Array.length fs.fs_big))

(* big-file offsets stay at chunks >= 2: above the threshold, so the
   request is storage-class by construction *)
let big_off prng = Int64.of_int ((2 + Prng.int prng (big_chunks - 2)) * chunk)

(* Issue one op; returns the class index (0 name, 1 smallfile, 2 storage). *)
let one_op cl prng fs =
  match Prng.weighted prng op_mix with
  | O_lookup ->
      let f = pick_small prng fs in
      ignore (Client.lookup cl f.e_dir f.e_name);
      0
  | O_getattr ->
      let f = pick_small prng fs in
      ignore (Client.getattr cl f.e_fh);
      0
  | O_access ->
      let f = pick_small prng fs in
      ignore (Client.access cl f.e_fh);
      0
  | O_readdir ->
      let d = fs.fs_dirs.(Prng.int prng (Array.length fs.fs_dirs)) in
      ignore (Client.call cl (Nfs.Readdir (d, 0L, 24)));
      0
  | O_sread ->
      let f = pick_small prng fs in
      ignore (Client.read_at cl f.e_fh ~off:0L ~count:small_bytes);
      1
  | O_swrite ->
      let f = pick_small prng fs in
      ignore (Client.write_at cl f.e_fh ~off:0L ~data:(Nfs.Synthetic small_bytes) ());
      1
  | O_bread ->
      let g = pick_big prng fs in
      ignore (Client.read_at cl g.e_fh ~off:(big_off prng) ~count:chunk);
      2
  | O_bwrite ->
      let g = pick_big prng fs in
      ignore
        (Client.write_at cl g.e_fh ~off:(big_off prng) ~data:(Nfs.Synthetic chunk) ());
      2
  | O_bcommit ->
      let g = pick_big prng fs in
      ignore (Client.commit cl g.e_fh);
      2

(* Post-run audit: all data and names survive the reconfigurations, and
   the exactly-one-owner invariant holds for every logical site. *)
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
  {
    aud_checked = !checked;
    aud_lost = !lost;
    aud_ownership_violations = List.length (Reconfig.ownership_violations rc);
  }

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
  let plans =
    [|
      None;
      Some (Plan.Add_server Plan.Dir);
      Some (Plan.Add_server Plan.Storage);
      Some (Plan.Add_server Plan.Smallfile);
    |]
  in
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
  let bucket = ref (-1) in
  let running = ref true in
  let trans = ref 0 in
  let stale_now () =
    List.fold_left (fun a p -> a + Proxy.stale_bounces p) 0 (Ensemble.client_proxies ens)
  in
  let audit = ref { aud_checked = 0; aud_lost = 0; aud_ownership_violations = 0 } in
  Engine.spawn eng (fun () ->
      let filesets = Array.make clients None in
      Fiber.join_all eng
        (List.init clients (fun p () ->
             filesets.(p) <-
               Some (build_fileset cls.(p) ~root:Fh.root ~proc:p ~small ~big)));
      let filesets = Array.map Option.get filesets in
      let controller () =
        for i = 0 to nphases - 1 do
          (match plans.(i) with
          | None -> ()
          | Some pl -> Reconfig.execute rc pl);
          let s0 = stale_now () and d0 = Reconfig.drain_bounces rc in
          let t0 = Engine.now eng in
          bucket := i;
          Engine.sleep eng window;
          bucket := -1;
          elapsed.(i) <- Engine.now eng -. t0;
          stale.(i) <- stale_now () - s0;
          drain.(i) <- Reconfig.drain_bounces rc - d0
        done;
        running := false
      in
      let worker p w () =
        let prng = Prng.create (seed + 131 + (p * 7919) + (w * 977)) in
        while !running do
          let ph = !bucket in
          let s = Engine.now eng in
          let ci = one_op cls.(p) prng filesets.(p) in
          if ph >= 0 then begin
            Stats.add lat.(ph).(ci) (Engine.now eng -. s);
            ops.(ph) <- ops.(ph) + 1
          end
          else incr trans
        done
      in
      Fiber.join_all eng
        (controller
        :: List.concat
             (List.init clients (fun p -> List.init 2 (fun w -> worker p w))));
      audit := run_audit rc cls filesets);
  Engine.run eng;
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
    audit = !audit;
    rc_metrics = Metrics.dump (Reconfig.metrics rc);
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
        "while a migration was in flight. Post-run audit: " ^ audit_note ^ ".";
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
  let lat_json s =
    Json.Obj
      [
        ("mean_ms", num (ms (Stats.mean s)));
        ("n", num (float_of_int (Stats.count s)));
        ("p50_ms", num (ms (Stats.percentile s 50.0)));
        ("p95_ms", num (ms (Stats.percentile s 95.0)));
      ]
  in
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
                       (List.init 3 (fun i -> (classes.(i), lat_json p.ph_lat.(i))))
                   );
                   ("ops", num (float_of_int p.ph_ops));
                   ("ops_s", num p.ph_ops_s);
                   ("stale_bounces", num (float_of_int p.ph_stale));
                 ])
             t.phases) );
      ("reconfig_metrics", t.rc_metrics);
      ("sites_moved", num (float_of_int t.sites_moved));
    ]

let report ?scale () = report_of (compute ?scale ())
