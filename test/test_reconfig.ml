(* Reconfiguration control-plane coverage: per-class migrations preserve
   data, a donor crash mid-copy aborts cleanly onto exactly one side,
   an abandoned intent is rolled back by recovery, and the scale-out
   exhibit is byte-deterministic. *)

open Helpers
module Engine = Slice_sim.Engine
module Fh = Slice_nfs.Fh
module Nfs = Slice_nfs.Nfs
module Json = Slice_util.Json
module Obsd = Slice_storage.Obsd
module Smallfile = Slice_smallfile.Smallfile
module Dirserver = Slice_dir.Dirserver
module Table = Slice.Table
module Ensemble = Slice.Ensemble
module Client = Slice_workload.Client
module Reconfig = Slice_reconfig.Reconfig
module Plan = Slice_reconfig.Plan

let chunk = 32768
let big_chunks = 6 (* chunks >= 2 are storage-class (above the threshold) *)

let mk_ens ?(seed = 9) ?(dir_servers = 1) () =
  Ensemble.create
    {
      Ensemble.default_config with
      seed;
      storage_nodes = 2;
      dir_servers;
      smallfile_servers = 1;
      mirror_new_files = false;
      dir_sites = 4;
      smallfile_sites = 4;
      storage_sites = 4;
    }

let mk_client ens name =
  let host, _ = Ensemble.add_client ens ~name in
  Client.create host ~server:(Ensemble.virtual_addr ens) ()

let write_big cl ~name =
  let fh, _ = ok_or_fail "create" (Client.create_file cl Fh.root name) in
  for c = 0 to big_chunks - 1 do
    ignore
      (ok_or_fail "write"
         (Client.write_at cl fh ~off:(Int64.of_int (c * chunk))
            ~data:(Nfs.Synthetic chunk) ()))
  done;
  ok_or_fail "commit" (Client.commit cl fh);
  fh

let read_big_ok cl fh =
  for c = 0 to big_chunks - 1 do
    match Client.read_at cl fh ~off:(Int64.of_int (c * chunk)) ~count:chunk with
    | Ok (d, _) when Nfs.wdata_length d = chunk -> ()
    | Ok (d, _) -> Alcotest.failf "short read: %d" (Nfs.wdata_length d)
    | Error st -> Alcotest.failf "read: %s" (Nfs.status_name st)
  done

(* Exactly-one-owner invariant: every logical site of [table] is owned
   by precisely one server, and the table publishes that owner. *)
let check_exclusive ~what table owners addr_of n =
  for j = 0 to Table.nsites table - 1 do
    let os = List.filter (fun i -> List.mem j (owners i)) (List.init n Fun.id) in
    (match os with
    | [ o ] ->
        check_int
          (Printf.sprintf "%s site %d published owner" what j)
          (addr_of o) (Table.lookup table j)
    | _ ->
        Alcotest.failf "%s site %d owned by %d servers" what j (List.length os))
  done

let check_storage_exclusive ens =
  let tbl = Option.get (Ensemble.storage_table ens) in
  let sts = Ensemble.storage ens in
  check_exclusive ~what:"storage" tbl
    (fun i -> Obsd.owned_sites sts.(i))
    (fun i -> Obsd.addr sts.(i))
    (Array.length sts)

let test_storage_migration () =
  let ens = mk_ens () in
  let rc = Reconfig.attach ens in
  let cl = mk_client ens "c0" in
  run_on (Ensemble.engine ens) (fun () ->
      let fhs = List.init 6 (fun i -> write_big cl ~name:(Printf.sprintf "g%d" i)) in
      let tbl = Option.get (Ensemble.storage_table ens) in
      let v0 = Table.version tbl in
      Reconfig.execute rc (Plan.Add_server Plan.Storage);
      check_int "three storage nodes" 3 (Array.length (Ensemble.storage ens));
      check_bool "sites moved" true (Reconfig.sites_moved rc > 0);
      check_bool "table republished" true (Table.version tbl > v0);
      check_bool "bytes copied" true (Int64.compare (Reconfig.bytes_copied rc) 0L > 0);
      List.iter (fun fh -> read_big_ok cl fh) fhs;
      (* post-migration writes land on the new owners and read back *)
      List.iter
        (fun fh ->
          ignore
            (ok_or_fail "rewrite"
               (Client.write_at cl fh ~off:(Int64.of_int (3 * chunk))
                  ~data:(Nfs.Synthetic chunk) ()));
          read_big_ok cl fh)
        fhs;
      check_storage_exclusive ens)

let test_smallfile_migration () =
  let ens = mk_ens ~seed:10 () in
  let rc = Reconfig.attach ens in
  let cl = mk_client ens "c0" in
  run_on (Ensemble.engine ens) (fun () ->
      let fhs =
        List.init 20 (fun i ->
            let fh, _ =
              ok_or_fail "create"
                (Client.create_file cl Fh.root (Printf.sprintf "s%02d" i))
            in
            ignore
              (ok_or_fail "write"
                 (Client.write_at cl fh ~off:0L ~data:(Nfs.Synthetic 4096) ()));
            ok_or_fail "commit" (Client.commit cl fh);
            fh)
      in
      Reconfig.execute rc (Plan.Add_server Plan.Smallfile);
      check_bool "sites moved" true (Reconfig.sites_moved rc > 0);
      List.iter
        (fun fh ->
          match Client.read_at cl fh ~off:0L ~count:4096 with
          | Ok (d, _) when Nfs.wdata_length d = 4096 -> ()
          | _ -> Alcotest.fail "small file lost after migration")
        fhs;
      let tbl = Option.get (Ensemble.smallfile_table ens) in
      let sfs = Ensemble.smallfiles ens in
      check_exclusive ~what:"smallfile" tbl
        (fun i -> Smallfile.owned_sites sfs.(i))
        (fun i -> Smallfile.addr sfs.(i))
        (Array.length sfs))

let test_dir_migration () =
  let ens = mk_ens ~seed:11 () in
  let rc = Reconfig.attach ens in
  let cl = mk_client ens "c0" in
  run_on (Ensemble.engine ens) (fun () ->
      let top, _ = ok_or_fail "mkdir" (Client.mkdir cl Fh.root "home") in
      let names = List.init 30 (fun i -> Printf.sprintf "n%03d" i) in
      let fhs =
        List.map
          (fun n ->
            let fh, _ = ok_or_fail "create" (Client.create_file cl top n) in
            (n, fh))
          names
      in
      Reconfig.execute rc (Plan.Add_server Plan.Dir);
      check_bool "sites moved" true (Reconfig.sites_moved rc > 0);
      List.iter
        (fun (n, fh) ->
          let fh', _ = ok_or_fail "lookup" (Client.lookup cl top n) in
          check_bool "same file" true (Int64.equal fh'.Fh.file_id fh.Fh.file_id))
        fhs;
      (* fresh creates into migrated sites, then a cross-site readdir *)
      let extra = List.init 8 (fun i -> Printf.sprintf "x%02d" i) in
      List.iter (fun n -> ignore (ok_or_fail "create2" (Client.create_file cl top n))) extra;
      let entries = ok_or_fail "readdir" (Client.readdir_all cl top) in
      check_int "all entries visible" (30 + 8) (List.length entries);
      let dirs = Ensemble.dirs ens in
      check_exclusive ~what:"dir" (Ensemble.dir_table ens)
        (fun i -> Dirserver.owned_sites dirs.(i))
        (fun i -> Dirserver.addr dirs.(i))
        (Array.length dirs))

(* Chaos: crash the donor in the middle of the copy phase. Every
   in-flight and following migration must abort — the table never
   changes, the donor keeps the site (drains are volatile, so its crash
   cleared the bounce state), and after recovery the data is intact and
   every site has exactly one owner. *)
let test_donor_crash_mid_migration () =
  let ens = mk_ens ~seed:12 () in
  (* crawl-speed copies so the crash lands inside the transfer window *)
  let rc = Reconfig.attach ~bandwidth:1e4 ens in
  let cl = mk_client ens "c0" in
  let eng = Ensemble.engine ens in
  run_on eng (fun () ->
      let fhs = List.init 6 (fun i -> write_big cl ~name:(Printf.sprintf "g%d" i)) in
      let tbl = Option.get (Ensemble.storage_table ens) in
      let map0, v0 = Table.snapshot tbl in
      (* donor = node 1 (node 0 hosts the coordinator); crash it shortly
         after the first copy starts *)
      Engine.schedule eng 0.05 (fun () -> Ensemble.crash_storage ens 1);
      Reconfig.execute rc (Plan.Remove_server (Plan.Storage, 1));
      check_bool "migrations attempted" true (Reconfig.migrations rc > 0);
      check_int "all aborted" (Reconfig.migrations rc) (Reconfig.aborted rc);
      check_int "none moved" 0 (Reconfig.sites_moved rc);
      let map1, v1 = Table.snapshot tbl in
      check_int "table version unchanged" v0 v1;
      check_bool "table mapping unchanged" true (map0 = map1);
      Ensemble.recover_storage ens 1;
      Engine.sleep eng 0.5;
      List.iter (fun fh -> read_big_ok cl fh) fhs;
      check_storage_exclusive ens)

(* Control-plane crash: the fault-injection hook stops the first
   migration right after its Begin intent hits the log and the drain
   starts. recover must roll it back — drain lifted, ownership and
   table untouched — and be idempotent. *)
let test_abandoned_intent_recovery () =
  let ens = mk_ens ~seed:13 () in
  let rc = Reconfig.attach ens in
  let cl = mk_client ens "c0" in
  run_on (Ensemble.engine ens) (fun () ->
      let fhs = List.init 4 (fun i -> write_big cl ~name:(Printf.sprintf "g%d" i)) in
      let tbl = Option.get (Ensemble.storage_table ens) in
      let _, v0 = Table.snapshot tbl in
      Reconfig.execute ~abandon:`After_begin rc (Plan.Remove_server (Plan.Storage, 1));
      check_int "one migration started" 1 (Reconfig.migrations rc);
      check_int "none moved" 0 (Reconfig.sites_moved rc);
      check_int "not yet aborted" 0 (Reconfig.aborted rc);
      Reconfig.recover rc;
      check_int "intent rolled back" 1 (Reconfig.aborted rc);
      let _, v1 = Table.snapshot tbl in
      check_int "table untouched" v0 v1;
      (* drain lifted: mutations to the formerly draining site go through *)
      List.iter
        (fun fh ->
          ignore
            (ok_or_fail "write after recover"
               (Client.write_at cl fh ~off:(Int64.of_int (2 * chunk))
                  ~data:(Nfs.Synthetic chunk) ()));
          read_big_ok cl fh)
        fhs;
      check_storage_exclusive ens;
      Reconfig.recover rc;
      check_int "recover is idempotent" 1 (Reconfig.aborted rc))

(* A committed move must retire the donor-side load accounting: the
   donor's per-site load row is reset and the registry's
   [reconfig.load.*] gauge stops answering with the donor's pre-move
   values — it re-resolves the owner, so post-move traffic shows up
   under the receiver and nothing else. *)
let test_load_gauges_retired_on_commit () =
  let module Metrics = Slice_util.Metrics in
  let ens = mk_ens ~seed:15 () in
  let rc = Reconfig.attach ens in
  let cl = mk_client ens "c0" in
  run_on (Ensemble.engine ens) (fun () ->
      let fhs =
        List.init 20 (fun i ->
            let fh, _ =
              ok_or_fail "create"
                (Client.create_file cl Fh.root (Printf.sprintf "s%02d" i))
            in
            ignore
              (ok_or_fail "write"
                 (Client.write_at cl fh ~off:0L ~data:(Nfs.Synthetic 4096) ()));
            ok_or_fail "commit" (Client.commit cl fh);
            fh)
      in
      let reg = Reconfig.metrics rc in
      let key j = Printf.sprintf "reconfig.load.smallfile.%03d" j in
      let tbl = Option.get (Ensemble.smallfile_table ens) in
      let sfs0 = Ensemble.smallfiles ens in
      (* pre-move: every gauge answers with the (sole) owner's load *)
      for j = 0 to Table.nsites tbl - 1 do
        check_bool "gauge registered" true (List.mem (key j) (Metrics.names reg));
        check_bool "gauge reads the owner" true
          (Metrics.value reg (key j) = float_of_int (Smallfile.site_load sfs0.(0) j))
      done;
      Reconfig.execute rc (Plan.Add_server Plan.Smallfile);
      let sfs = Ensemble.smallfiles ens in
      let moved = Smallfile.owned_sites sfs.(1) in
      check_bool "sites moved" true (moved <> []);
      List.iter
        (fun j ->
          (* commit reset the donor's row and re-registered the gauge *)
          check_int "donor load row reset" 0 (Smallfile.site_load sfs.(0) j);
          check_bool "gauge survives retirement" true (List.mem (key j) (Metrics.names reg));
          check_bool "retired gauge reads the receiver" true
            (Metrics.value reg (key j) = float_of_int (Smallfile.site_load sfs.(1) j)))
        moved;
      (* post-move traffic accrues to the receiver, and the gauges see it
         — none of it leaks back into the donor's rows *)
      List.iter
        (fun fh -> ignore (ok_or_fail "read" (Client.read_at cl fh ~off:0L ~count:4096)))
        fhs;
      let gauge_sum = List.fold_left (fun a j -> a +. Metrics.value reg (key j)) 0.0 moved in
      let recv_sum =
        List.fold_left (fun a j -> a + Smallfile.site_load sfs.(1) j) 0 moved
      in
      check_bool "receiver load visible through gauges" true (gauge_sum > 0.0);
      check_bool "gauges equal receiver rows" true (gauge_sum = float_of_int recv_sum);
      List.iter
        (fun j -> check_int "donor rows stay zero" 0 (Smallfile.site_load sfs.(0) j))
        moved)

(* Hot-standby takeover as a direct control-plane call: every site of
   the dead victim is claimed, the class table rebinds them to the
   standby under exactly one fencing-epoch bump, and the namespace
   survives. Storage is refused — its sites are not dataless. *)
let test_takeover_claims_victim_sites () =
  let ens = mk_ens ~seed:14 ~dir_servers:2 () in
  let rc = Reconfig.attach ens in
  let cl = mk_client ens "c0" in
  let eng = Ensemble.engine ens in
  run_on eng (fun () ->
      let names = List.init 16 (fun i -> Printf.sprintf "t%02d" i) in
      let fhs =
        List.map
          (fun n ->
            let fh, _ = ok_or_fail "create" (Client.create_file cl Fh.root n) in
            (n, fh))
          names
      in
      let dirs = Ensemble.dirs ens in
      let tbl = Ensemble.dir_table ens in
      let sites0 = Dirserver.owned_sites dirs.(0) in
      check_bool "victim owns sites" true (sites0 <> []);
      let epoch0 = Table.epoch tbl in
      Ensemble.crash_dir ens 0;
      let claimed = Reconfig.takeover rc Plan.Dir ~victim:0 ~standby:1 in
      check_int "every victim site claimed" (List.length sites0) claimed;
      check_int "exactly one epoch bump" (epoch0 + 1) (Table.epoch tbl);
      List.iter
        (fun j ->
          check_int "site rebound to the standby" (Dirserver.addr dirs.(1)) (Table.lookup tbl j);
          check_bool "standby owns it" true (List.mem j (Dirserver.owned_sites dirs.(1))))
        sites0;
      (* revive the victim as a zombie (expired lease, old epoch): the
         full namespace must still resolve — through the standby *)
      Dirserver.set_lease dirs.(0) ~epoch:(Dirserver.lease_epoch dirs.(0))
        ~until:(Engine.now eng -. 1.0);
      Ensemble.recover_dir ens 0;
      List.iter
        (fun (n, fh) ->
          let fh', _ = ok_or_fail "lookup after takeover" (Client.lookup cl Fh.root n) in
          check_bool "same file" true (Int64.equal fh'.Fh.file_id fh.Fh.file_id))
        fhs;
      Alcotest.check_raises "storage takeover rejected"
        (Invalid_argument "Reconfig: storage sites are not dataless; cannot take over")
        (fun () -> ignore (Reconfig.takeover rc Plan.Storage ~victim:0 ~standby:1)))

(* The exhibit is deterministic: same seed, byte-identical JSON. It must
   also show a clean audit, real migrations, and throughput rising after
   every server addition. *)
let test_scale_exhibit_deterministic () =
  let module S = Slice_experiments.Scale in
  let run () = S.compute ~scale:0.05 ~seed:21 () in
  let t = run () in
  check_string "byte-identical scale report"
    (Json.to_string (S.json_of t))
    (Json.to_string (S.json_of (run ())));
  check_int "no lost updates" 0 t.S.audit.S.aud_lost;
  check_int "no ownership violations" 0 t.S.audit.S.aud_ownership_violations;
  check_bool "sites moved" true (t.S.sites_moved > 0);
  let rates = List.map (fun (p : S.phase) -> p.S.ph_ops_s) t.S.phases in
  check_int "baseline + one phase per server class" 4 (List.length rates);
  let rec rising = function a :: (b :: _ as rest) -> a < b && rising rest | _ -> true in
  check_bool
    (Printf.sprintf "throughput rises after every addition (%s)"
       (String.concat " -> " (List.map (Printf.sprintf "%.0f") rates)))
    true (rising rates)

let suite =
  [
    Alcotest.test_case "storage site migration preserves data" `Quick
      test_storage_migration;
    Alcotest.test_case "smallfile site migration preserves data" `Quick
      test_smallfile_migration;
    Alcotest.test_case "dir site migration preserves namespace" `Quick
      test_dir_migration;
    Alcotest.test_case "donor crash mid-migration aborts onto one side" `Quick
      test_donor_crash_mid_migration;
    Alcotest.test_case "abandoned intent rolled back by recover" `Quick
      test_abandoned_intent_recovery;
    Alcotest.test_case "load gauges retired on commit" `Quick
      test_load_gauges_retired_on_commit;
    Alcotest.test_case "takeover claims victim sites" `Quick
      test_takeover_claims_victim_sites;
    Alcotest.test_case "scale exhibit is byte-deterministic" `Quick
      test_scale_exhibit_deterministic;
  ]
