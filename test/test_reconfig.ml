(* Reconfiguration control-plane coverage: every server class shares one
   crash/recover/grow lifecycle, per-class migrations preserve data, a
   donor crash mid-copy aborts cleanly onto exactly one side, an
   abandoned intent is rolled back by recovery, and the scale-out
   exhibit is byte-deterministic. *)

open Helpers
module Engine = Slice_sim.Engine
module Net = Slice_net.Net
module Fh = Slice_nfs.Fh
module Nfs = Slice_nfs.Nfs
module Codec = Slice_nfs.Codec
module Routekey = Slice_nfs.Routekey
module Json = Slice_util.Json
module Obsd = Slice_storage.Obsd
module Tenure = Slice_storage.Tenure
module Smallfile = Slice_smallfile.Smallfile
module Dirserver = Slice_dir.Dirserver
module Table = Slice.Table
module Ensemble = Slice.Ensemble
module Client = Slice_workload.Client
module Reconfig = Slice_reconfig.Reconfig
module Fo = Slice_failover.Failover

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

(* Exactly-one-owner invariant, over every class: each logical site is
   owned by precisely one server, and its table publishes that owner. *)
let check_exclusive rc =
  match Reconfig.ownership_violations rc with
  | [] -> ()
  | vs ->
      Alcotest.failf "sites without exactly one published owner: %s"
        (String.concat ", "
           (List.map (fun (k, site, n) -> Printf.sprintf "%s site %d (%d owners)" k site n) vs))

(* One lifecycle for all three classes, through Ensemble: a crash downs
   the service and the host, recovery raises both, and a grown server
   joins owning no site without republishing its class table. *)
let test_server_lifecycle () =
  let ens =
    Ensemble.create
      {
        Ensemble.default_config with
        seed = 4;
        storage_nodes = 2;
        dir_servers = 2;
        smallfile_servers = 2;
      }
  in
  let net = Ensemble.net ens in
  run_on (Ensemble.engine ens) (fun () ->
      List.iter
        (fun k ->
          let name = Ensemble.klass_name k in
          check_bool (name ^ ": name round-trips") true (Ensemble.klass_of_name name = Some k);
          let up () = (Ensemble.is_up ens k 1, Net.node_up net (Ensemble.server_addr ens k 1)) in
          Ensemble.crash ens k 1;
          check_bool (name ^ ": crash downs service and host") true (up () = (false, false));
          Ensemble.recover ens k 1;
          check_bool (name ^ ": recover raises both") true (up () = (true, true));
          let tbl = Option.get (Ensemble.table ens k) in
          let v0 = Table.version tbl in
          check_int (name ^ ": add_server returns the old count") 2 (Ensemble.add_server ens k);
          check_int (name ^ ": one more server") 3 (Ensemble.servers ens k);
          check_bool (name ^ ": joins owning no site") true
            (Tenure.owned_sites (Ensemble.tenure ens k 2) = []);
          check_int (name ^ ": table not republished") v0 (Table.version tbl))
        [ Ensemble.Dir; Smallfile; Storage ];
      check_bool "unknown class name" true (Ensemble.klass_of_name "coordinator" = None));
  let fo = Fo.attach ens (Reconfig.attach ens) in
  Alcotest.check_raises "storage nodes do not rejoin"
    (Invalid_argument "Failover.rejoin: storage nodes are not managers")
    (fun () -> Fo.rejoin fo Storage 0);
  Fo.stop fo

let test_storage_migration () =
  let ens = mk_ens () in
  let rc = Reconfig.attach ens in
  let cl = mk_client ens "c0" in
  run_on (Ensemble.engine ens) (fun () ->
      let fhs = List.init 6 (fun i -> write_big cl ~name:(Printf.sprintf "g%d" i)) in
      let tbl = Option.get (Ensemble.storage_table ens) in
      let v0 = Table.version tbl in
      Reconfig.execute rc (Reconfig.Add_server Ensemble.Storage);
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
      check_exclusive rc)

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
      Reconfig.execute rc (Reconfig.Add_server Ensemble.Smallfile);
      check_bool "sites moved" true (Reconfig.sites_moved rc > 0);
      List.iter
        (fun fh ->
          match Client.read_at cl fh ~off:0L ~count:4096 with
          | Ok (d, _) when Nfs.wdata_length d = 4096 -> ()
          | _ -> Alcotest.fail "small file lost after migration")
        fhs;
      check_exclusive rc)

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
      Reconfig.execute rc (Reconfig.Add_server Ensemble.Dir);
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
      check_exclusive rc)

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
      Engine.schedule eng 0.05 (fun () -> Ensemble.crash ens Storage 1);
      Reconfig.execute rc (Reconfig.Remove_server (Ensemble.Storage, 1));
      check_bool "migrations attempted" true (Reconfig.migrations rc > 0);
      check_int "all aborted" (Reconfig.migrations rc) (Reconfig.aborted rc);
      check_int "none moved" 0 (Reconfig.sites_moved rc);
      let map1, v1 = Table.snapshot tbl in
      check_int "table version unchanged" v0 v1;
      check_bool "table mapping unchanged" true (map0 = map1);
      Ensemble.recover ens Storage 1;
      Engine.sleep eng 0.5;
      List.iter (fun fh -> read_big_ok cl fh) fhs;
      check_exclusive rc)

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
      Reconfig.execute ~abandon:`After_begin rc (Reconfig.Remove_server (Ensemble.Storage, 1));
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
      check_exclusive rc;
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
          (Metrics.value reg (key j) = float_of_int (Tenure.site_load (Smallfile.tenure sfs0.(0)) j))
      done;
      Reconfig.execute rc (Reconfig.Add_server Ensemble.Smallfile);
      let sfs = Ensemble.smallfiles ens in
      let moved = Tenure.owned_sites (Smallfile.tenure sfs.(1)) in
      check_bool "sites moved" true (moved <> []);
      List.iter
        (fun j ->
          (* commit reset the donor's row and re-registered the gauge *)
          check_int "donor load row reset" 0 (Tenure.site_load (Smallfile.tenure sfs.(0)) j);
          check_bool "gauge survives retirement" true (List.mem (key j) (Metrics.names reg));
          check_bool "retired gauge reads the receiver" true
            (Metrics.value reg (key j) = float_of_int (Tenure.site_load (Smallfile.tenure sfs.(1)) j)))
        moved;
      (* post-move traffic accrues to the receiver, and the gauges see it
         — none of it leaks back into the donor's rows *)
      List.iter
        (fun fh -> ignore (ok_or_fail "read" (Client.read_at cl fh ~off:0L ~count:4096)))
        fhs;
      let gauge_sum = List.fold_left (fun a j -> a +. Metrics.value reg (key j)) 0.0 moved in
      let recv_sum =
        List.fold_left (fun a j -> a + Tenure.site_load (Smallfile.tenure sfs.(1)) j) 0 moved
      in
      check_bool "receiver load visible through gauges" true (gauge_sum > 0.0);
      check_bool "gauges equal receiver rows" true (gauge_sum = float_of_int recv_sum);
      List.iter
        (fun j -> check_int "donor rows stay zero" 0 (Tenure.site_load (Smallfile.tenure sfs.(0)) j))
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
      let sites0 = Tenure.owned_sites (Dirserver.tenure dirs.(0)) in
      check_bool "victim owns sites" true (sites0 <> []);
      let epoch0 = Table.epoch tbl in
      Ensemble.crash ens Dir 0;
      let claimed = Reconfig.takeover rc Ensemble.Dir ~victim:0 ~standby:1 in
      check_int "every victim site claimed" (List.length sites0) claimed;
      check_int "exactly one epoch bump" (epoch0 + 1) (Table.epoch tbl);
      List.iter
        (fun j ->
          check_int "site rebound to the standby" (Ensemble.server_addr ens Dir 1) (Table.lookup tbl j);
          check_bool "standby owns it" true (Tenure.owns (Dirserver.tenure dirs.(1)) j))
        sites0;
      (* revive the victim as a zombie (expired lease, old epoch): the
         full namespace must still resolve — through the standby *)
      let tn0 = Dirserver.tenure dirs.(0) in
      Tenure.set_lease tn0 ~epoch:(Tenure.lease_epoch tn0) ~until:(Engine.now eng -. 1.0);
      Ensemble.recover ens Dir 0;
      List.iter
        (fun (n, fh) ->
          let fh', _ = ok_or_fail "lookup after takeover" (Client.lookup cl Fh.root n) in
          check_bool "same file" true (Int64.equal fh'.Fh.file_id fh.Fh.file_id))
        fhs;
      Alcotest.check_raises "storage takeover rejected"
        (Invalid_argument "Reconfig: storage sites are not dataless; cannot take over")
        (fun () -> ignore (Reconfig.takeover rc Ensemble.Storage ~victim:0 ~standby:1)))

(* Journal accounting for directory sites. A directory server journals
   each record once, for the logical site whose state it changes, so a
   site hand-over moves exactly that site's records. *)

(* Name-hashed directory sites, [dir_servers] servers over four sites:
   server [i] starts with sites [i], [i + dir_servers], ... *)
let mk_hashed_ens ~seed ~dir_servers =
  Ensemble.create
    {
      Ensemble.default_config with
      seed;
      storage_nodes = 2;
      dir_servers;
      smallfile_servers = 1;
      dir_sites = 4;
      smallfile_sites = 4;
      storage_sites = 4;
      proxy_params = { Slice.Params.default with name_policy = Slice_nfs.Routekey.Name_hashing };
    }

(* The first name [prefix ^ i] that hashes to directory site [site]. *)
let name_on ~parent prefix site =
  let rec go i =
    let n = prefix ^ string_of_int i in
    if Slice_nfs.Routekey.name_site ~nsites:4 parent n = site then n else go (i + 1)
  in
  go 0

(* A takeover of a two-site victim replays each of the victim's records
   once (the journal bytes it replays equal the victim's journal) and
   appends nothing to the standby's journal. *)
let test_takeover_replays_each_record_once () =
  let ens = mk_ens ~seed:14 ~dir_servers:2 () in
  let rc = Reconfig.attach ens in
  let cl = mk_client ens "c0" in
  run_on (Ensemble.engine ens) (fun () ->
      List.iter
        (fun i -> ignore (ok_or_fail "create" (Client.create_file cl Fh.root (Printf.sprintf "t%02d" i))))
        (List.init 16 Fun.id);
      let dirs = Ensemble.dirs ens in
      check_int "the victim owns two sites" 2
        (List.length (Tenure.owned_sites (Dirserver.tenure dirs.(0))));
      let victim = Dirserver.log_bytes dirs.(0) and standby = Dirserver.log_bytes dirs.(1) in
      Ensemble.crash ens Dir 0;
      check_int "both sites claimed" 2 (Reconfig.takeover rc Ensemble.Dir ~victim:0 ~standby:1);
      check_int "every victim record replayed once" victim (Int64.to_int (Reconfig.bytes_copied rc));
      check_int "no victim bytes appended at the standby" standby (Dirserver.log_bytes dirs.(1));
      List.iter
        (fun i ->
          ignore (ok_or_fail "lookup after takeover" (Client.lookup cl Fh.root (Printf.sprintf "t%02d" i))))
        (List.init 16 Fun.id))

(* Removing a two-site directory server moves each of its sites with the
   site's own journal: the two moves together copy the donor's journal
   once, not once per site. *)
let test_dir_move_copies_the_site_journal () =
  let ens = mk_hashed_ens ~seed:16 ~dir_servers:2 in
  let rc = Reconfig.attach ens in
  let cl = mk_client ens "c0" in
  run_on (Ensemble.engine ens) (fun () ->
      let on1 = name_on ~parent:Fh.root "a" 1 and on3 = name_on ~parent:Fh.root "b" 3 in
      let fh1, _ = ok_or_fail "create on site 1" (Client.create_file cl Fh.root on1) in
      ignore (ok_or_fail "create on site 3" (Client.create_file cl Fh.root on3));
      (* an update whose records all live at the donor forces its journal,
         commit records included *)
      ignore (ok_or_fail "setattr" (Client.setattr cl fh1 (Nfs.sattr_times ~mtime:7.0 ())));
      let donor = Dirserver.log_bytes (Ensemble.dirs ens).(1) in
      Reconfig.execute rc (Reconfig.Remove_server (Ensemble.Dir, 1));
      check_int "both donor sites moved" 2 (Reconfig.sites_moved rc);
      check_int "the donor's journal copied once" donor (Int64.to_int (Reconfig.bytes_copied rc));
      let cl' = mk_client ens "c1" in
      List.iter (fun n -> ignore (ok_or_fail "lookup after the move" (Client.lookup cl' Fh.root n))) [ on1; on3 ];
      check_exclusive rc)

(* No record lands on the moving site during the copy: a create that
   another of the donor's sites serves mid-copy, under a directory whose
   cell lives on the moving site, counts its entry only once the move has
   landed, at the receiver. *)
let test_dir_move_count_waits_for_the_receiver () =
  let ens = mk_hashed_ens ~seed:17 ~dir_servers:1 in
  let rc = Reconfig.attach ~bandwidth:2e3 ens in
  let cl = mk_client ens "c0" in
  let eng = Ensemble.engine ens in
  run_on eng (fun () ->
      let dirs =
        Array.init 4 (fun j -> fst (ok_or_fail "mkdir" (Client.mkdir cl Fh.root (name_on ~parent:Fh.root "d" j))))
      in
      Array.iteri (fun j (d : Fh.t) -> check_int "the directory's cell is on its site" j d.Fh.attr_site) dirs;
      let logged = ref None in
      Engine.spawn eng (fun () ->
          let tn = Dirserver.tenure (Ensemble.dirs ens).(0) in
          let rec draining () =
            match List.find_opt (Tenure.in_drain tn) (Tenure.owned_sites tn) with
            | Some a -> a
            | None ->
                Engine.sleep eng 1e-4;
                draining ()
          in
          let a = draining () in
          let name = name_on ~parent:dirs.(a) "late" ((a + 1) mod 4) in
          ignore (ok_or_fail "create during the copy" (Client.create_file cl dirs.(a) name));
          check_bool "the create answers after the move" false (Tenure.owns tn a);
          logged := Some (a, name));
      Reconfig.execute rc (Reconfig.Add_server Ensemble.Dir);
      let a, name =
        match !logged with Some v -> v | None -> Alcotest.fail "no site drained"
      in
      check_bool "the site moved" true (Tenure.owns (Dirserver.tenure (Ensemble.dirs ens).(1)) a);
      let cl' = mk_client ens "c1" in
      (match Client.getattr cl' dirs.(a) with
      | Ok attr -> check_int "the receiver counts the entry" 24 (Int64.to_int attr.Nfs.size)
      | Error st -> Alcotest.failf "getattr: %s" (Nfs.status_name st));
      ignore (ok_or_fail "lookup" (Client.lookup cl' dirs.(a) name));
      check_exclusive rc)

(* A committed move drops the site at the donor: the donor's cells and
   entries fall by the moved sites' share, which the receiver now holds,
   and a crash and recovery of either side gives the same counts. *)
let test_dir_move_drops_the_site_at_the_donor () =
  let ens = mk_hashed_ens ~seed:18 ~dir_servers:1 in
  let rc = Reconfig.attach ens in
  let cl = mk_client ens "c0" in
  run_on (Ensemble.engine ens) (fun () ->
      List.iter
        (fun i -> ignore (ok_or_fail "create" (Client.create_file cl Fh.root (Printf.sprintf "m%02d" i))))
        (List.init 24 Fun.id);
      let counts i =
        let d = (Ensemble.dirs ens).(i) in
        (Dirserver.attr_cell_count d, Dirserver.entry_count d)
      in
      let cells, entries = counts 0 in
      Reconfig.execute rc (Reconfig.Add_server Ensemble.Dir);
      check_bool "sites moved" true (Reconfig.sites_moved rc > 0);
      let donor = counts 0 and recv = counts 1 in
      check_bool "the donor lost the moved sites' entries" true (snd donor < entries && snd recv > 0);
      check_int "cells: donor + receiver" cells (fst donor + fst recv);
      check_int "entries: donor + receiver" entries (snd donor + snd recv);
      Ensemble.crash ens Dir 0;
      Ensemble.recover ens Dir 0;
      Ensemble.crash ens Dir 1;
      Ensemble.recover ens Dir 1;
      check_bool "the donor's counts survive its restart" true (counts 0 = donor);
      check_bool "the receiver's counts survive its restart" true (counts 1 = recv);
      check_exclusive rc)

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
  check_int "no lost updates" 0 t.S.audit.Slice_workload.Livemix.lost;
  check_int "no ownership violations" 0 t.S.ownership_violations;
  check_bool "sites moved" true (t.S.sites_moved > 0);
  let rates = List.map (fun (p : S.phase) -> p.S.ph_ops_s) t.S.phases in
  check_int "baseline + one phase per server class" 4 (List.length rates);
  let rec rising = function a :: (b :: _ as rest) -> a < b && rising rest | _ -> true in
  check_bool
    (Printf.sprintf "throughput rises after every addition (%s)"
       (String.concat " -> " (List.map (Printf.sprintf "%.0f") rates)))
    true (rising rates)

(* A small-file server's zone backend reads the storage table as it
   sends each chunk. While a storage site it stripes over moves, the
   donor bounces the zone writes aimed at the site; each goes again
   after a pause and lands at the site's new holder, and the small files
   written meanwhile read back byte for byte. The move copies at
   [bandwidth] bytes a second: the slower the copy, the longer the
   drain a zone write waits out. *)
let test_zone_io_across_storage_move ~bandwidth () =
  let ens = mk_ens ~seed:11 () in
  let eng = Ensemble.engine ens in
  let rc = Reconfig.attach ~bandwidth ens in
  let cl = mk_client ens "c0" in
  let net = Ensemble.net ens in
  let sf = Ensemble.server_addr ens Smallfile 0 in
  (* zone writes by xid: wire offset and destination *)
  let writes = Hashtbl.create 64 in
  let landed = ref [] and bounced = ref [] in
  Net.add_egress_filter net sf (fun pkt ->
      (match Codec.decode_call pkt.Slice_net.Packet.payload with
      | xid, Nfs.Write (_, woff, _, _) -> Hashtbl.replace writes xid (woff, pkt.Slice_net.Packet.dst)
      | _ | (exception Codec.Malformed _) -> ());
      Some pkt);
  Net.add_ingress_filter net sf (fun pkt ->
      let payload = pkt.Slice_net.Packet.payload in
      (match Hashtbl.find_opt writes (Codec.xid_of payload) with
      | Some w -> (
          match Codec.reply_status payload with
          | Nfs.ERR_MISDIRECTED -> bounced := w :: !bounced
          | _ -> landed := w :: !landed)
      | None -> ());
      Some pkt);
  let data i = String.init 3000 (fun k -> Char.chr (97 + ((i + k) mod 26))) in
  let files = ref [] in
  run_on eng (fun () ->
      (* bulk data on every storage site, so each move drains a while *)
      List.iter (fun i -> ignore (write_big cl ~name:(Printf.sprintf "g%d" i))) (List.init 8 Fun.id);
      Slice_sim.Fiber.fan_out eng 2 (fun j ->
          if j = 0 then Reconfig.execute rc (Reconfig.Add_server Ensemble.Storage)
          else
            for i = 0 to 59 do
              let fh, _ =
                ok_or_fail "create" (Client.create_file cl Fh.root (Printf.sprintf "s%02d" i))
              in
              ignore (ok_or_fail "write" (Client.write_at cl fh ~off:0L ~data:(Nfs.Data (data i)) ()));
              ok_or_fail "commit" (Client.commit cl fh);
              files := (fh, data i) :: !files
            done);
      check_bool "sites moved" true (Reconfig.sites_moved rc > 0);
      check_bool "the donor bounced zone writes" true (!bounced <> []);
      let st = Option.get (Ensemble.storage_table ens) in
      List.iter
        (fun (woff, donor) ->
          let holder = Table.lookup st (Routekey.offset_site_int (Int64.to_int woff)) in
          check_bool "the site moved away from the bouncing node" true (holder <> donor);
          check_bool "the bounced chunk landed at the new holder" true
            (List.mem (woff, holder) !landed))
        !bounced;
      List.iter
        (fun (fh, d) ->
          match Client.read_at cl fh ~off:0L ~count:3000 with
          | Ok (Nfs.Data got, _) -> check_string "small file reads back" d got
          | _ -> Alcotest.fail "small file read")
        !files);
  check_exclusive rc

let suite =
  [
    Alcotest.test_case "server lifecycle over every class" `Quick test_server_lifecycle;
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
    Alcotest.test_case "takeover replays each victim record once" `Quick
      test_takeover_replays_each_record_once;
    Alcotest.test_case "dir move copies the site's journal" `Quick
      test_dir_move_copies_the_site_journal;
    Alcotest.test_case "dir move: a count on the moving site waits for the receiver" `Quick
      test_dir_move_count_waits_for_the_receiver;
    Alcotest.test_case "dir move drops the site at the donor" `Quick
      test_dir_move_drops_the_site_at_the_donor;
    Alcotest.test_case "scale exhibit is byte-deterministic" `Quick
      test_scale_exhibit_deterministic;
    Alcotest.test_case "zone I/O across a storage-site move" `Quick
      (test_zone_io_across_storage_move ~bandwidth:2e6);
    Alcotest.test_case "zone I/O across a slow storage-site move" `Quick
      (test_zone_io_across_storage_move ~bandwidth:0.5e6);
  ]
