(* Direct routing-table coverage: version/snapshot semantics, idempotent
   updates, the fixed-site-count invariant, and µproxy snapshot refresh
   under repeated back-to-back reconfigurations. *)

open Helpers
module Fh = Slice_nfs.Fh
module Table = Slice.Table
module Ensemble = Slice.Ensemble
module Proxy = Slice.Proxy
module Client = Slice_workload.Client
module Reconfig = Slice_reconfig.Reconfig
module Routekey = Slice_nfs.Routekey

let test_version_snapshot () =
  let t = Table.create [| 10; 20; 10 |] in
  check_int "nsites" 3 (Table.nsites t);
  check_int "lookup" 20 (Table.lookup t 1);
  let map, v = Table.snapshot t in
  check_int "snapshot version" (Table.version t) v;
  (* the snapshot is a private copy: scribbling on it must not leak *)
  map.(1) <- 99;
  check_int "snapshot is a copy" 20 (Table.lookup t 1);
  Table.update t [| 10; 30; 10 |];
  check_int "update bumps version" (v + 1) (Table.version t);
  check_int "update rebinds" 30 (Table.lookup t 1)

let test_idempotent_update () =
  let t = Table.create [| 1; 2 |] in
  let v = Table.version t in
  Table.update t [| 1; 2 |];
  check_int "identical mapping: no bump" v (Table.version t);
  Table.update t [| 2; 1 |];
  check_int "changed mapping: bump" (v + 1) (Table.version t);
  Table.update t [| 2; 1 |];
  check_int "republish: no bump" (v + 1) (Table.version t)

let test_fixed_site_count () =
  let t = Table.create [| 1; 2 |] in
  (try
     Table.update t [| 1; 2; 3 |];
     Alcotest.fail "growing the site count must be rejected"
   with Invalid_argument _ -> ());
  check_int "table unchanged" 2 (Table.nsites t)

(* Back-to-back reconfigurations: two decommissions and two rebalances
   of the directory class with no settling time, live client in the
   loop. The µproxy must chase every move through SLICE_MISDIRECTED
   bounces, and a rebalance of an already-balanced class must publish
   nothing (no version bump — refresh storms are the failure mode the
   idempotent update exists to stop). *)
let test_proxy_refresh_back_to_back () =
  let ens =
    Ensemble.create
      {
        Ensemble.default_config with
        seed = 5;
        storage_nodes = 2;
        dir_servers = 2;
        smallfile_servers = 1;
        dir_sites = 4;
        proxy_params = { Slice.Params.default with meta_cache_ttl = 0.0 };
      }
  in
  let eng = Ensemble.engine ens in
  let rc = Reconfig.attach ens in
  let host, proxy = Ensemble.add_client ens ~name:"c0" in
  let cl = Client.create host ~server:(Ensemble.virtual_addr ens) () in
  run_on eng (fun () ->
      let fhs =
        List.init 12 (fun i ->
            let name = Printf.sprintf "f%02d" i in
            let fh, _ = ok_or_fail "create" (Client.create_file cl Fh.root name) in
            (name, fh))
      in
      let tbl = Ensemble.dir_table ens in
      let v0 = Table.version tbl in
      (* every name must keep resolving through the µproxy's lazily
         refreshed snapshots after each step *)
      let check_all () =
        List.iter
          (fun (name, fh) ->
            let fh', _ = ok_or_fail "lookup" (Client.lookup cl Fh.root name) in
            check_bool "same file" true
              (Int64.equal fh'.Fh.file_id fh.Fh.file_id))
          fhs
      in
      Reconfig.execute rc (Reconfig.Remove_server (Ensemble.Dir, 0));
      (* everything now lives on d1 while the µproxy's snapshot still
         names d0 for half the sites: the bounce path must fire *)
      check_all ();
      check_bool "proxy refreshed via bounces" true (Proxy.stale_bounces proxy > 0);
      Reconfig.execute rc Reconfig.Rebalance;
      check_all ();
      Reconfig.execute rc (Reconfig.Remove_server (Ensemble.Dir, 1));
      check_all ();
      Reconfig.execute rc Reconfig.Rebalance;
      check_all ();
      check_bool "moves published" true (Table.version tbl > v0);
      check_bool "sites moved" true (Reconfig.sites_moved rc > 0);
      let v1 = Table.version tbl in
      Reconfig.execute rc Reconfig.Rebalance;
      check_int "balanced class is a fixed point" v1 (Table.version tbl);
      check_all ())

(* The placement rule: the storage nodes that may hold a file's data,
   read through a map from logical storage sites to nodes. A mirrored
   file lives on the nodes of its two replica sites; an unmirrored file
   is striped over every site. Each node appears once. *)
let data_nodes map (fh : Fh.t) =
  let n = Array.length map in
  if n = 0 then []
  else if fh.Fh.mirrored then begin
    let r0, r1 = Routekey.mirror_sites ~nsites:n fh in
    if map.(r0) = map.(r1) then [ map.(r0) ] else [ map.(r0); map.(r1) ]
  end
  else List.sort_uniq Int.compare (Array.to_list map)

let file_fh ~mirrored id = { Fh.root with Fh.file_id = id; ftype = Fh.Reg; mirrored }

let test_placement_rule () =
  let fh = file_fh ~mirrored:true 77L in
  let r0, r1 = Routekey.mirror_sites ~nsites:4 fh in
  check_bool "replica sites differ" true (r0 <> r1);
  (* both replica sites on node 9, the other sites elsewhere *)
  let shared = Array.init 4 (fun i -> if i = r0 || i = r1 then 9 else 20 + i) in
  Alcotest.(check (list int)) "co-located replicas: the node once" [ 9 ] (data_nodes shared fh);
  let apart = [| 10; 11; 12; 13 |] in
  Alcotest.(check (list int))
    "replicas apart: primary then partner" [ apart.(r0); apart.(r1) ] (data_nodes apart fh);
  let plain = file_fh ~mirrored:false 77L in
  Alcotest.(check (list int))
    "unmirrored: every node once" [ 1; 2; 3 ] (data_nodes [| 3; 1; 3; 2; 1 |] plain);
  Alcotest.(check (list int)) "no storage sites" [] (data_nodes [||] fh)

(* The one implementation of the rule, shared by the µproxy and the
   directory servers' remove cleanup, agrees with the reference above on
   random mappings, including empty ones and nodes hosting several sites. *)
let data_nodes_matches_rule =
  qtest ~count:300 "Table.data_nodes follows the placement rule"
    QCheck2.Gen.(
      triple (array_size (int_range 0 8) (int_range 0 5)) (int_range 2 10_000) bool)
    (fun (map, id, mirrored) ->
      let fh = file_fh ~mirrored (Int64.of_int id) in
      Table.data_nodes map fh = data_nodes map fh)

let suite =
  [
    Alcotest.test_case "version and snapshot semantics" `Quick test_version_snapshot;
    Alcotest.test_case "idempotent update" `Quick test_idempotent_update;
    Alcotest.test_case "fixed site count" `Quick test_fixed_site_count;
    Alcotest.test_case "placement rule" `Quick test_placement_rule;
    data_nodes_matches_rule;
    Alcotest.test_case "proxy refresh under back-to-back reconfigurations" `Quick
      test_proxy_refresh_back_to_back;
  ]
