open Helpers
module Engine = Slice_sim.Engine
module Nfs = Slice_nfs.Nfs
module Client = Slice_workload.Client
module Untar = Slice_workload.Untar
module Specsfs = Slice_workload.Specsfs
module Livemix = Slice_workload.Livemix
module Ensemble = Slice.Ensemble

let mk_dir_ensemble () =
  Ensemble.create
    {
      Ensemble.default_config with
      storage_nodes = 0;
      smallfile_servers = 0;
      dir_servers = 2;
      proxy_params = { Slice.Params.default with threshold = 0 };
    }

let untar_op_count () =
  let ens = mk_dir_ensemble () in
  let host, _ = Ensemble.add_client ens ~name:"c" in
  let cl = Client.create host ~server:(Ensemble.virtual_addr ens) () in
  let spec = { Untar.files = 130; dir_every = 13; fanout = 8 } in
  let elapsed =
    run_on (Ensemble.engine ens) (fun () -> Untar.run cl ~root:Ensemble.root ~name:"t" spec)
  in
  check_bool "time passed" true (elapsed > 0.0);
  (* 7 ops per file + 5 per dir; estimate matches the client's op count
     to within the estimate's rounding *)
  let est = Untar.ops_estimate spec in
  check_bool "op estimate accurate" true (abs (Client.ops_completed cl - est) <= 10);
  (* the only "errors" are the intended ENOENT lookup probes before each
     create: one per file and one per directory (incl. the top) *)
  let dirs_made = (spec.Untar.files / spec.Untar.dir_every) + 1 in
  check_int "only ENOENT probes" (spec.Untar.files + dirs_made) (Client.errors cl)

let untar_scaled_spec () =
  let s = Untar.scaled_spec 0.1 in
  check_int "files scaled" 3343 s.Untar.files;
  check_int "ratio kept" Untar.default_spec.Untar.dir_every s.Untar.dir_every;
  Alcotest.check_raises "zero scale rejected" (Invalid_argument "Untar.scaled_spec") (fun () ->
      ignore (Untar.scaled_spec 0.0))

let untar_names_isolated () =
  (* two processes untar side by side into distinct subtrees *)
  let ens = mk_dir_ensemble () in
  let eng = Ensemble.engine ens in
  let host, _ = Ensemble.add_client ens ~name:"c" in
  let spec = { Untar.files = 40; dir_every = 13; fanout = 8 } in
  let ok = ref 0 in
  Engine.spawn eng (fun () ->
      Slice_sim.Fiber.join_all eng
        (List.init 2 (fun p () ->
             let cl =
               Client.create host ~server:(Ensemble.virtual_addr ens) ~port:(1000 + p) ()
             in
             ignore (Untar.run cl ~root:Ensemble.root ~name:(Printf.sprintf "p%d" p) spec);
             incr ok)));
  Engine.run eng;
  check_int "both finished" 2 !ok

let client_sequential_io_stats () =
  let ens =
    Ensemble.create { Ensemble.default_config with storage_nodes = 2; smallfile_servers = 0;
                      proxy_params = { Slice.Params.default with threshold = 0 } }
  in
  let host, _ = Ensemble.add_client ens ~name:"c" in
  let cl = Client.create host ~server:(Ensemble.virtual_addr ens) () in
  run_on (Ensemble.engine ens) (fun () ->
      let fh = { Slice_nfs.Fh.root with Slice_nfs.Fh.file_id = 42L; ftype = Slice_nfs.Fh.Reg } in
      Client.sequential_write cl fh ~bytes:(Int64.of_int (32768 * 4));
      Client.sequential_read cl fh ~bytes:(Int64.of_int (32768 * 4)));
  (* 4 writes + commit + 4 reads *)
  check_bool "ops counted" true (Client.ops_completed cl >= 9)

let specsfs_sanity () =
  let ens = Ensemble.create { Ensemble.default_config with storage_nodes = 2 } in
  let eng = Ensemble.engine ens in
  let host, _ = Ensemble.add_client ens ~name:"c" in
  let clients = [| Client.create host ~server:(Ensemble.virtual_addr ens) () |] in
  let r =
    Specsfs.run eng ~clients ~root:Ensemble.root
      {
        Specsfs.default_config with
        offered_iops = 150.0;
        processes = 2;
        duration = 2.0;
        warmup = 0.5;
        bytes_per_iops = 20_000.0;
      }
  in
  check_bool "some files" true (r.Specsfs.fileset_files >= 20);
  check_bool "bytes accounted" true (Int64.compare r.Specsfs.fileset_bytes 0L > 0);
  check_bool "delivered near offered" true
    (r.Specsfs.delivered > 100.0 && r.Specsfs.delivered < 200.0);
  check_bool "latency sane" true (r.Specsfs.avg_latency_ms > 0.05 && r.Specsfs.avg_latency_ms < 50.0);
  check_int "no errors" 0 r.Specsfs.errors

let specsfs_saturation_degrades () =
  (* offered far beyond capacity: delivered plateaus below offered *)
  let ens = Ensemble.create { Ensemble.default_config with storage_nodes = 1; disks_per_node = 2 } in
  let eng = Ensemble.engine ens in
  let host, _ = Ensemble.add_client ens ~name:"c" in
  let clients = [| Client.create host ~server:(Ensemble.virtual_addr ens) () |] in
  let r =
    Specsfs.run eng ~clients ~root:Ensemble.root
      {
        Specsfs.default_config with
        offered_iops = 4000.0;
        processes = 4;
        duration = 1.5;
        warmup = 0.5;
        bytes_per_iops = 30_000.0;
      }
  in
  check_bool "saturated below offered" true (r.Specsfs.delivered < 3600.0)

(* The read-back audit is the live-load exhibits' only evidence of "0
   lost": it must come back clean on an intact file set and must count a
   file that an acked remove took away. *)
let livemix_audit_detects_loss () =
  let ens = Ensemble.create { Ensemble.default_config with storage_nodes = 2 } in
  let host, _ = Ensemble.add_client ens ~name:"c" in
  let cl = Client.create host ~server:(Ensemble.virtual_addr ens) () in
  let shape = { Livemix.prefix = "au"; nsmall = 16; nbig = 2; chunks = 4; nlinks = 0 } in
  let eng = Ensemble.engine ens in
  let clean, after =
    run_on eng (fun () ->
        let fs = Livemix.build_all eng [| cl |] shape in
        let clean = Livemix.audit [| cl |] fs in
        let victim = fs.(0).Livemix.small.(3) in
        (match Client.remove cl victim.Livemix.e_dir victim.Livemix.e_name with
        | Ok () -> ()
        | Error st -> Alcotest.failf "remove: %s" (Nfs.status_name st));
        (clean, Livemix.audit [| cl |] fs))
  in
  check_int "checked = 2 per small file + 1 per big chunk" ((2 * 16) + (2 * 4))
    clean.Livemix.checked;
  check_int "intact file set: 0 lost" 0 clean.Livemix.lost;
  check_int "same checks after the remove" clean.Livemix.checked after.Livemix.checked;
  check_bool
    (Printf.sprintf "removed file counted lost (%d)" after.Livemix.lost)
    true (after.Livemix.lost >= 1)

let suite =
  [
    ("livemix audit detects a lost file", `Quick, livemix_audit_detects_loss);
    ("untar op count", `Quick, untar_op_count);
    ("untar scaled spec", `Quick, untar_scaled_spec);
    ("untar parallel processes", `Quick, untar_names_isolated);
    ("client sequential io stats", `Quick, client_sequential_io_stats);
    ("specsfs sanity", `Slow, specsfs_sanity);
    ("specsfs saturation degrades", `Slow, specsfs_saturation_degrades);
  ]
