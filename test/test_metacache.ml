(* µproxy metadata fast path: the cache must be invisible except in cost.
   Every test drives a real ensemble through the client stack and checks
   (a) hits genuinely bypass the directory servers and (b) no mutation —
   local, cross-client past the lease, or under a chaos schedule — can
   make a cached answer stale. *)

open Helpers
module Engine = Slice_sim.Engine
module Net = Slice_net.Net
module Nfs = Slice_nfs.Nfs
module Fh = Slice_nfs.Fh
module Client = Slice_workload.Client
module Ensemble = Slice.Ensemble
module Proxy = Slice.Proxy
module Dirserver = Slice_dir.Dirserver
module Tenure = Slice_storage.Tenure
module Reconfig = Slice_reconfig.Reconfig

let check_int64 = Alcotest.(check int64)
let root = Ensemble.root

let mk ?(ttl = 2.0) ?(capacity = 4096) ?(seed = 7) ?(dir_servers = 2) () =
  Ensemble.create
    {
      Ensemble.default_config with
      seed;
      storage_nodes = 2;
      smallfile_servers = 0;
      dir_servers;
      proxy_params =
        { Slice.Params.default with meta_cache_ttl = ttl; name_cache_capacity = capacity };
    }

let client ens name =
  let host, proxy = Ensemble.add_client ens ~name in
  (Client.create host ~server:(Ensemble.virtual_addr ens) (), proxy)

(* ---- hits are served at the proxy ---- *)

let hit_avoids_dir_ops () =
  let ens = mk () in
  let eng = Ensemble.engine ens in
  let cl, proxy = client ens "c0" in
  run_on eng (fun () ->
      let fh, _ = ok_or_fail "create" (Client.create_file cl root "hot") in
      ignore (ok_or_fail "warm" (Client.lookup cl root "hot"));
      let d0 = Ensemble.dir_ops_served ens in
      for _ = 1 to 10 do
        let fh', _ = ok_or_fail "lookup" (Client.lookup cl root "hot") in
        check_int64 "same file" fh.Fh.file_id fh'.Fh.file_id;
        ignore (ok_or_fail "getattr" (Client.getattr cl fh));
        ignore (ok_or_fail "access" (Client.access cl fh))
      done;
      check_int "no dir traffic on hits" d0 (Ensemble.dir_ops_served ens);
      let st = Proxy.meta_cache_stats proxy in
      check_bool "hits counted" true (st.Proxy.hits >= 30))

let negative_entry_then_create () =
  let ens = mk () in
  let eng = Ensemble.engine ens in
  let cl, proxy = client ens "c0" in
  run_on eng (fun () ->
      expect_err "first miss hits server" Nfs.ERR_NOENT (Client.lookup cl root "ghost");
      let d1 = Ensemble.dir_ops_served ens in
      expect_err "negative cached" Nfs.ERR_NOENT (Client.lookup cl root "ghost");
      check_int "NOENT served at proxy" d1 (Ensemble.dir_ops_served ens);
      check_bool "negative hit counted" true
        ((Proxy.meta_cache_stats proxy).Proxy.negative_hits >= 1);
      (* create must kill the negative entry synchronously *)
      let fh, _ = ok_or_fail "create" (Client.create_file cl root "ghost") in
      let fh', _ = ok_or_fail "post-create lookup" (Client.lookup cl root "ghost") in
      check_int64 "resolves to new file" fh.Fh.file_id fh'.Fh.file_id)

let ttl_zero_disables () =
  let ens = mk ~ttl:0.0 () in
  let eng = Ensemble.engine ens in
  let cl, proxy = client ens "c0" in
  run_on eng (fun () ->
      let fh, _ = ok_or_fail "create" (Client.create_file cl root "f") in
      let d0 = Ensemble.dir_ops_served ens in
      ignore (ok_or_fail "lookup" (Client.lookup cl root "f"));
      ignore (ok_or_fail "getattr" (Client.getattr cl fh));
      check_bool "every op reached the servers" true (Ensemble.dir_ops_served ens >= d0 + 2);
      let st = Proxy.meta_cache_stats proxy in
      check_int "no hits" 0 st.Proxy.hits;
      check_int "no misses either: fast path off" 0 st.Proxy.misses)

(* ---- write-through invalidation ---- *)

let rename_coherence () =
  let ens = mk () in
  let eng = Ensemble.engine ens in
  let cl, _ = client ens "c0" in
  run_on eng (fun () ->
      let fh, _ = ok_or_fail "create" (Client.create_file cl root "a") in
      ignore (ok_or_fail "warm" (Client.lookup cl root "a"));
      ok_or_fail "rename" (Client.rename cl root "a" root "b");
      expect_err "old name gone immediately" Nfs.ERR_NOENT (Client.lookup cl root "a");
      let fh', _ = ok_or_fail "new name" (Client.lookup cl root "b") in
      check_int64 "same file behind new name" fh.Fh.file_id fh'.Fh.file_id)

let remove_coherence () =
  let ens = mk () in
  let eng = Ensemble.engine ens in
  let cl, _ = client ens "c0" in
  run_on eng (fun () ->
      let fh, _ = ok_or_fail "create" (Client.create_file cl root "gone") in
      ignore (ok_or_fail "warm name" (Client.lookup cl root "gone"));
      ignore (ok_or_fail "warm attr" (Client.getattr cl fh));
      ok_or_fail "remove" (Client.remove cl root "gone");
      expect_err "name gone immediately" Nfs.ERR_NOENT (Client.lookup cl root "gone");
      (* the attr entry was dropped too: a getattr must consult the
         server, not answer Ok from a corpse *)
      let d0 = Ensemble.dir_ops_served ens in
      (match Client.getattr cl fh with
      | Ok _ | Error _ -> ());
      check_bool "getattr went to the server" true (Ensemble.dir_ops_served ens > d0))

let setattr_coherence () =
  let ens = mk () in
  let eng = Ensemble.engine ens in
  let cl, _ = client ens "c0" in
  run_on eng (fun () ->
      let fh, _ = ok_or_fail "create" (Client.create_file cl root "s") in
      ignore (ok_or_fail "warm attr" (Client.getattr cl fh));
      ignore (ok_or_fail "setattr" (Client.setattr cl fh (Nfs.sattr_size 12345L)));
      let a = ok_or_fail "getattr after setattr" (Client.getattr cl fh) in
      check_int64 "size is the truncated size" 12345L a.Nfs.size)

(* ---- leases bound cross-client staleness ---- *)

let ttl_expiry_refetches () =
  let ens = mk ~ttl:1.0 () in
  let eng = Ensemble.engine ens in
  let cl, proxy = client ens "c0" in
  run_on eng (fun () ->
      ignore (ok_or_fail "create" (Client.create_file cl root "t"));
      ignore (ok_or_fail "warm" (Client.lookup cl root "t"));
      let d0 = Ensemble.dir_ops_served ens in
      ignore (ok_or_fail "cached" (Client.lookup cl root "t"));
      check_int "within lease: proxy answers" d0 (Ensemble.dir_ops_served ens);
      Engine.sleep eng 1.5;
      ignore (ok_or_fail "expired" (Client.lookup cl root "t"));
      check_bool "past lease: server answers" true (Ensemble.dir_ops_served ens > d0);
      check_bool "stale counted" true ((Proxy.meta_cache_stats proxy).Proxy.stale >= 1))

let cross_client_staleness_bounded () =
  let ens = mk ~ttl:1.0 () in
  let eng = Ensemble.engine ens in
  let ca, _ = client ens "a" in
  let cb, _ = client ens "b" in
  run_on eng (fun () ->
      ignore (ok_or_fail "create" (Client.create_file ca root "x"));
      ignore (ok_or_fail "a warms its cache" (Client.lookup ca root "x"));
      (* b's remove invalidates b's proxy; a's entry survives — but only
         until its lease runs out (NFS close-to-open: a window no wider
         than the TTL is permitted, and beyond it truth is restored) *)
      ok_or_fail "b removes" (Client.remove cb root "x");
      Engine.sleep eng 1.5;
      expect_err "a sees the remove after the lease" Nfs.ERR_NOENT (Client.lookup ca root "x"))

(* ---- chaos: coherence must hold under loss and a dir-server crash ---- *)

let chaos_coherence () =
  let ens = mk ~seed:23 () in
  let eng = Ensemble.engine ens in
  let cl, _ = client ens "c0" in
  (* the schedule runs beside the closed-loop workload below, so the
     crash does not wait on it *)
  Slice.Fault.install ens
    [
      (0.0, Net (Net.Loss 0.05));
      (0.05, Crash (Server (Dir, 1)));
      (1.05, Recover (Server (Dir, 1)));
    ];
  run_on eng (fun () ->
      for i = 1 to 30 do
        let name = Printf.sprintf "f%03d" i in
        let fh, _ = ok_or_fail "create" (Client.create_file cl root name) in
        ignore (ok_or_fail "setattr" (Client.setattr cl fh (Nfs.sattr_size (Int64.of_int i))));
        let a = ok_or_fail "getattr" (Client.getattr cl fh) in
        check_int64 "attr never stale" (Int64.of_int i) a.Nfs.size;
        let name' = Printf.sprintf "g%03d" i in
        ok_or_fail "rename" (Client.rename cl root name root name');
        expect_err "old name never stale" Nfs.ERR_NOENT (Client.lookup cl root name);
        let fh', _ = ok_or_fail "new name resolves" (Client.lookup cl root name') in
        check_int64 "same file" fh.Fh.file_id fh'.Fh.file_id;
        ok_or_fail "remove" (Client.remove cl root name');
        expect_err "removed name never stale" Nfs.ERR_NOENT (Client.lookup cl root name')
      done;
      (* every op above was individually asserted; the client's error
         counter also includes our intentional NOENT probes, so it is not
         checked here *)
      check_bool "chaos actually bit" true (Client.retransmissions cl > 0))

(* ---- fencing: an epoch bump must flush every cached incarnation ---- *)

let fence_epoch_invalidation () =
  (* a TTL far longer than the test: without fencing these entries would
     stay live across the takeover and serve answers minted by a deposed
     directory server *)
  let ens = mk ~ttl:60.0 () in
  let eng = Ensemble.engine ens in
  let rc = Reconfig.attach ens in
  let cl, proxy = client ens "c0" in
  run_on eng (fun () ->
      let names = List.init 12 (Printf.sprintf "f%02d") in
      let fhs =
        List.map
          (fun n ->
            let fh, _ = ok_or_fail "create" (Client.create_file cl root n) in
            ignore (ok_or_fail "warm" (Client.lookup cl root n));
            (n, fh))
          names
      in
      let d0 = Ensemble.dir_ops_served ens in
      List.iter (fun (n, _) -> ignore (ok_or_fail "hit" (Client.lookup cl root n))) fhs;
      check_int "warm cache serves hits" d0 (Ensemble.dir_ops_served ens);
      (* dir 0 dies; dir 1 claims its sites under a bumped fencing epoch;
         the victim then revives as a zombie still holding its old,
         expired lease *)
      let dirs = Ensemble.dirs ens in
      let tn0 = Dirserver.tenure dirs.(0) in
      let epoch0 = Tenure.lease_epoch tn0 in
      Ensemble.crash ens Dir 0;
      let moved = Reconfig.takeover rc Ensemble.Dir ~victim:0 ~standby:1 in
      check_bool "victim owned sites" true (moved > 0);
      Tenure.set_lease tn0 ~epoch:epoch0 ~until:(Engine.now eng -. 1.0);
      Ensemble.recover ens Dir 0;
      (* the proxy's table still routes the moved sites at the zombie:
         the first mutation it bounces forces a table refresh, the epoch
         advance flushes the metadata caches, and the retry lands on the
         successor — the client sees only success *)
      List.iter
        (fun n -> ignore (ok_or_fail "create after takeover" (Client.create_file cl root (n ^ "x"))))
        names;
      check_bool "zombie bounced the stale route" true (Tenure.fence_bounces tn0 > 0);
      check_bool "epoch bump flushed the caches" true (Proxy.fence_invalidations proxy >= 1);
      (* flushed entries refetch from the live server — and still resolve
         to the same files, so the flush lost nothing *)
      let d1 = Ensemble.dir_ops_served ens in
      List.iter
        (fun (n, fh) ->
          let fh', _ = ok_or_fail "post-fence lookup" (Client.lookup cl root n) in
          check_int64 "same file after failover" fh.Fh.file_id fh'.Fh.file_id)
        fhs;
      check_bool "flushed entries hit the server again" true (Ensemble.dir_ops_served ens > d1))

(* ---- eviction keeps dirty state ---- *)

(* An uncommitted write leaves its size only in the µproxy's attribute
   cache. Creating more files than the cache holds evicts that entry;
   the eviction must push the size to the directory server, where a
   second client (with its own empty cache) reads it. No commit and no
   interval write-back run, so eviction is the only path. *)
let dirty_eviction_writes_back () =
  let ens = mk ~dir_servers:1 () in
  let eng = Ensemble.engine ens in
  let cl, proxy = client ens "c0" in
  let other, _ = client ens "c1" in
  run_on eng (fun () ->
      let fh, _ = ok_or_fail "create" (Client.create_file cl root "dirty") in
      ignore (ok_or_fail "write" (Client.write_at cl fh ~off:0L ~data:(Nfs.Synthetic 30000) ()));
      check_int "no write-back yet" 0 (Proxy.attr_writebacks proxy);
      (* 4096 entries fill the cache; the dirty entry is the oldest *)
      for i = 1 to 4100 do
        ignore (ok_or_fail "filler" (Client.create_file cl root (Printf.sprintf "p%04d" i)))
      done;
      check_int "evicted entry written back" 1 (Proxy.attr_writebacks proxy);
      let a = ok_or_fail "getattr elsewhere" (Client.getattr other fh) in
      check_int64 "directory server has the size" 30000L a.Nfs.size)

let suite =
  [
    Alcotest.test_case "hit avoids dir ops" `Quick hit_avoids_dir_ops;
    Alcotest.test_case "negative entry then create" `Quick negative_entry_then_create;
    Alcotest.test_case "ttl zero disables" `Quick ttl_zero_disables;
    Alcotest.test_case "rename coherence" `Quick rename_coherence;
    Alcotest.test_case "remove coherence" `Quick remove_coherence;
    Alcotest.test_case "setattr coherence" `Quick setattr_coherence;
    Alcotest.test_case "ttl expiry refetches" `Quick ttl_expiry_refetches;
    Alcotest.test_case "cross-client staleness bounded" `Quick cross_client_staleness_bounded;
    Alcotest.test_case "chaos coherence" `Quick chaos_coherence;
    Alcotest.test_case "fence epoch invalidation" `Quick fence_epoch_invalidation;
    Alcotest.test_case "dirty eviction writes back" `Quick dirty_eviction_writes_back;
  ]
