open Helpers
module Engine = Slice_sim.Engine
module Nfs = Slice_nfs.Nfs
module Fh = Slice_nfs.Fh
module Client = Slice_workload.Client
module Obsd = Slice_storage.Obsd
module Ensemble = Slice.Ensemble
module Proxy = Slice.Proxy
module Params = Slice.Params
module Table = Slice.Table

let mk ?(storage = 4) ?(dirs = 2) ?(smallfiles = 2) ?(mirror = false) ?(policy = Params.Mkdir_switching)
    ?(io_policy = Params.Static_striping) () =
  let ens =
    Ensemble.create
      {
        Ensemble.default_config with
        storage_nodes = storage;
        dir_servers = dirs;
        smallfile_servers = smallfiles;
        mirror_new_files = mirror;
        proxy_params =
          {
            Params.default with
            name_policy = policy;
            io_policy;
            threshold = (if smallfiles = 0 then 0 else 65536);
          };
      }
  in
  let host, proxy = Ensemble.add_client ens ~name:"c0" in
  let cl = Client.create host ~server:(Ensemble.virtual_addr ens) () in
  (ens, proxy, cl)

let pattern tag len = String.init len (fun i -> Char.chr ((tag + (i * 13)) mod 256))

let routing_classes () =
  let ens, proxy, cl = mk () in
  run_on (Ensemble.engine ens) (fun () ->
      let fh, _ = ok_or_fail "create" (Client.create_file cl Ensemble.root "f") in
      (* small write: below threshold -> small-file server *)
      ignore (ok_or_fail "small write" (Client.write_at cl fh ~off:0L ~data:(Nfs.Data "hi") ()));
      check_int "smallfile routed" 1 (Proxy.routed_to_smallfile proxy);
      (* bulk write: beyond threshold -> storage node *)
      ignore
        (ok_or_fail "bulk write"
           (Client.write_at cl fh ~off:65536L ~data:(Nfs.Synthetic 32768) ()));
      check_int "storage routed" 1 (Proxy.routed_to_storage proxy);
      check_bool "name ops routed to dirs" true (Proxy.routed_to_dir proxy >= 1);
      check_bool "all intercepted" true (Proxy.packets_intercepted proxy >= 3))

let threshold_split_data_roundtrip () =
  let ens, _proxy, cl = mk () in
  run_on (Ensemble.engine ens) (fun () ->
      let fh, _ = ok_or_fail "create" (Client.create_file cl Ensemble.root "split") in
      (* 64 KB on the small-file server, 5 more 32 KB chunks striped over
         the storage nodes, each with a distinct pattern *)
      let small = pattern 1 65536 in
      ignore (ok_or_fail "small" (Client.write_at cl fh ~off:0L ~data:(Nfs.Data small) ()));
      for c = 0 to 4 do
        let data = pattern (10 + c) 32768 in
        ignore
          (ok_or_fail "chunk"
             (Client.write_at cl fh
                ~off:(Int64.of_int (65536 + (c * 32768)))
                ~data:(Nfs.Data data) ()))
      done;
      ignore (ok_or_fail "commit" (Client.commit cl fh));
      (* read everything back through the µproxy *)
      (match ok_or_fail "read small" (Client.read_at cl fh ~off:0L ~count:65536) with
      | Nfs.Data d, _ -> check_bool "small part intact" true (d = small)
      | _ -> Alcotest.fail "small part went synthetic");
      for c = 0 to 4 do
        match
          ok_or_fail "read chunk"
            (Client.read_at cl fh ~off:(Int64.of_int (65536 + (c * 32768))) ~count:32768)
        with
        | Nfs.Data d, _ -> check_bool "chunk intact" true (d = pattern (10 + c) 32768)
        | _ -> Alcotest.fail "chunk went synthetic"
      done)

let striping_spreads_chunks () =
  let ens, _proxy, cl = mk ~smallfiles:0 () in
  run_on (Ensemble.engine ens) (fun () ->
      let fh, _ = ok_or_fail "create" (Client.create_file cl Ensemble.root "wide") in
      Client.sequential_write cl fh ~bytes:(Int64.of_int (32768 * 16));
      (* every storage node holds part of the file *)
      Array.iter
        (fun node -> check_bool "node has data" true (Obsd.object_size node fh <> None))
        (Ensemble.storage ens))

let eof_patched_for_split_file () =
  let ens, proxy, cl = mk () in
  run_on (Ensemble.engine ens) (fun () ->
      let fh, _ = ok_or_fail "create" (Client.create_file cl Ensemble.root "big") in
      (* 128 KB file: small-file server holds the first 64 KB and would
         claim EOF at its boundary *)
      Client.sequential_write cl fh ~bytes:131072L;
      (match ok_or_fail "read at 32K" (Client.read_at cl fh ~off:32768L ~count:32768) with
      | _, eof -> check_bool "no EOF at small-file boundary" false eof);
      (match ok_or_fail "read at end" (Client.read_at cl fh ~off:98304L ~count:32768) with
      | _, eof -> check_bool "EOF at true end" true eof);
      check_bool "attrs were patched in flight" true (Proxy.attr_patches proxy > 0))

let attr_writeback_on_commit () =
  let ens, proxy, cl = mk () in
  run_on (Ensemble.engine ens) (fun () ->
      let fh, _ = ok_or_fail "create" (Client.create_file cl Ensemble.root "wb") in
      Client.sequential_write cl fh ~bytes:100_000L;
      check_bool "commit orchestrated" true (Proxy.commits_orchestrated proxy >= 1);
      check_bool "writeback happened" true (Proxy.attr_writebacks proxy >= 1);
      (* after commit, the directory server's authoritative size is
         current; a fresh getattr shows it *)
      match ok_or_fail "getattr" (Client.getattr cl fh) with
      | a -> check_bool "size pushed to dir server" true (a.Nfs.size = 100_000L))

let mirrored_write_both_replicas () =
  let ens, proxy, cl = mk ~mirror:true ~smallfiles:0 () in
  run_on (Ensemble.engine ens) (fun () ->
      let fh, _ = ok_or_fail "create" (Client.create_file cl Ensemble.root "m") in
      check_bool "fh carries mirror flag" true fh.Fh.mirrored;
      Client.sequential_write cl fh ~bytes:(Int64.of_int (32768 * 8));
      check_bool "writes duplicated" true (Proxy.mirror_duplicates proxy >= 8);
      check_bool "intent opened" true (Proxy.intents_opened proxy >= 1);
      (* exactly two replicas hold the object *)
      let holders =
        Array.fold_left
          (fun acc node -> if Obsd.object_size node fh <> None then acc + 1 else acc)
          0 (Ensemble.storage ens)
      in
      check_int "two replicas" 2 holders;
      (* both replicas complete: intent closed at the coordinator *)
      match Ensemble.coordinator ens with
      | Some coord ->
          check_int "no pending intents" 0 (Slice_storage.Coordinator.pending_intents coord)
      | None -> Alcotest.fail "coordinator expected")

let mirrored_read_roundtrip () =
  let ens, _proxy, cl = mk ~mirror:true ~smallfiles:0 () in
  run_on (Ensemble.engine ens) (fun () ->
      let fh, _ = ok_or_fail "create" (Client.create_file cl Ensemble.root "mr") in
      for c = 0 to 7 do
        ignore
          (ok_or_fail "w"
             (Client.write_at cl fh ~off:(Int64.of_int (c * 32768))
                ~data:(Nfs.Data (pattern c 32768)) ()))
      done;
      ignore (ok_or_fail "commit" (Client.commit cl fh));
      (* reads alternate between mirrors; all chunks must come back right *)
      for c = 0 to 7 do
        match ok_or_fail "r" (Client.read_at cl fh ~off:(Int64.of_int (c * 32768)) ~count:32768) with
        | Nfs.Data d, _ -> check_bool "mirror read intact" true (d = pattern c 32768)
        | _ -> Alcotest.fail "synthetic"
      done)

let readdir_spans_hash_sites () =
  let ens, _proxy, cl = mk ~dirs:3 ~policy:Params.Name_hashing () in
  run_on (Ensemble.engine ens) (fun () ->
      let d, _ = ok_or_fail "mkdir" (Client.mkdir cl Ensemble.root "spread") in
      let names = List.init 30 (Printf.sprintf "entry%02d") in
      List.iter (fun n -> ignore (ok_or_fail n (Client.create_file cl d n))) names;
      (* entries hash over 3 directory servers; readdir must splice them *)
      let entries = ok_or_fail "readdir" (Client.readdir_all cl d) in
      let got = List.sort compare (List.map (fun (e : Nfs.entry) -> e.Nfs.entry_name) entries) in
      check_bool "all entries listed across sites" true (got = names);
      (* confirm they truly spanned sites *)
      let with_entries =
        Array.fold_left
          (fun acc ds -> if Slice_dir.Dirserver.entry_count ds > 0 then acc + 1 else acc)
          0 (Ensemble.dirs ens)
      in
      check_bool "entries on >1 site" true (with_entries > 1))

let name_hashing_balances () =
  let ens, proxy, cl = mk ~dirs:4 ~policy:Params.Name_hashing () in
  run_on (Ensemble.engine ens) (fun () ->
      let d, _ = ok_or_fail "mkdir" (Client.mkdir cl Ensemble.root "bal") in
      for i = 0 to 199 do
        ignore (ok_or_fail "c" (Client.create_file cl d (Printf.sprintf "x%03d" i)))
      done;
      let hist = Proxy.dir_site_histogram proxy in
      Array.iteri
        (fun i c -> check_bool (Printf.sprintf "site %d used (%d)" i c) true (c > 0))
        hist)

let stale_table_lazy_refresh () =
  (* Build the routing by hand: the proxy starts with a deliberately
     stale snapshot pointing logical site 1 at the wrong server; the
     server bounces, the proxy refreshes lazily and retries. *)
  let eng = Engine.create () in
  let net = Slice_net.Net.create eng () in
  let hosts =
    Array.init 2 (fun i -> Slice_storage.Host.create net ~name:(Printf.sprintf "d%d" i) ~disks:1 ())
  in
  let addrs = Array.map (fun (h : Slice_storage.Host.t) -> h.Slice_storage.Host.addr) hosts in
  let _dirs =
    Array.init 2 (fun i ->
        Slice_dir.Dirserver.attach hosts.(i)
          {
            Slice_dir.Dirserver.logical_id = i;
            nsites = 2;
            policy = Slice_nfs.Routekey.Name_hashing;
            resolve = (fun l -> addrs.(l mod 2));
            data_sites = (fun _ -> []);
            coordinator = (fun _ -> None);
            mirror_new_files = false;
            cap_secret = None;
            also_owns = [];
          })
  in
  let vaddr = Slice_net.Net.add_node net ~name:"virt" in
  (* wrong table: both logical sites at server 0 *)
  let table = Table.create [| addrs.(0); addrs.(0) |] in
  let chost = Slice_storage.Host.create net ~name:"client" () in
  let proxy =
    Proxy.install chost
      ~params:{ Params.default with threshold = 0; name_policy = Params.Name_hashing }
      {
        Proxy.virtual_addr = vaddr;
        dir_table = table;
        smallfile_table = None;
        storage = None;
        coordinator = (fun () -> None);
      }
  in
  let cl = Client.create chost ~server:vaddr () in
  run_on eng (fun () ->
      (* fix the authoritative table AFTER the proxy snapshotted it *)
      Table.update table [| addrs.(0); addrs.(1) |];
      (* create names until one hashes to logical site 1 *)
      for i = 0 to 9 do
        ignore (ok_or_fail "create" (Client.create_file cl Fh.root (Printf.sprintf "n%d" i)))
      done;
      check_bool "stale bounces handled" true (Proxy.stale_bounces proxy > 0);
      check_int "client saw no errors" 0 (Client.errors cl))

let soft_state_discard_recovers () =
  let ens, proxy, cl = mk () in
  run_on (Ensemble.engine ens) (fun () ->
      ignore (ok_or_fail "c1" (Client.create_file cl Ensemble.root "before"));
      Proxy.discard_soft_state proxy;
      (* correctness is preserved end-to-end: later ops just work *)
      ignore (ok_or_fail "c2" (Client.create_file cl Ensemble.root "after"));
      ignore (ok_or_fail "lookup" (Client.lookup cl Ensemble.root "before")))

let block_map_policy_roundtrip () =
  let ens, proxy, cl = mk ~smallfiles:0 ~io_policy:Params.Block_map () in
  run_on (Ensemble.engine ens) (fun () ->
      let fh, _ = ok_or_fail "create" (Client.create_file cl Ensemble.root "mapped") in
      for c = 0 to 7 do
        ignore
          (ok_or_fail "w"
             (Client.write_at cl fh ~off:(Int64.of_int (c * 32768))
                ~data:(Nfs.Data (pattern (40 + c) 32768)) ()))
      done;
      check_bool "map fetched from coordinator" true (Proxy.map_fetches proxy >= 1);
      for c = 0 to 7 do
        match ok_or_fail "r" (Client.read_at cl fh ~off:(Int64.of_int (c * 32768)) ~count:32768) with
        | Nfs.Data d, _ -> check_bool "mapped chunk intact" true (d = pattern (40 + c) 32768)
        | _ -> Alcotest.fail "synthetic"
      done)

let remove_cleans_data_everywhere () =
  let ens, _proxy, cl = mk () in
  let eng = Ensemble.engine ens in
  run_on eng (fun () ->
      let fh, _ = ok_or_fail "create" (Client.create_file cl Ensemble.root "tmp") in
      Client.sequential_write cl fh ~bytes:200_000L;
      ignore (ok_or_fail "remove" (Client.remove cl Ensemble.root "tmp"));
      (* data removal is asynchronous through the coordinator's intention
         protocol; give it a moment *)
      Engine.sleep eng 1.0;
      Array.iter
        (fun node -> check_bool "storage data gone" true (Obsd.object_size node fh = None))
        (Ensemble.storage ens);
      let sf_files =
        Array.fold_left
          (fun acc sf -> acc + Slice_smallfile.Smallfile.file_count sf)
          0 (Ensemble.smallfiles ens)
      in
      check_int "small-file part gone" 0 sf_files)

let checksums_end_to_end () =
  (* the ultimate µproxy rewrite check: every packet that reaches an
     endpoint verifies; rewrites are checksum-neutral by construction.
     Endpoint handlers drop bad checksums, so a broken incremental update
     would surface as client timeouts/errors here. *)
  let ens, proxy, cl = mk ~mirror:false () in
  run_on (Ensemble.engine ens) (fun () ->
      let fh, _ = ok_or_fail "create" (Client.create_file cl Ensemble.root "ck") in
      Client.sequential_write cl fh ~bytes:150_000L;
      Client.sequential_read cl fh ~bytes:150_000L;
      check_int "no client errors" 0 (Client.errors cl);
      check_int "no retransmissions" 0 (Client.retransmissions cl);
      check_bool "replies processed" true (Proxy.replies_processed proxy > 10))

let suite =
  [
    ("routing classes", `Quick, routing_classes);
    ("threshold split data roundtrip", `Quick, threshold_split_data_roundtrip);
    ("striping spreads chunks", `Quick, striping_spreads_chunks);
    ("eof patched for split file", `Quick, eof_patched_for_split_file);
    ("attr writeback on commit", `Quick, attr_writeback_on_commit);
    ("mirrored write both replicas", `Quick, mirrored_write_both_replicas);
    ("mirrored read roundtrip", `Quick, mirrored_read_roundtrip);
    ("readdir spans hash sites", `Quick, readdir_spans_hash_sites);
    ("name hashing balances sites", `Quick, name_hashing_balances);
    ("stale table lazy refresh", `Quick, stale_table_lazy_refresh);
    ("soft state discard recovers", `Quick, soft_state_discard_recovers);
    ("block map policy roundtrip", `Quick, block_map_policy_roundtrip);
    ("remove cleans data everywhere", `Quick, remove_cleans_data_everywhere);
    ("checksums end to end", `Quick, checksums_end_to_end);
  ]

let secure_objects_capabilities () =
  (* Section 2.2: capability-sealed handles let the µproxy live outside
     the trust boundary — storage nodes verify each handle's tag. *)
  let ens =
    Ensemble.create
      {
        Ensemble.default_config with
        storage_nodes = 2;
        smallfile_servers = 0;
        secure_objects = true;
        proxy_params = { Params.default with threshold = 0 };
      }
  in
  let host, _ = Ensemble.add_client ens ~name:"c0" in
  let cl = Client.create host ~server:(Ensemble.virtual_addr ens) () in
  run_on (Ensemble.engine ens) (fun () ->
      (* legitimate path: handle minted (and sealed) by a directory server *)
      let fh, _ = ok_or_fail "create" (Client.create_file cl Ensemble.root "secret.dat") in
      check_bool "handle carries a tag" true (fh.Fh.cap <> 0L);
      ignore (ok_or_fail "write" (Client.write_at cl fh ~off:0L ~data:(Nfs.Data (pattern 3 4096)) ()));
      (match ok_or_fail "read" (Client.read_at cl fh ~off:0L ~count:4096) with
      | Nfs.Data d, _ -> check_bool "authorized read works" true (d = pattern 3 4096)
      | _ -> Alcotest.fail "synthetic");
      (* forged handle (a compromised µproxy inventing authority): denied *)
      let forged = { fh with Fh.cap = 0L } in
      (match Client.read_at cl forged ~off:0L ~count:4096 with
      | Error Nfs.ERR_PERM -> ()
      | _ -> Alcotest.fail "forged handle must be rejected");
      (* tampered identity (reusing a valid tag for another object): denied *)
      let tampered = { fh with Fh.file_id = Int64.add fh.Fh.file_id 1L } in
      match Client.write_at cl tampered ~off:0L ~data:(Nfs.Data "evil") () with
      | Error Nfs.ERR_PERM -> ()
      | _ -> Alcotest.fail "tampered handle must be rejected")

let cap_properties =
  Helpers.qtest "capability tags: deterministic, secret- and identity-bound"
    QCheck2.Gen.(pair (string_size (int_range 1 12)) (string_size (int_range 1 12)))
    (fun (s1, s2) ->
      let fh = { Fh.root with Fh.file_id = 77L; ftype = Fh.Reg } in
      let sealed = Slice_nfs.Cap.seal ~secret:s1 fh in
      Slice_nfs.Cap.verify ~secret:s1 sealed
      && (s1 = s2 || not (Slice_nfs.Cap.verify ~secret:s2 sealed))
      && not (Slice_nfs.Cap.verify ~secret:s1 { sealed with Fh.gen = sealed.Fh.gen + 1 }))

let suite =
  suite
  @ [
      ("secure objects: capabilities", `Quick, secure_objects_capabilities);
      cap_properties;
    ]

(* ---- zero-allocation packet path (PR 9) ---- *)

module Codec = Slice_nfs.Codec
module Packet = Slice_net.Packet
module Cksum = Slice_net.Cksum
module Routekey = Slice_nfs.Routekey
module Net = Slice_net.Net
module Host = Slice_storage.Host

let reg_fh i =
  { Fh.file_id = Int64.of_int (1000 + i); gen = 1; ftype = Fh.Reg; mirrored = false;
    attr_site = 0; cap = 0L }

(* The decode -> classify -> rewrite -> checksum-patch core, composed
   from the library primitives the µproxy uses, must allocate exactly
   zero words per packet. Measured over 1024 iterations: any single
   boxed value per packet would show up as >= 1024 words. *)
let packet_core_allocates_nothing () =
  let fh = reg_fh 0 in
  let read_buf = Codec.encode_call ~xid:42 (Nfs.Read (fh, 131072L, 8192)) in
  let pristine = Bytes.copy read_buf in
  let lookup_buf = Codec.encode_call ~xid:43 (Nfs.Lookup (fh, "a_component")) in
  let pkt = Packet.make ~src:1 ~dst:2 ~sport:9 ~dport:2049 read_buf in
  let cur = Codec.cursor () in
  let scr8 = Bytes.create 8 in
  let scratch = Bytes.create 64 in
  let step () =
    Bytes.blit pristine 0 read_buf 0 (Bytes.length pristine);
    check_bool "read peeks" true (Codec.peek_call_into cur read_buf);
    let off = cur.Codec.c_offset in
    let site =
      Routekey.stripe_site_at ~nsites:4 ~stripe_unit:32768 read_buf ~off:cur.Codec.c_fh_off off
    in
    Codec.put_u64_be scr8
      (Routekey.site_offset_int ~site (Routekey.local_offset_int ~nsites:4 ~stripe_unit:32768 off));
    Cksum.patch_payload_bytes pkt ~off:cur.Codec.c_off_field scr8 ~spos:0 ~len:8;
    Cksum.rewrite_dst pkt ((site + 3) land 0xFF);
    check_bool "lookup peeks" true (Codec.peek_call_into cur lookup_buf);
    ignore
      (Routekey.name_site_at ~nsites:4 ~scratch lookup_buf ~fh_off:cur.Codec.c_fh_off
         ~name_off:cur.Codec.c_name_off ~name_len:cur.Codec.c_name_len)
  in
  let silent () =
    Bytes.blit pristine 0 read_buf 0 (Bytes.length pristine);
    ignore (Codec.peek_call_into cur read_buf);
    let off = cur.Codec.c_offset in
    let site =
      Routekey.stripe_site_at ~nsites:4 ~stripe_unit:32768 read_buf ~off:cur.Codec.c_fh_off off
    in
    Codec.put_u64_be scr8
      (Routekey.site_offset_int ~site (Routekey.local_offset_int ~nsites:4 ~stripe_unit:32768 off));
    Cksum.patch_payload_bytes pkt ~off:cur.Codec.c_off_field scr8 ~spos:0 ~len:8;
    Cksum.rewrite_dst pkt ((site + 3) land 0xFF);
    ignore (Codec.peek_call_into cur lookup_buf);
    ignore
      (Routekey.name_site_at ~nsites:4 ~scratch lookup_buf ~fh_off:cur.Codec.c_fh_off
         ~name_off:cur.Codec.c_name_off ~name_len:cur.Codec.c_name_len)
  in
  step ();
  (* correctness once with assertions, then the measured silent loop *)
  for _ = 1 to 64 do
    silent ()
  done;
  let w0 = Gc.minor_words () in
  for _ = 1 to 1024 do
    silent ()
  done;
  let dw = Gc.minor_words () -. w0 in
  check_bool (Printf.sprintf "core allocates 0 words/packet (saw %.3f total)" dw) true
    (dw < 1024.0)

(* Random truncation and byte corruption of well-formed calls: the
   cursor peek must return a bool — never raise, never read out of
   bounds — and a successful peek must leave every recorded span inside
   the buffer. *)
let gen_fuzz_case =
  QCheck2.Gen.(
    let call =
      oneof
        [
          return (Nfs.Lookup (reg_fh 1, "some_name"));
          return (Nfs.Getattr (reg_fh 2));
          return (Nfs.Read (reg_fh 3, 65536L, 8192));
          return (Nfs.Write (reg_fh 4, 32768L, Nfs.Unstable, Nfs.Synthetic 4096));
          return (Nfs.Rename (reg_fh 5, "from_name", reg_fh 6, "to_name"));
          return (Nfs.Setattr (reg_fh 7, { Nfs.sattr_empty with Nfs.set_size = Some 0L }));
          return (Nfs.Readdir (reg_fh 8, 0L, 64));
        ]
    in
    triple call (int_range 0 200) (pair (int_range 0 199) (int_range 0 255)))

let cursor_peek_fuzz =
  qtest ~count:500 "cursor peek survives truncation and corruption" gen_fuzz_case
    (fun (call, cut, (pos, byte)) ->
      let full = Codec.encode_call ~xid:77 call in
      let len = min cut (Bytes.length full) in
      let buf = Bytes.sub full 0 len in
      if len > 0 then Bytes.set buf (pos mod len) (Char.chr byte);
      let cur = Codec.cursor () in
      match Codec.peek_call_into cur buf with
      | false -> true
      | true ->
          let span off l = off >= 0 && l >= 0 && off + l <= len in
          (cur.Codec.c_fh_off < 0 || span cur.Codec.c_fh_off 32)
          && (cur.Codec.c_fh2_off < 0 || span cur.Codec.c_fh2_off 32)
          && (cur.Codec.c_name_len < 0 || span cur.Codec.c_name_off cur.Codec.c_name_len)
          && (cur.Codec.c_name2_len < 0 || span cur.Codec.c_name2_off cur.Codec.c_name2_len)
          && (cur.Codec.c_off_field < 0 || span cur.Codec.c_off_field 8))

(* Hand-built client + black-box servers, no Client machinery: lets the
   tests drive the µproxy filters with exact packets (and withhold
   replies) without RPC retransmission refreshing pending records. *)
let mk_raw ?(params_f = fun p -> p) () =
  let eng = Engine.create () in
  let net = Net.create eng () in
  let chost = Host.create net ~name:"client" () in
  let dhost = Host.create net ~name:"dir" () in
  let s0 = Host.create net ~name:"s0" () in
  let s1 = Host.create net ~name:"s1" () in
  let vaddr = Net.add_node net ~name:"virt" in
  let params =
    params_f
      {
        Params.default with
        threshold = 0;
        meta_cache_ttl = 0.0;
        pending_sweep_interval = 0.0;
      }
  in
  let proxy =
    Proxy.install chost ~params
      {
        Proxy.virtual_addr = vaddr;
        dir_table = Table.create [| dhost.Host.addr |];
        smallfile_table = None;
        storage = Some (Table.create [| s0.Host.addr; s1.Host.addr |]);
        coordinator = (fun () -> None);
      }
  in
  (eng, net, chost, dhost, vaddr, proxy)

let call_pkt chost vaddr ~xid call =
  Packet.make ~src:chost.Host.addr ~dst:vaddr ~sport:1000 ~dport:2049
    (Codec.encode_call ~xid call)

let reply_pkt dhost chost ~xid resp =
  Packet.make ~src:dhost.Host.addr ~dst:chost.Host.addr ~sport:2049 ~dport:1000
    (Codec.encode_reply ~xid resp)

let sfs_mix i =
  let fh = reg_fh (i mod 8) in
  let attr = Nfs.default_attr ~ftype:Fh.Reg ~fileid:fh.Fh.file_id ~now:0.0 in
  match i mod 5 with
  | 0 -> (Nfs.Lookup (Fh.root, Printf.sprintf "f%d" (i mod 8)), Ok (Nfs.RLookup (fh, attr)))
  | 1 -> (Nfs.Getattr fh, Ok (Nfs.RGetattr attr))
  | 2 -> (Nfs.Access (fh, 1), Ok (Nfs.RAccess (1, attr)))
  | 3 ->
      ( Nfs.Read (fh, Int64.of_int (i mod 32 * 8192), 8192),
        Ok (Nfs.RRead (Nfs.Synthetic 8192, false, attr)) )
  | _ ->
      ( Nfs.Write (fh, Int64.of_int (i mod 32 * 8192), Nfs.Unstable, Nfs.Synthetic 4096),
        Ok (Nfs.RWrite (4096, Nfs.Unstable, attr)) )

(* Steady-state interception through the full installed µproxy — filters,
   pending pool, forwarding, reply patching — stays under the packet-path
   allocation budget (meta fast path off). The pre-PR baseline was ~6000
   words/packet; the pooled path must hold under 64. *)
let packet_path_words_budget () =
  let eng, net, chost, dhost, vaddr, proxy = mk_raw () in
  let n = 512 in
  let calls = Array.init n (fun i -> fst (sfs_mix i)) in
  let pkts = Array.map (fun c -> call_pkt chost vaddr ~xid:0 c) calls in
  let replies = Array.init n (fun i -> snd (sfs_mix i)) in
  (* distinct xids, far from the proxy's own RPC stream *)
  Array.iteri
    (fun i _ ->
      let xid = 0x100000 + i in
      pkts.(i) <- call_pkt chost vaddr ~xid calls.(i))
    pkts;
  let rpkts = Array.init n (fun i -> reply_pkt dhost chost ~xid:(0x100000 + i) replies.(i)) in
  let batch = 64 in
  let run_batch b =
    run_on eng (fun () ->
        for i = b * batch to ((b + 1) * batch) - 1 do
          Net.send net pkts.(i)
        done);
    run_on eng (fun () ->
        for i = b * batch to ((b + 1) * batch) - 1 do
          Net.send net rpkts.(i)
        done)
  in
  (* warm-up batch: pool buffers and cache entries reach steady state *)
  run_batch 0;
  let before_req = Proxy.packets_intercepted proxy and before_rep = Proxy.replies_processed proxy in
  let w0 = Gc.minor_words () in
  for b = 1 to (n / batch) - 1 do
    run_batch b
  done;
  let dw = Gc.minor_words () -. w0 in
  let packets =
    Proxy.packets_intercepted proxy - before_req + (Proxy.replies_processed proxy - before_rep)
  in
  check_bool "measured packets flowed" true (packets >= 2 * (n - batch) - 2);
  let wpp = dw /. float_of_int packets in
  check_bool (Printf.sprintf "words/packet %.1f under budget 64" wpp) true (wpp < 64.0);
  check_int "every pending record released" 0 (Proxy.pending_size proxy)

(* Words of one warmed COMMIT orchestration: the µproxy intercepts the
   client's COMMIT, asks a stub coordinator to commit the file's data
   nodes, and synthesizes the reply. The stub answers each call with an
   Ack built the way a server builds it, and the client's packets are
   built before the measurement, so the count is the µproxy's messages
   (the Commit_file call and its reply, the client's reply) and the
   scaffolding around them. Pinned at its measured value; a rise fails
   here. *)
let commit_orchestration_words () =
  let eng = Engine.create () in
  let net = Net.create eng () in
  let chost = Host.create net ~name:"client" () in
  let dhost = Host.create net ~name:"dir" () in
  let s0 = Host.create net ~name:"s0" () in
  let s1 = Host.create net ~name:"s1" () in
  let coord = Host.create net ~name:"coord" () in
  let vaddr = Net.add_node net ~name:"virt" in
  Net.listen net coord.Host.addr ~port:2050 (fun pkt ->
      let xid = Codec.xid_of pkt.Packet.payload in
      Net.send net
        (Packet.make ~src:coord.Host.addr ~dst:pkt.Packet.src ~sport:2050 ~dport:pkt.Packet.sport
           (Slice_storage.Ctrl.encode_reply ~xid Slice_storage.Ctrl.Ack)));
  let replies = ref 0 in
  Net.listen net chost.Host.addr ~port:1000 (fun _ -> incr replies);
  let proxy =
    Proxy.install chost
      ~params:{ Params.default with threshold = 0; meta_cache_ttl = 0.0; pending_sweep_interval = 0.0 }
      {
        Proxy.virtual_addr = vaddr;
        dir_table = Table.create [| dhost.Host.addr |];
        smallfile_table = None;
        storage = Some (Table.create [| s0.Host.addr; s1.Host.addr |]);
        coordinator = (fun () -> Some coord.Host.addr);
      }
  in
  let n = 512 and batch = 64 in
  let pkts =
    Array.init n (fun i -> call_pkt chost vaddr ~xid:(0x200000 + i) (Nfs.Commit (reg_fh (i mod 8), 0L, 0)))
  in
  let run_batch b =
    run_on eng (fun () ->
        for i = b * batch to ((b + 1) * batch) - 1 do
          Net.send net pkts.(i)
        done)
  in
  run_batch 0;
  let w0 = Gc.minor_words () in
  for b = 1 to (n / batch) - 1 do
    run_batch b
  done;
  let per_commit = (Gc.minor_words () -. w0) /. float_of_int (n - batch) in
  check_int "every COMMIT answered" n !replies;
  check_int "one orchestration each" n (Proxy.commits_orchestrated proxy);
  check_bool (Printf.sprintf "a COMMIT orchestration allocates %.2f words (pinned 112.33)" per_commit)
    true (per_commit <= 112.34)

(* A retransmitted xid supersedes its pending record in place; the one
   reply then settles the slot and the pool returns to empty. *)
let retransmit_supersedes_pending () =
  let eng, net, chost, dhost, vaddr, proxy = mk_raw () in
  let call, resp = sfs_mix 1 in
  run_on eng (fun () -> Net.send net (call_pkt chost vaddr ~xid:0x7777 call));
  check_int "one pending" 1 (Proxy.pending_size proxy);
  run_on eng (fun () -> Net.send net (call_pkt chost vaddr ~xid:0x7777 call));
  check_int "retransmit reuses the record" 1 (Proxy.pending_size proxy);
  run_on eng (fun () -> Net.send net (reply_pkt dhost chost ~xid:0x7777 resp));
  check_int "reply settles the slot" 0 (Proxy.pending_size proxy);
  check_int "exactly one reply processed" 1 (Proxy.replies_processed proxy)

(* Abandoned records expire via the sweep even when slots were freed and
   reused out of xid order first (exercises the sorted expiry scan and
   the backward-shift index deletes), and the pool keeps working after. *)
let pending_expiry_reclaims_pool () =
  let eng, net, chost, dhost, vaddr, proxy =
    mk_raw ~params_f:(fun p -> { p with Params.pending_sweep_interval = 0.05 }) ()
  in
  let send_call i = Net.send net (call_pkt chost vaddr ~xid:(0x9000 + i) (fst (sfs_mix i))) in
  let send_reply i = Net.send net (reply_pkt dhost chost ~xid:(0x9000 + i) (snd (sfs_mix i))) in
  (* one fiber with simulated-time pauses: the sweep runs while records
     are live, so draining the engine between steps would expire them *)
  run_on eng (fun () ->
      for i = 0 to 9 do
        send_call i
      done;
      Engine.sleep eng 0.02;
      (* free a few slots out of order, then refill them with fresh xids *)
      send_reply 7;
      send_reply 2;
      send_reply 5;
      Engine.sleep eng 0.02;
      for i = 10 to 12 do
        send_call i
      done;
      Engine.sleep eng 0.02;
      check_int "ten in flight" 10 (Proxy.pending_size proxy);
      (* nobody replies: the sweep must reclaim all of them once they
         are 10 s old, the µproxy's pending expiry *)
      Engine.sleep eng 10.5;
      check_int "all abandoned records expired" 10 (Proxy.expired_pending proxy);
      check_int "pool empty" 0 (Proxy.pending_size proxy);
      (* the pool still cycles correctly after a full expiry pass *)
      send_call 20;
      Engine.sleep eng 0.02;
      send_reply 20;
      Engine.sleep eng 0.02;
      check_int "pool reusable after expiry" 0 (Proxy.pending_size proxy))

(* Replies reaching the client at port 1000, counted per xid. *)
let count_deliveries net chost ~base n =
  let got = Array.make n 0 in
  Net.listen net chost.Host.addr ~port:1000 (fun pkt ->
      let i = Codec.xid_of pkt.Packet.payload - base in
      if i >= 0 && i < n then got.(i) <- got.(i) + 1);
  got

(* 1500 requests held pending at one µproxy, answered in reverse xid
   order. Every odd request is a mirrored write that settles only on its
   second ack, so a record shared by two requests, or an ack matched to
   another request's record, shows up as a reply delivered twice or not
   at all. The table then keeps cycling. *)
let pending_table_holds_many () =
  let eng, net, chost, dhost, vaddr, proxy = mk_raw () in
  let n = 1500 and base = 0x200000 in
  let got = count_deliveries net chost ~base (n + 1) in
  let fh i = { (reg_fh (i mod 8)) with Fh.mirrored = i land 1 = 1 } in
  let call i =
    if i land 1 = 0 then Nfs.Getattr (fh i)
    else Nfs.Write (fh i, Int64.of_int (i mod 32 * 8192), Nfs.Unstable, Nfs.Synthetic 4096)
  in
  let acks i = if i land 1 = 0 then 1 else 2 in
  let reply i =
    let attr = Nfs.default_attr ~ftype:Fh.Reg ~fileid:(fh i).Fh.file_id ~now:0.0 in
    let resp = if i land 1 = 0 then Nfs.RGetattr attr else Nfs.RWrite (4096, Nfs.Unstable, attr) in
    reply_pkt dhost chost ~xid:(base + i) (Ok resp)
  in
  run_on eng (fun () ->
      for i = 0 to n - 1 do
        Net.send net (call_pkt chost vaddr ~xid:(base + i) (call i))
      done);
  check_int "all held pending" n (Proxy.pending_size proxy);
  run_on eng (fun () ->
      for i = n - 1 downto 0 do
        for _ = 1 to acks i do
          Net.send net (reply i)
        done
      done);
  check_bool "each reply reached the client exactly once" true
    (Array.for_all (fun c -> c = 1) (Array.sub got 0 n));
  check_int "every ack processed" (n + (n / 2)) (Proxy.replies_processed proxy);
  check_int "table drained" 0 (Proxy.pending_size proxy);
  run_on eng (fun () -> Net.send net (call_pkt chost vaddr ~xid:(base + n) (call 0)));
  check_int "a later request is held" 1 (Proxy.pending_size proxy);
  run_on eng (fun () -> Net.send net (reply_pkt dhost chost ~xid:(base + n) (snd (sfs_mix 1))));
  check_int "and settles" 0 (Proxy.pending_size proxy);
  check_int "its reply delivered" 1 got.(n)

(* Dropping the soft state with records in flight forgets them: a late
   reply passes through to the client unmatched, and the next request
   is held and settled as usual. *)
let discard_with_requests_in_flight () =
  let eng, net, chost, dhost, vaddr, proxy = mk_raw () in
  let base = 0x300000 in
  let got = count_deliveries net chost ~base 11 in
  run_on eng (fun () ->
      for i = 0 to 9 do
        Net.send net (call_pkt chost vaddr ~xid:(base + i) (fst (sfs_mix i)))
      done);
  check_int "ten in flight" 10 (Proxy.pending_size proxy);
  Proxy.discard_soft_state proxy;
  check_int "all forgotten" 0 (Proxy.pending_size proxy);
  run_on eng (fun () -> Net.send net (reply_pkt dhost chost ~xid:(base + 3) (snd (sfs_mix 3))));
  check_int "late reply passed through" 1 got.(3);
  check_int "late reply matched nothing" 0 (Proxy.replies_processed proxy);
  run_on eng (fun () -> Net.send net (call_pkt chost vaddr ~xid:(base + 10) (fst (sfs_mix 1))));
  check_int "next request held" 1 (Proxy.pending_size proxy);
  run_on eng (fun () -> Net.send net (reply_pkt dhost chost ~xid:(base + 10) (snd (sfs_mix 1))));
  check_int "next request settled" 0 (Proxy.pending_size proxy);
  check_int "its reply processed" 1 (Proxy.replies_processed proxy);
  check_int "and delivered" 1 got.(10)

(* A directory request bounced with ERR_MISDIRECTED is retried at once
   when any routing table moved since the µproxy forwarded it — the
   storage or the small-file table alone counts — and only after the
   10 ms back-off when no table moved. The fake directory server moves
   the chosen table just before it sends the bounce, and answers the
   retry. *)
let misdirect_retry_timing () =
  let retry_gap move =
    let eng = Engine.create () in
    let net = Net.create eng () in
    let chost = Host.create net ~name:"client" () in
    let dhost = Host.create net ~name:"dir" () in
    let s0 = Host.create net ~name:"s0" () in
    let s1 = Host.create net ~name:"s1" () in
    let vaddr = Net.add_node net ~name:"virt" in
    let st = Table.create [| s0.Host.addr; s1.Host.addr |] in
    let sf = Table.create [| s0.Host.addr |] in
    let proxy =
      Proxy.install chost
        ~params:
          { Params.default with threshold = 0; meta_cache_ttl = 0.0; pending_sweep_interval = 0.0 }
        {
          Proxy.virtual_addr = vaddr;
          dir_table = Table.create [| dhost.Host.addr |];
          smallfile_table = Some sf;
          storage = Some st;
          coordinator = (fun () -> None);
        }
    in
    let arrivals = ref [] in
    Slice_storage.Nfs_endpoint.serve_raw dhost ~port:2049 ~handler:(fun pkt ->
        let xid, _call = Codec.decode_call pkt.Packet.payload in
        arrivals := Engine.now eng :: !arrivals;
        let resp =
          if List.length !arrivals = 1 then begin
            (match move with
            | `Storage -> Table.update st [| s1.Host.addr; s0.Host.addr |]
            | `Smallfile -> Table.update sf [| s1.Host.addr |]
            | `Nothing -> ());
            Error Nfs.ERR_MISDIRECTED
          end
          else Ok (Nfs.RGetattr (Nfs.default_attr ~ftype:Fh.Dir ~fileid:1L ~now:0.0))
        in
        Slice_storage.Nfs_endpoint.reply_to dhost pkt (Codec.encode_reply ~xid resp));
    run_on eng (fun () -> Net.send net (call_pkt chost vaddr ~xid:0x5151 (Nfs.Getattr Fh.root)));
    check_int "one bounce" 1 (Proxy.stale_bounces proxy);
    check_int "every pending record released" 0 (Proxy.pending_size proxy);
    match !arrivals with
    | [ retry; first ] -> retry -. first
    | l -> Alcotest.failf "expected 2 arrivals at the directory server, got %d" (List.length l)
  in
  let gap = retry_gap `Storage in
  check_bool (Printf.sprintf "storage table moved: retry at once (%.6f s)" gap) true (gap < 0.005);
  let gap = retry_gap `Smallfile in
  check_bool (Printf.sprintf "small-file table moved: retry at once (%.6f s)" gap) true (gap < 0.005);
  let gap = retry_gap `Nothing in
  check_bool (Printf.sprintf "no table moved: retry backs off (%.6f s)" gap) true (gap >= 0.01)

let suite =
  suite
  @ [
      ("packet core allocates nothing", `Quick, packet_core_allocates_nothing);
      cursor_peek_fuzz;
      ("packet path words budget", `Quick, packet_path_words_budget);
      ("commit orchestration words pinned", `Quick, commit_orchestration_words);
      ("retransmit supersedes pending", `Quick, retransmit_supersedes_pending);
      ("pending expiry reclaims pool", `Quick, pending_expiry_reclaims_pool);
      ("pending table holds 1500 in flight", `Quick, pending_table_holds_many);
      ("discard with requests in flight", `Quick, discard_with_requests_in_flight);
      ("misdirect retry waits only when no table moved", `Quick, misdirect_retry_timing);
    ]

(* ---- requests the µproxy hands to a directory server ---- *)

(* A NULL call carries no handle: any directory server answers it. *)
let null_call_answered () =
  let ens, proxy, cl = mk () in
  run_on (Ensemble.engine ens) (fun () ->
      let d0 = Proxy.routed_to_dir proxy in
      (* a reply to another procedure raises Unexpected_reply *)
      (match Client.call cl Nfs.Null with
      | Ok () -> ()
      | Error st -> Alcotest.failf "NULL: %s" (Nfs.status_name st));
      check_int "routed to a directory server" (d0 + 1) (Proxy.routed_to_dir proxy))

(* Without a storage class, I/O on a regular file goes to a directory
   server, which rejects it; the client sees that error, not silence. *)
let io_without_storage_rejected () =
  let ens, proxy, cl = mk ~storage:0 ~smallfiles:0 () in
  run_on (Ensemble.engine ens) (fun () ->
      let fh, _ = ok_or_fail "create" (Client.create_file cl Ensemble.root "f") in
      let d0 = Proxy.routed_to_dir proxy in
      expect_err "write" Nfs.ERR_BADHANDLE
        (Client.write_at cl fh ~off:0L ~data:(Nfs.Synthetic 4096) ());
      expect_err "read" Nfs.ERR_BADHANDLE (Client.read_at cl fh ~off:0L ~count:4096);
      check_int "both routed to a directory server" (d0 + 2) (Proxy.routed_to_dir proxy);
      check_int "nothing routed to storage" 0 (Proxy.routed_to_storage proxy))

let suite =
  suite
  @ [
      ("null call answered", `Quick, null_call_answered);
      ("io without storage rejected", `Quick, io_without_storage_rejected);
    ]
