open Helpers
module Engine = Slice_sim.Engine
module Net = Slice_net.Net
module Rpc = Slice_net.Rpc
module Nfs = Slice_nfs.Nfs
module Fh = Slice_nfs.Fh
module Codec = Slice_nfs.Codec
module Host = Slice_storage.Host
module Smallfile = Slice_smallfile.Smallfile

type rig = { eng : Engine.t; sf : Smallfile.t; rpc : Rpc.t; dst : Slice_net.Packet.addr }

let mk_rig ?cache_bytes ?backing_bytes () =
  let eng = Engine.create () in
  let net = Net.create eng () in
  let host = Host.create net ~name:"sf" ~disks:8 () in
  let sf = Smallfile.attach host ?cache_bytes ?backing_bytes () in
  let client = Host.create net ~name:"client" () in
  let rpc = Rpc.create net client.Host.addr ~port:1000 in
  { eng; sf; rpc; dst = host.Host.addr }

let reg_fh id =
  { Fh.file_id = Int64.of_int id; gen = 1; ftype = Fh.Reg; mirrored = false; attr_site = 0; cap = 0L }

let call rig c =
  let xid = Rpc.fresh_xid rig.rpc in
  let payload = Codec.encode_call ~xid c in
  let reply =
    Rpc.call rig.rpc ~timeout:2.0 ~dst:rig.dst ~dport:2049
      ~extra_size:(Codec.extra_size_of_call c) payload
  in
  snd (Codec.decode_reply reply)

let physical_rounding () =
  check_int "0" 0 (Smallfile.physical_size_of 0);
  check_int "1 -> 128" 128 (Smallfile.physical_size_of 1);
  check_int "128" 128 (Smallfile.physical_size_of 128);
  check_int "129 -> 256" 256 (Smallfile.physical_size_of 129);
  check_int "5000 -> 8192" 8192 (Smallfile.physical_size_of 5000);
  check_int "8192 caps" 8192 (Smallfile.physical_size_of 8192)

let paper_example_8300 () =
  (* "a 8300 byte file would consume only 8320 bytes of physical storage
     space, 8192 bytes for the first block, and 128 for the remaining 108
     bytes" *)
  let rig = mk_rig () in
  run_on rig.eng (fun () ->
      let fh = reg_fh 1 in
      ignore (call rig (Nfs.Write (fh, 0L, Nfs.Unstable, Nfs.Synthetic 8300)));
      check_bool "8320 bytes stored" true (Smallfile.bytes_stored rig.sf = 8320L);
      check_bool "8300 logical" true (Smallfile.logical_bytes rig.sf = 8300L))

let write_read_real_data () =
  let rig = mk_rig () in
  run_on rig.eng (fun () ->
      let fh = reg_fh 2 in
      let data = String.init 5000 (fun i -> Char.chr ((i * 7) mod 256)) in
      ignore (call rig (Nfs.Write (fh, 0L, Nfs.Unstable, Nfs.Data data)));
      (match call rig (Nfs.Read (fh, 0L, 5000)) with
      | Ok (Nfs.RRead (Nfs.Data d, eof, a)) ->
          check_string "data" data d;
          check_bool "eof" true eof;
          check_bool "size" true (a.Nfs.size = 5000L)
      | _ -> Alcotest.fail "read");
      match call rig (Nfs.Read (fh, 1000L, 100)) with
      | Ok (Nfs.RRead (Nfs.Data d, eof, _)) ->
          check_string "middle slice" (String.sub data 1000 100) d;
          check_bool "not eof" false eof
      | _ -> Alcotest.fail "read middle")

let growth_reallocates () =
  let rig = mk_rig () in
  run_on rig.eng (fun () ->
      let fh = reg_fh 3 in
      ignore (call rig (Nfs.Write (fh, 0L, Nfs.Unstable, Nfs.Synthetic 100)));
      check_bool "128 fragment" true (Smallfile.bytes_stored rig.sf = 128L);
      ignore (call rig (Nfs.Write (fh, 100L, Nfs.Unstable, Nfs.Synthetic 400)));
      (* grown to 500 bytes: one 512 fragment, old 128 freed *)
      check_bool "512 fragment" true (Smallfile.bytes_stored rig.sf = 512L);
      check_bool "logical 500" true (Smallfile.logical_bytes rig.sf = 500L))

let remove_frees_space () =
  let rig = mk_rig () in
  run_on rig.eng (fun () ->
      let fh = reg_fh 4 in
      ignore (call rig (Nfs.Write (fh, 0L, Nfs.Unstable, Nfs.Synthetic 20000)));
      check_int "one file" 1 (Smallfile.file_count rig.sf);
      (match call rig (Nfs.Remove (fh, "")) with
      | Ok Nfs.RRemove -> ()
      | _ -> Alcotest.fail "remove");
      check_int "no files" 0 (Smallfile.file_count rig.sf);
      check_bool "space freed" true (Smallfile.bytes_stored rig.sf = 0L))

let truncate_to_zero_and_partial () =
  let rig = mk_rig () in
  run_on rig.eng (fun () ->
      let fh = reg_fh 5 in
      ignore (call rig (Nfs.Write (fh, 0L, Nfs.Unstable, Nfs.Synthetic 30000)));
      ignore (call rig (Nfs.Setattr (fh, Nfs.sattr_size 10000L)));
      check_bool "logical 10000" true (Smallfile.logical_bytes rig.sf = 10000L);
      (* blocks past the cut freed: 10000 needs blocks 0 (8192) + 1 *)
      check_bool "partial trim freed space" true (Smallfile.bytes_stored rig.sf <= 16384L);
      ignore (call rig (Nfs.Setattr (fh, Nfs.sattr_size 0L)));
      check_bool "all freed" true (Smallfile.bytes_stored rig.sf = 0L))

let fragment_reuse () =
  let rig = mk_rig () in
  run_on rig.eng (fun () ->
      (* create files, remove one, create another of the same size: the
         freed fragment is reused (best fit), keeping fragmentation low *)
      ignore (call rig (Nfs.Write (reg_fh 10, 0L, Nfs.Unstable, Nfs.Synthetic 1000)));
      ignore (call rig (Nfs.Write (reg_fh 11, 0L, Nfs.Unstable, Nfs.Synthetic 1000)));
      ignore (call rig (Nfs.Remove (reg_fh 10, "")));
      ignore (call rig (Nfs.Write (reg_fh 12, 0L, Nfs.Unstable, Nfs.Synthetic 1000)));
      check_bool "no extra fragments" true (Smallfile.fragmentation rig.sf <= 2))

let stable_write_commits () =
  let rig = mk_rig () in
  run_on rig.eng (fun () ->
      let t0 = Engine.now rig.eng in
      ignore (call rig (Nfs.Write (reg_fh 6, 0L, Nfs.File_sync, Nfs.Synthetic 8192)));
      let stable_t = Engine.now rig.eng -. t0 in
      let t1 = Engine.now rig.eng in
      ignore (call rig (Nfs.Write (reg_fh 7, 0L, Nfs.Unstable, Nfs.Synthetic 8192)));
      let unstable_t = Engine.now rig.eng -. t1 in
      check_bool "stable write slower than unstable" true (stable_t > unstable_t))

let commit_then_read_cached () =
  let rig = mk_rig () in
  run_on rig.eng (fun () ->
      let fh = reg_fh 8 in
      ignore (call rig (Nfs.Write (fh, 0L, Nfs.Unstable, Nfs.Synthetic 4096)));
      (match call rig (Nfs.Commit (fh, 0L, 0)) with
      | Ok (Nfs.RCommit _) -> ()
      | _ -> Alcotest.fail "commit");
      let h0 = Smallfile.cache_hits rig.sf in
      ignore (call rig (Nfs.Read (fh, 0L, 4096)));
      check_bool "read hits cache" true (Smallfile.cache_hits rig.sf > h0))

let map_block_locality () =
  (* files created together share map-descriptor blocks: creating 84
     consecutive fileIDs touches at most 2 map blocks *)
  let rig = mk_rig () in
  run_on rig.eng (fun () ->
      for i = 100 to 183 do
        ignore (call rig (Nfs.Write (reg_fh i, 0L, Nfs.Unstable, Nfs.Synthetic 256)))
      done;
      let misses = Smallfile.cache_misses rig.sf in
      (* map blocks: <= 2 of the misses come from the descriptor array *)
      check_bool "few map misses" true (misses < 90))

(* A full backing store answers ERR_NOSPC instead of crashing the
   server fiber, and the server keeps serving afterwards. *)
let full_disk_is_an_error () =
  let rig = mk_rig ~backing_bytes:16_384L () in
  run_on rig.eng (fun () ->
      (match call rig (Nfs.Write (reg_fh 1, 0L, Nfs.Unstable, Nfs.Synthetic 8192)) with
      | Ok _ -> ()
      | Error st -> Alcotest.failf "first write: %s" (Nfs.status_name st));
      expect_err "second write fills the disk" Nfs.ERR_NOSPC
        (call rig (Nfs.Write (reg_fh 2, 0L, Nfs.Unstable, Nfs.Synthetic 16384)));
      (* size not extended by the failed write *)
      (match call rig (Nfs.Getattr (reg_fh 2)) with
      | Ok (Nfs.RGetattr a) -> check_bool "failed write adds no bytes" true (a.Nfs.size = 0L)
      | _ -> Alcotest.fail "getattr after ENOSPC");
      (* freeing space makes writes succeed again *)
      (match call rig (Nfs.Remove (reg_fh 1, "f1")) with
      | Ok _ -> ()
      | Error st -> Alcotest.failf "remove: %s" (Nfs.status_name st));
      match call rig (Nfs.Write (reg_fh 3, 0L, Nfs.Unstable, Nfs.Synthetic 4096)) with
      | Ok _ -> ()
      | Error st -> Alcotest.failf "write after remove: %s" (Nfs.status_name st))

(* Small-file servers are dataless: an ensemble without storage nodes has
   nowhere to put their zones. *)
let needs_storage_nodes () =
  Alcotest.check_raises "small-file servers need storage nodes"
    (Invalid_argument "Ensemble.create: small-file servers are dataless and need storage nodes")
    (fun () ->
      ignore
        (Slice.Ensemble.create
           { Slice.Ensemble.default_config with storage_nodes = 0; smallfile_servers = 1 }))

(* Real bytes are kept per 8 KB block, as the baseline server and the
   storage nodes keep them. A shrink zeroes the bytes past the new size,
   so growing the file again reads zeros there. A read answers with real
   bytes only when every block it covers holds some: a file whose first
   real write lands in block 2 reads synthetic from offset 0. An export
   carries zeros where a file holds no real bytes, and the importing
   server then holds every exported byte as real. A synthetic write
   forgets a file's real bytes. *)
let real_bytes_by_block () =
  let rig = mk_rig () in
  let a = reg_fh 20 and b = reg_fh 21 in
  let data = String.init 12000 (fun i -> Char.chr (65 + (i mod 26))) in
  let grown = String.sub data 0 9000 ^ String.make 2000 '\000' ^ "tail" in
  let far = String.make 100 'x' in
  let read rig fh off count =
    match call rig (Nfs.Read (fh, Int64.of_int off, count)) with
    | Ok (Nfs.RRead (Nfs.Data d, _, _)) -> Some d
    | Ok (Nfs.RRead (Nfs.Synthetic n, _, _)) ->
        check_int "synthetic length" count n;
        None
    | _ -> Alcotest.fail "read"
  in
  let some = Alcotest.(check (option string)) in
  run_on rig.eng (fun () ->
      ignore (call rig (Nfs.Write (a, 0L, Nfs.Unstable, Nfs.Data data)));
      ignore (call rig (Nfs.Setattr (a, Nfs.sattr_size 9000L)));
      ignore (call rig (Nfs.Write (a, 11000L, Nfs.Unstable, Nfs.Data "tail")));
      some "shrink then grow reads zeros" (Some grown) (read rig a 0 11004);
      ignore (call rig (Nfs.Write (b, 16384L, Nfs.Unstable, Nfs.Data far)));
      some "the written block" (Some far) (read rig b 16384 100);
      some "blocks never written" None (read rig b 0 16484));
  let img = Smallfile.export_site rig.sf 0 in
  check_bool "image bytes" true (Smallfile.image_bytes img = Int64.of_int (11004 + 16484));
  let rig2 = mk_rig () in
  Smallfile.import_site rig2.sf 0 img;
  run_on rig2.eng (fun () ->
      some "imported file" (Some grown) (read rig2 a 0 11004);
      some "imported zeros" (Some (String.make 16384 '\000' ^ far)) (read rig2 b 0 16484));
  run_on rig.eng (fun () ->
      ignore (call rig (Nfs.Write (a, 0L, Nfs.Unstable, Nfs.Synthetic 10)));
      some "a synthetic write forgets the real bytes" None (read rig a 11000 4))

(* The zone backend splits a block run on stripe-chunk boundaries and
   sends one request per chunk, each from its own fiber. The fibers
   start last chunk first, so requests that leave at the same simulated
   instant keep that order; a change to it would reorder engine events
   and move simulated results. *)
(* A small-file manager host whose zone backend stripes over one
   storage site on one node, with a 32 KB stripe unit and no
   coordinator. *)
let zone_rig () =
  let eng = Engine.create () in
  let net = Net.create eng () in
  let node = Host.create net ~name:"storage" ~disks:8 () in
  let _obsd : Slice_storage.Obsd.t = Slice_storage.Obsd.attach node () in
  let mgr = Host.create net ~name:"sf" () in
  let rpc = Rpc.create net mgr.Host.addr ~port:1900 in
  let backend =
    Slice_smallfile.Zone.backend eng rpc ~nsites:1
      ~resolve:(fun _ -> node.Host.addr)
      ~coordinator:(fun () -> None)
      ~sf_idx:0 ~stripe_unit:32768 ()
  in
  (eng, net, node, mgr, rpc, backend)

let zone_chunks_last_first () =
  let eng, net, _, mgr, _, backend = zone_rig () in
  let sent = ref [] in
  Net.add_egress_filter net mgr.Host.addr (fun pkt ->
      (match Codec.decode_call pkt.Slice_net.Packet.payload with
      | xid, Nfs.Read (_, off, len) -> sent := (xid, Int64.to_int off, len) :: !sent
      | _ -> Alcotest.fail "zone read sent something else");
      Some pkt);
  (* blocks 2..9 of 8 KB: chunk 0 holds blocks 2-3, chunk 1 blocks 4-7,
     chunk 2 blocks 8-9 *)
  let returned = ref false in
  run_on eng (fun () ->
      backend.Slice_disk.Bcache.demand_read ~obj:2L ~block:2 ~count:8 ~sequential:false;
      returned := true);
  check_bool "the demand read returned" true !returned;
  let sent = List.rev !sent in
  Alcotest.(check (list (pair int int)))
    "chunks leave last first" [ (65536, 16384); (32768, 32768); (16384, 16384) ]
    (List.map (fun (_, off, len) -> (off, len)) sent);
  let xids = List.map (fun (xid, _, _) -> xid) sent in
  check_bool "xids drawn in send order" true (xids = List.sort compare xids)

(* Words one warmed small-file READ handler call allocates, over a
   cached 5000-byte synthetic file: a round trip to the server less one
   to a stub answering the same reply shape (see [Helpers.rtt_words]).
   Pinned at the count with the one-record attributes and one site hash
   per request. *)
let read_handler_words () =
  let fh = reg_fh 9 in
  let write = Nfs.Write (fh, 0L, Nfs.Unstable, Nfs.Synthetic 5000) in
  let read = Nfs.Read (fh, 0L, 5000) in
  let server = rtt_words ~prep:write (fun h -> ignore (Smallfile.attach h ())) read in
  let reply = Ok (Nfs.RRead (Nfs.Synthetic 5000, true, Nfs.data_attr fh 5000)) in
  let stub = rtt_words ~prep:write (stub_server ~per_op:70e-6 ~per_byte:4e-9 reply) read in
  let words = server -. stub in
  check_bool (Printf.sprintf "small-file read handler allocates %.2f words (pinned 26)" words) true
    (words <= 26.01)

(* Words the zone backend adds to one chunk's I/O: a warmed one-block
   demand read through [Zone.backend] to a storage node, less the same
   READ sent by hand. Pinned at the count of the list-free fan-out and
   the zone handles built once per backend. *)
let zone_chunk_words () =
  let read = ref None in
  let measure ~via_backend =
    let eng, net, node, mgr, rpc, backend = zone_rig () in
    (* learn the call from the backend's own first request *)
    Net.add_egress_filter net mgr.Host.addr (fun pkt ->
        if Option.is_none !read then read := Some (snd (Codec.decode_call pkt.Slice_net.Packet.payload));
        Some pkt);
    let once () =
      if via_backend then backend.Slice_disk.Bcache.demand_read ~obj:2L ~block:0 ~count:1 ~sequential:false
      else
        match !read with
        | Some call ->
            let xid = Rpc.fresh_xid rpc in
            ignore
              (Rpc.call rpc ~timeout:2.0 ~dst:node.Host.addr ~dport:2049
                 ~extra_size:(Codec.extra_size_of_call call) (Codec.encode_call ~xid call))
        | None -> Alcotest.fail "no zone read seen"
    in
    let per_call = ref infinity in
    run_on eng (fun () ->
        if not via_backend then backend.Slice_disk.Bcache.demand_read ~obj:2L ~block:0 ~count:1 ~sequential:false;
        for _ = 1 to 1024 do
          once ()
        done;
        let w0 = Gc.minor_words () in
        for _ = 1 to 1024 do
          once ()
        done;
        per_call := (Gc.minor_words () -. w0) /. 1024.);
    !per_call
  in
  let backend = measure ~via_backend:true in
  let by_hand = measure ~via_backend:false in
  let words = backend -. by_hand in
  check_bool (Printf.sprintf "zone chunk I/O adds %.2f words (pinned 35)" words) true (words <= 35.01)

(* A small-file server owns its files' attributes, so its zone I/O
   reaches the storage nodes and the coordinator only: under a SPECsfs
   mix, no packet from a small-file server's host reaches a directory
   server, a SETATTR least of all. *)
let zone_io_skips_dir_servers () =
  let module Ensemble = Slice.Ensemble in
  let module Specsfs = Slice_workload.Specsfs in
  let ens =
    Ensemble.create
      { Ensemble.default_config with storage_nodes = 2; dir_servers = 2; smallfile_cache = 1 lsl 20 }
  in
  let net = Ensemble.net ens in
  let sf_hosts = List.init (Ensemble.servers ens Smallfile) (Ensemble.server_addr ens Smallfile) in
  let to_dir = ref 0 and setattrs = ref 0 and to_storage = ref 0 in
  for i = 0 to Ensemble.servers ens Storage - 1 do
    Net.add_ingress_filter net (Ensemble.server_addr ens Storage i) (fun pkt ->
        if List.mem pkt.Slice_net.Packet.src sf_hosts then incr to_storage;
        Some pkt)
  done;
  for i = 0 to Ensemble.servers ens Dir - 1 do
    Net.add_ingress_filter net (Ensemble.server_addr ens Dir i) (fun pkt ->
        if List.mem pkt.Slice_net.Packet.src sf_hosts then begin
          incr to_dir;
          match Codec.decode_call pkt.Slice_net.Packet.payload with
          | _, Nfs.Setattr _ -> incr setattrs
          | _ | (exception Codec.Malformed _) -> ()
        end;
        Some pkt)
  done;
  let host, _ = Ensemble.add_client ens ~name:"c" in
  let clients = [| Slice_workload.Client.create host ~server:(Ensemble.virtual_addr ens) () |] in
  let r =
    Specsfs.run (Ensemble.engine ens) ~clients ~root:Ensemble.root
      {
        Specsfs.default_config with
        offered_iops = 150.0;
        processes = 2;
        duration = 2.0;
        warmup = 0.5;
        bytes_per_iops = 20_000.0;
      }
  in
  check_int "no errors" 0 r.Specsfs.errors;
  check_bool "small files were written" true
    (Array.exists (fun sf -> Smallfile.writes sf > 0) (Ensemble.smallfiles ens));
  check_bool "zone I/O reached the storage nodes" true (!to_storage > 0);
  check_int "no SETATTR from a small-file server" 0 !setattrs;
  check_int "no packet from a small-file server to a directory server" 0 !to_dir

let suite =
  [
    ("physical size rounding", `Quick, physical_rounding);
    ("paper's 8300-byte example", `Quick, paper_example_8300);
    ("write/read real data", `Quick, write_read_real_data);
    ("growth reallocates fragments", `Quick, growth_reallocates);
    ("remove frees space", `Quick, remove_frees_space);
    ("truncate partial and zero", `Quick, truncate_to_zero_and_partial);
    ("real bytes by block", `Quick, real_bytes_by_block);
    ("fragment reuse", `Quick, fragment_reuse);
    ("stable write commits", `Quick, stable_write_commits);
    ("commit then read cached", `Quick, commit_then_read_cached);
    ("map block locality", `Quick, map_block_locality);
    ("full disk is an error", `Quick, full_disk_is_an_error);
    ("ensemble refuses small-file servers without storage", `Quick, needs_storage_nodes);
    ("zone chunks leave last first", `Quick, zone_chunks_last_first);
    ("read handler words pinned", `Quick, read_handler_words);
    ("zone chunk I/O words pinned", `Quick, zone_chunk_words);
    ("zone I/O skips the directory servers", `Quick, zone_io_skips_dir_servers);
  ]
