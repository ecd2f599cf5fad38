open Helpers
module Engine = Slice_sim.Engine
module Net = Slice_net.Net
module Rpc = Slice_net.Rpc
module Nfs = Slice_nfs.Nfs
module Fh = Slice_nfs.Fh
module Codec = Slice_nfs.Codec
module Host = Slice_storage.Host
module Obsd = Slice_storage.Obsd
module Coordinator = Slice_storage.Coordinator
module Ctrl = Slice_storage.Ctrl
module Packet = Slice_net.Packet
module Nfs_endpoint = Slice_storage.Nfs_endpoint

let reg_fh id =
  { Fh.file_id = Int64.of_int id; gen = 1; ftype = Fh.Reg; mirrored = false; attr_site = 0; cap = 0L }

type rig = {
  eng : Engine.t;
  net : Net.t;
  nodes : Obsd.t array;
  coord : Coordinator.t;
  rpc : Rpc.t;
}

let mk_rig ?(nodes = 2) ?probe_timeout () =
  let eng = Engine.create () in
  let net = Net.create eng () in
  let hosts =
    Array.init nodes (fun i ->
        Host.create net ~name:(Printf.sprintf "s%d" i) ~cpu_scale:1.6 ~disks:8 ())
  in
  let obsds = Array.map (fun h -> Obsd.attach h ()) hosts in
  let coord =
    Coordinator.attach hosts.(0) ?probe_timeout
      ~map_sites:(Array.map (fun (h : Host.t) -> h.Host.addr) hosts)
      ()
  in
  let client = Host.create net ~name:"client" () in
  let rpc = Rpc.create net client.Host.addr ~port:1000 in
  { eng; net; nodes = obsds; coord; rpc }

let nfs_call rig ~dst call =
  let xid = Rpc.fresh_xid rig.rpc in
  let payload = Codec.encode_call ~xid call in
  let reply =
    Rpc.call rig.rpc ~dst ~dport:2049 ~extra_size:(Codec.extra_size_of_call call) payload
  in
  snd (Codec.decode_reply reply)

let ctrl_call rig msg =
  let xid = Rpc.fresh_xid rig.rpc in
  let reply =
    Rpc.call rig.rpc ~timeout:2.0 ~dst:(Coordinator.addr rig.coord)
      ~dport:(Coordinator.port rig.coord) (Ctrl.encode_msg ~xid msg)
  in
  snd (Ctrl.decode_reply reply)

(* ---- Obsd ---- *)

let obsd_write_read_roundtrip () =
  let rig = mk_rig () in
  let dst = Obsd.addr rig.nodes.(0) in
  run_on rig.eng (fun () ->
      let fh = reg_fh 1 in
      let data = String.init 300 (fun i -> Char.chr (i mod 256)) in
      (match nfs_call rig ~dst (Nfs.Write (fh, 0L, Nfs.Unstable, Nfs.Data data)) with
      | Ok (Nfs.RWrite (n, _, a)) ->
          check_int "count written" 300 n;
          check_bool "size" true (a.Nfs.size = 300L)
      | _ -> Alcotest.fail "write");
      match nfs_call rig ~dst (Nfs.Read (fh, 0L, 300)) with
      | Ok (Nfs.RRead (Nfs.Data d, eof, _)) ->
          check_string "data back" data d;
          check_bool "eof" true eof
      | _ -> Alcotest.fail "read")

let obsd_synthetic_and_clip () =
  let rig = mk_rig () in
  let dst = Obsd.addr rig.nodes.(0) in
  run_on rig.eng (fun () ->
      let fh = reg_fh 2 in
      ignore (nfs_call rig ~dst (Nfs.Write (fh, 0L, Nfs.Unstable, Nfs.Synthetic 100_000)));
      (match nfs_call rig ~dst (Nfs.Read (fh, 90_000L, 32768)) with
      | Ok (Nfs.RRead (Nfs.Synthetic n, eof, _)) ->
          check_int "clipped to size" 10_000 n;
          check_bool "eof at end" true eof
      | _ -> Alcotest.fail "read");
      match nfs_call rig ~dst (Nfs.Read (fh, 200_000L, 32768)) with
      | Ok (Nfs.RRead (d, eof, _)) ->
          check_int "past eof empty" 0 (Nfs.wdata_length d);
          check_bool "eof" true eof
      | _ -> Alcotest.fail "read past eof")

let obsd_offset_windows_are_independent () =
  (* sparse offsets: blocks don't bleed into each other *)
  let rig = mk_rig () in
  let dst = Obsd.addr rig.nodes.(0) in
  run_on rig.eng (fun () ->
      let fh = reg_fh 3 in
      ignore (nfs_call rig ~dst (Nfs.Write (fh, 8192L, Nfs.Unstable, Nfs.Data "BBBB")));
      ignore (nfs_call rig ~dst (Nfs.Write (fh, 0L, Nfs.Unstable, Nfs.Data "AAAA")));
      match nfs_call rig ~dst (Nfs.Read (fh, 8192L, 4)) with
      | Ok (Nfs.RRead (Nfs.Data d, _, _)) -> check_string "second block" "BBBB" d
      | _ -> Alcotest.fail "read")

let obsd_remove_and_getattr () =
  let rig = mk_rig () in
  let dst = Obsd.addr rig.nodes.(0) in
  run_on rig.eng (fun () ->
      let fh = reg_fh 4 in
      ignore (nfs_call rig ~dst (Nfs.Write (fh, 0L, Nfs.Unstable, Nfs.Data "xyz")));
      check_bool "object exists" true (Obsd.object_size rig.nodes.(0) fh = Some 3L);
      ignore (nfs_call rig ~dst (Nfs.Remove (fh, "")));
      check_bool "object gone" true (Obsd.object_size rig.nodes.(0) fh = None);
      match nfs_call rig ~dst (Nfs.Getattr fh) with
      | Ok (Nfs.RGetattr a) -> check_bool "size 0 after remove" true (a.Nfs.size = 0L)
      | _ -> Alcotest.fail "getattr")

let obsd_commit_stable () =
  let rig = mk_rig () in
  let node = rig.nodes.(0) in
  let dst = Obsd.addr node in
  run_on rig.eng (fun () ->
      let fh = reg_fh 5 in
      ignore (nfs_call rig ~dst (Nfs.Write (fh, 0L, Nfs.Unstable, Nfs.Synthetic 65536)));
      let disk_ops_before = Slice_disk.Disk.ops (Obsd.disk node) in
      (match nfs_call rig ~dst (Nfs.Commit (fh, 0L, 0)) with
      | Ok (Nfs.RCommit _) -> ()
      | _ -> Alcotest.fail "commit");
      check_bool "commit forced disk writes" true
        (Slice_disk.Disk.ops (Obsd.disk node) > disk_ops_before))

let obsd_truncate () =
  let rig = mk_rig () in
  let dst = Obsd.addr rig.nodes.(0) in
  run_on rig.eng (fun () ->
      let fh = reg_fh 6 in
      ignore (nfs_call rig ~dst (Nfs.Write (fh, 0L, Nfs.Unstable, Nfs.Synthetic 50_000)));
      ignore (nfs_call rig ~dst (Nfs.Setattr (fh, Nfs.sattr_size 10_000L)));
      match nfs_call rig ~dst (Nfs.Getattr fh) with
      | Ok (Nfs.RGetattr a) -> check_bool "truncated" true (a.Nfs.size = 10_000L)
      | _ -> Alcotest.fail "getattr")

let obsd_name_op_rejected () =
  let rig = mk_rig () in
  let dst = Obsd.addr rig.nodes.(0) in
  run_on rig.eng (fun () ->
      match nfs_call rig ~dst (Nfs.Lookup (Fh.root, "x")) with
      | Error Nfs.ERR_NOTDIR -> ()
      | _ -> Alcotest.fail "storage node must reject name ops")

(* ---- Coordinator ---- *)

let coord_orchestrated_remove () =
  let rig = mk_rig () in
  run_on rig.eng (fun () ->
      let fh = reg_fh 7 in
      (* put data on both nodes (as stripes would) *)
      Array.iter
        (fun node ->
          ignore
            (nfs_call rig ~dst:(Obsd.addr node) (Nfs.Write (fh, 0L, Nfs.Unstable, Nfs.Data "d"))))
        rig.nodes;
      let sites = Array.to_list (Array.map Obsd.addr rig.nodes) in
      (match ctrl_call rig (Ctrl.Remove_file { fh; sites }) with
      | Ctrl.Ack -> ()
      | _ -> Alcotest.fail "remove_file");
      Array.iter
        (fun node -> check_bool "gone everywhere" true (Obsd.object_size node fh = None))
        rig.nodes;
      check_int "no pending intents" 0 (Coordinator.pending_intents rig.coord);
      check_bool "logged" true (Coordinator.intents_logged rig.coord >= 1))

let coord_commit_file () =
  let rig = mk_rig () in
  run_on rig.eng (fun () ->
      let fh = reg_fh 8 in
      Array.iter
        (fun node ->
          ignore
            (nfs_call rig ~dst:(Obsd.addr node)
               (Nfs.Write (fh, 0L, Nfs.Unstable, Nfs.Synthetic 32768))))
        rig.nodes;
      let sites = Array.to_list (Array.map Obsd.addr rig.nodes) in
      match ctrl_call rig (Ctrl.Commit_file { fh; sites }) with
      | Ctrl.Ack ->
          Array.iter
            (fun node ->
              check_bool "disk touched" true (Slice_disk.Disk.ops (Obsd.disk node) > 0))
            rig.nodes
      | _ -> Alcotest.fail "commit_file")

let coord_intent_complete () =
  let rig = mk_rig () in
  run_on rig.eng (fun () ->
      let fh = reg_fh 9 in
      let sites = Array.to_list (Array.map Obsd.addr rig.nodes) in
      (match
         ctrl_call rig (Ctrl.Intent { op_id = 1234L; kind = Ctrl.K_mirror_write; fh; participants = sites })
       with
      | Ctrl.Ack -> ()
      | _ -> Alcotest.fail "intent");
      check_int "one pending" 1 (Coordinator.pending_intents rig.coord);
      (match ctrl_call rig (Ctrl.Complete { op_id = 1234L }) with
      | Ctrl.Ack -> ()
      | _ -> Alcotest.fail "complete");
      check_int "none pending" 0 (Coordinator.pending_intents rig.coord);
      check_int "no redo needed" 0 (Coordinator.redos rig.coord))

let coord_probe_redoes_abandoned_intent () =
  let rig = mk_rig ~probe_timeout:0.2 () in
  run_on rig.eng (fun () ->
      let fh = reg_fh 10 in
      ignore
        (nfs_call rig ~dst:(Obsd.addr rig.nodes.(0))
           (Nfs.Write (fh, 0L, Nfs.Unstable, Nfs.Data "zz")));
      let sites = [ Obsd.addr rig.nodes.(0) ] in
      ignore
        (ctrl_call rig (Ctrl.Intent { op_id = 77L; kind = Ctrl.K_remove; fh; participants = sites }));
      (* never send the completion: the probe must fire and redo *)
      Engine.sleep rig.eng 1.0;
      check_int "redo happened" 1 (Coordinator.redos rig.coord);
      check_int "intent resolved" 0 (Coordinator.pending_intents rig.coord);
      check_bool "remove redone" true (Obsd.object_size rig.nodes.(0) fh = None))

let coord_crash_recovery_redoes () =
  let rig = mk_rig ~probe_timeout:60.0 () in
  run_on rig.eng (fun () ->
      let fh = reg_fh 11 in
      ignore
        (nfs_call rig ~dst:(Obsd.addr rig.nodes.(0))
           (Nfs.Write (fh, 0L, Nfs.Unstable, Nfs.Data "qq")));
      ignore
        (ctrl_call rig
           (Ctrl.Intent
              { op_id = 88L; kind = Ctrl.K_remove; fh; participants = [ Obsd.addr rig.nodes.(0) ] }));
      (* crash before the completion arrives *)
      Coordinator.crash rig.coord;
      Coordinator.recover rig.coord;
      Engine.sleep rig.eng 1.0;
      check_bool "recovery drove the remove" true (Obsd.object_size rig.nodes.(0) fh = None);
      check_int "redo counted" 1 (Coordinator.redos rig.coord))

let coord_completion_survives_crash () =
  let rig = mk_rig ~probe_timeout:60.0 () in
  run_on rig.eng (fun () ->
      let fh = reg_fh 12 in
      ignore
        (nfs_call rig ~dst:(Obsd.addr rig.nodes.(0))
           (Nfs.Write (fh, 0L, Nfs.Unstable, Nfs.Data "keep me")));
      ignore
        (ctrl_call rig
           (Ctrl.Intent
              { op_id = 99L; kind = Ctrl.K_remove; fh; participants = [ Obsd.addr rig.nodes.(0) ] }));
      ignore (ctrl_call rig (Ctrl.Complete { op_id = 99L }));
      (* the async completion record may be unsynced; force a round by
         logging another intent (which syncs) *)
      ignore
        (ctrl_call rig
           (Ctrl.Intent
              { op_id = 100L; kind = Ctrl.K_commit; fh; participants = [ Obsd.addr rig.nodes.(0) ] }));
      ignore (ctrl_call rig (Ctrl.Complete { op_id = 100L }));
      Coordinator.crash rig.coord;
      Coordinator.recover rig.coord;
      Engine.sleep rig.eng 1.0;
      (* op 99 completed: recovery must NOT redo the remove *)
      check_bool "completed op not redone" true
        (Obsd.object_size rig.nodes.(0) fh = Some 7L))

let coord_block_maps () =
  let rig = mk_rig () in
  run_on rig.eng (fun () ->
      let fh = reg_fh 13 in
      match ctrl_call rig (Ctrl.Get_map { fh; first_block = 0; count = 8 }) with
      | Ctrl.Map { first_block = 0; sites } ->
          check_int "eight entries" 8 (Array.length sites);
          let valid = Array.to_list (Array.map Obsd.addr rig.nodes) in
          Array.iter (fun s -> check_bool "valid site" true (List.mem s valid)) sites;
          (* rotation: consecutive blocks alternate over the two nodes *)
          check_bool "rotates" true (sites.(0) <> sites.(1));
          (* stable: a second fetch returns the same map *)
          (match ctrl_call rig (Ctrl.Get_map { fh; first_block = 0; count = 8 }) with
          | Ctrl.Map { sites = sites2; _ } -> check_bool "stable" true (sites = sites2)
          | _ -> Alcotest.fail "refetch");
          check_int "one map entry" 1 (Coordinator.map_entries rig.coord)
      | _ -> Alcotest.fail "get_map")

(* ---- duplicate-request cache ---- *)

(* A Create whose reply is lost: the retransmission must get the original
   reply bytes from the cache, and the handler must not run again (a
   second create of the name would be a different operation). *)
let drc_replays_lost_reply () =
  let eng = Engine.create () in
  let net = Net.create eng () in
  let server = Host.create net ~name:"srv" () in
  let client = Host.create net ~name:"cli" () in
  let runs = ref 0 in
  let made = reg_fh 21 in
  Nfs_endpoint.serve server ~port:2049
    ~cost:{ Nfs_endpoint.per_op = 10e-6; per_byte = 0.0 }
    ~handler:(fun _ call ->
      incr runs;
      match call with
      | Nfs.Create _ ->
          Ok (Nfs.RCreate (made, Nfs.default_attr ~ftype:Fh.Reg ~fileid:21L ~now:(Engine.now eng)))
      | _ -> Error Nfs.ERR_IO)
    ();
  let lost = ref None in
  Net.add_ingress_filter net client.Host.addr (fun pkt ->
      match !lost with
      | None when pkt.Packet.src = server.Host.addr ->
          lost := Some (Bytes.copy pkt.Packet.payload);
          None
      | _ -> Some pkt);
  let rpc = Rpc.create net client.Host.addr ~port:1000 in
  let reply =
    run_on eng (fun () ->
        let xid = Rpc.fresh_xid rpc in
        Rpc.call rpc ~dst:server.Host.addr ~dport:2049
          (Codec.encode_call ~xid (Nfs.Create (Fh.root, "f"))))
  in
  check_int "handler ran once" 1 !runs;
  check_int "one retransmission" 1 (Rpc.retransmissions rpc);
  match !lost with
  | Some first -> check_bool "replayed reply is byte-identical" true (Bytes.equal first reply)
  | None -> Alcotest.fail "no reply was dropped"

let suite =
  [
    ("nfs endpoint DRC replays a lost reply", `Quick, drc_replays_lost_reply);
    ("obsd write/read roundtrip", `Quick, obsd_write_read_roundtrip);
    ("obsd synthetic and clip", `Quick, obsd_synthetic_and_clip);
    ("obsd sparse blocks independent", `Quick, obsd_offset_windows_are_independent);
    ("obsd remove and getattr", `Quick, obsd_remove_and_getattr);
    ("obsd commit stable", `Quick, obsd_commit_stable);
    ("obsd truncate", `Quick, obsd_truncate);
    ("obsd rejects name ops", `Quick, obsd_name_op_rejected);
    ("coordinator orchestrated remove", `Quick, coord_orchestrated_remove);
    ("coordinator commit file", `Quick, coord_commit_file);
    ("coordinator intent/complete", `Quick, coord_intent_complete);
    ("coordinator probe redoes abandoned intent", `Quick, coord_probe_redoes_abandoned_intent);
    ("coordinator crash recovery redoes", `Quick, coord_crash_recovery_redoes);
    ("coordinator completion survives crash", `Quick, coord_completion_survives_crash);
    ("coordinator block maps", `Quick, coord_block_maps);
  ]
