open Helpers
module Engine = Slice_sim.Engine
module Net = Slice_net.Net
module Rpc = Slice_net.Rpc
module Nfs = Slice_nfs.Nfs
module Fh = Slice_nfs.Fh
module Codec = Slice_nfs.Codec
module Host = Slice_storage.Host
module Obsd = Slice_storage.Obsd
module Tenure = Slice_storage.Tenure
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
      ~dport:Ctrl.port (Ctrl.encode_msg ~xid msg)
  in
  Ctrl.decode_reply reply

(* ---- Tenure ---- *)

let tenure_sites_drains_load () =
  let tn = Tenure.create [ 2; 0 ] in
  check_bool "initial sites, ascending" true (Tenure.owned_sites tn = [ 0; 2 ]);
  Tenure.own tn 1;
  Tenure.own tn 1;
  check_bool "own is idempotent" true (Tenure.owned_sites tn = [ 0; 1; 2 ]);
  (* an owned site answers both paths and counts its load *)
  check_bool "read admitted" true (Tenure.admit_read tn 1);
  check_bool "write admitted" true (Tenure.admit_write tn 1);
  check_int "admissions counted" 2 (Tenure.site_load tn 1);
  (* a site not owned is refused without counting anything *)
  check_bool "foreign read refused" false (Tenure.admit_read tn 7);
  check_bool "foreign write refused" false (Tenure.admit_write tn 7);
  check_int "no load for a foreign site" 0 (Tenure.site_load tn 7);
  check_int "no drain bounce for a foreign site" 0 (Tenure.drain_bounces tn);
  (* a drain keeps reads, bounces writes *)
  Tenure.begin_drain tn 1;
  check_bool "draining" true (Tenure.in_drain tn 1);
  check_bool "still owned" true (Tenure.owns tn 1);
  check_bool "read during drain" true (Tenure.admit_read tn 1);
  check_bool "write during drain" false (Tenure.admit_write tn 1);
  check_int "drain bounce counted" 1 (Tenure.drain_bounces tn);
  check_int "only the read counted" 3 (Tenure.site_load tn 1);
  Tenure.end_drain tn 1;
  check_bool "write after drain" true (Tenure.admit_write tn 1);
  (* drains apply only to owned sites *)
  Tenure.begin_drain tn 7;
  check_bool "no drain on a foreign site" false (Tenure.in_drain tn 7);
  check_bool "drain does not claim the site" false (Tenure.owns tn 7);
  (* disown ends the drain: re-owning serves writes straight away *)
  Tenure.begin_drain tn 2;
  Tenure.disown tn 2;
  check_bool "disowned" false (Tenure.owns tn 2);
  check_bool "disown ended the drain" false (Tenure.in_drain tn 2);
  Tenure.own tn 2;
  check_bool "re-owned site takes writes" true (Tenure.admit_write tn 2);
  (* a crash forgets every drain and counts itself *)
  Tenure.begin_drain tn 0;
  Tenure.begin_drain tn 1;
  Tenure.crash tn;
  check_bool "down" false (Tenure.is_up tn);
  check_int "one crash" 1 (Tenure.crashes tn);
  check_bool "drains cleared" false (Tenure.in_drain tn 0 || Tenure.in_drain tn 1);
  check_bool "ownership survives" true (Tenure.owned_sites tn = [ 0; 1; 2 ]);
  Tenure.recover tn;
  check_bool "up again" true (Tenure.is_up tn);
  check_int "recovery keeps the count" 1 (Tenure.crashes tn);
  (* load: per site, summed over owned sites only *)
  Tenure.note tn 0;
  Tenure.note tn 7;
  check_int "summed load of owned sites" (4 + 1 + 1) (Tenure.load tn);
  Tenure.reset_load tn 1;
  check_int "reset forgets the row" 0 (Tenure.site_load tn 1);
  check_int "sum after reset" 2 (Tenure.load tn)

let tenure_lease () =
  let tn = Tenure.create [] in
  check_bool "infinite initial lease" false (Tenure.wedged tn ~now:1e9);
  check_int "initial epoch" 0 (Tenure.lease_epoch tn);
  Tenure.set_lease tn ~epoch:3 ~until:10.0;
  check_int "granted epoch" 3 (Tenure.lease_epoch tn);
  check_bool "serving up to the expiry" false (Tenure.wedged tn ~now:10.0);
  check_bool "wedged past the expiry" true (Tenure.wedged tn ~now:10.5);
  Tenure.note_fence tn;
  check_int "fence bounce counted" 1 (Tenure.fence_bounces tn);
  Tenure.set_lease tn ~epoch:4 ~until:20.0;
  check_bool "renewal unwedges" false (Tenure.wedged tn ~now:10.5)

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

(* A READ of an object, or of a site of an object, that the node never
   stored answers 0 bytes at EOF and stores nothing: no subobject, so no
   size and no row in a site export (an import of the export on another
   node brings no object). *)
let obsd_read_of_nothing_stores_nothing () =
  let rig = mk_rig () in
  let eng = rig.eng in
  let net = rig.net in
  let host name = Host.create net ~name ~cpu_scale:1.6 ~disks:8 () in
  let node = Obsd.attach (host "two-site") ~sites:[ 0; 1 ] () in
  let spare = Obsd.attach (host "spare") ~sites:[ 0; 1 ] () in
  let dst = Obsd.addr node in
  let imported site fh =
    Obsd.import_site spare site (Obsd.export_site node site);
    Obsd.object_size spare fh
  in
  let read_empty label fh off =
    match nfs_call rig ~dst (Nfs.Read (fh, off, 4096)) with
    | Ok (Nfs.RRead (d, eof, a)) ->
        check_int (label ^ ": no bytes") 0 (Nfs.wdata_length d);
        check_bool (label ^ ": eof") true eof;
        check_bool (label ^ ": size 0") true (a.Nfs.size = 0L)
    | _ -> Alcotest.fail (label ^ ": read")
  in
  run_on eng (fun () ->
      let fresh = reg_fh 21 in
      read_empty "fresh handle" fresh 0L;
      check_bool "fresh handle: no object" true (Obsd.object_size node fresh = None);
      check_bool "fresh handle: no exported row" true (imported 0 fresh = None);
      (* the object exists at site 0; its site 1 was never written *)
      let fh = reg_fh 22 in
      ignore (nfs_call rig ~dst (Nfs.Write (fh, 0L, Nfs.Unstable, Nfs.Data "xyz")));
      read_empty "unwritten site" fh (Int64.of_int Slice_nfs.Routekey.site_stride_int);
      check_bool "unwritten site: size of the written site" true
        (Obsd.object_size node fh = Some 3L);
      check_bool "unwritten site: no exported row" true (imported 1 fh = None))

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

(* An expired lease wedges the node: reads and writes both bounce, each
   bounce is counted, and a fresh grant brings the node back. *)
let obsd_fenced_by_lease () =
  let rig = mk_rig () in
  let node = rig.nodes.(0) in
  let dst = Obsd.addr node in
  let tn = Obsd.tenure node in
  run_on rig.eng (fun () ->
      let fh = reg_fh 9 in
      ignore (nfs_call rig ~dst (Nfs.Write (fh, 0L, Nfs.Unstable, Nfs.Data "live")));
      Tenure.set_lease tn ~epoch:1 ~until:(Engine.now rig.eng -. 1.0);
      let misdirected what = function
        | Error Nfs.ERR_MISDIRECTED -> ()
        | _ -> Alcotest.failf "%s served by a wedged node" what
      in
      misdirected "read" (nfs_call rig ~dst (Nfs.Read (fh, 0L, 4)));
      misdirected "write" (nfs_call rig ~dst (Nfs.Write (fh, 0L, Nfs.Unstable, Nfs.Data "dead")));
      check_int "both bounces counted" 2 (Tenure.fence_bounces tn);
      Tenure.set_lease tn ~epoch:2 ~until:(Engine.now rig.eng +. 10.0);
      match nfs_call rig ~dst (Nfs.Read (fh, 0L, 4)) with
      | Ok (Nfs.RRead (Nfs.Data d, _, _)) ->
          check_string "serves again; the fenced write never landed" "live" d;
          check_int "no further bounces" 2 (Tenure.fence_bounces tn)
      | _ -> Alcotest.fail "read after renewal")

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

(* Bytes past a shrinking SETATTR's size read as zeros after a write
   grows the object again, whether the size cut the block or dropped it
   whole. *)
let obsd_shrink_then_grow_reads_zeros () =
  let rig = mk_rig () in
  let dst = Obsd.addr rig.nodes.(0) in
  run_on rig.eng (fun () ->
      let read_back fh ~size expect =
        ignore (nfs_call rig ~dst (Nfs.Write (fh, 0L, Nfs.Unstable, Nfs.Data "ABCDEFGH")));
        ignore (nfs_call rig ~dst (Nfs.Setattr (fh, Nfs.sattr_size size)));
        ignore (nfs_call rig ~dst (Nfs.Write (fh, 6L, Nfs.Unstable, Nfs.Data "Z")));
        match nfs_call rig ~dst (Nfs.Read (fh, 0L, 8)) with
        | Ok (Nfs.RRead (Nfs.Data d, _, _)) -> check_string (Printf.sprintf "cut to %Ld" size) expect d
        | _ -> Alcotest.fail "read"
      in
      read_back (reg_fh 7) ~size:0L "\000\000\000\000\000\000Z";
      read_back (reg_fh 8) ~size:3L "ABC\000\000\000Z")

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
      let sites = Array.map Obsd.addr rig.nodes in
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
      let sites = Array.map Obsd.addr rig.nodes in
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
      let sites = Array.map Obsd.addr rig.nodes in
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
      let sites = [| Obsd.addr rig.nodes.(0) |] in
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
              { op_id = 88L; kind = Ctrl.K_remove; fh; participants = [| Obsd.addr rig.nodes.(0) |] }));
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
              { op_id = 99L; kind = Ctrl.K_remove; fh; participants = [| Obsd.addr rig.nodes.(0) |] }));
      ignore (ctrl_call rig (Ctrl.Complete { op_id = 99L }));
      (* the async completion record may be unsynced; force a round by
         logging another intent (which syncs) *)
      ignore
        (ctrl_call rig
           (Ctrl.Intent
              { op_id = 100L; kind = Ctrl.K_commit; fh; participants = [| Obsd.addr rig.nodes.(0) |] }));
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

(* A coordinator attached without [map_sites] keeps no block maps: a
   [Get_map] gets an empty map, which a µproxy reads as "use static
   striping", not the Nack that sends a control message on to a
   successor. *)
let coord_without_maps () =
  let eng = Engine.create () in
  let net = Net.create eng () in
  let coord = Coordinator.attach (Host.create net ~name:"c" ~disks:1 ()) () in
  let rpc = Rpc.create net (Host.create net ~name:"client" ()).Host.addr ~port:1000 in
  run_on eng (fun () ->
      let xid = Rpc.fresh_xid rpc in
      let msg = Ctrl.Get_map { fh = reg_fh 14; first_block = 0; count = 8 } in
      match
        Ctrl.decode_reply
          (Rpc.call rpc ~timeout:2.0 ~dst:(Coordinator.addr coord) ~dport:Ctrl.port
             (Ctrl.encode_msg ~xid msg))
      with
      | Ctrl.Map { first_block = 0; sites } ->
          check_int "no entries" 0 (Array.length sites);
          check_int "no map kept" 0 (Coordinator.map_entries coord)
      | _ -> Alcotest.fail "get_map without maps")

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
    ~tenure:(Tenure.create [])
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

(* A server whose handler counts its runs per xid (sleeping [hold] inside
   each), and a bare client port that counts the replies it gets. [send
   xid] puts one Getattr on the wire without running the engine. *)
type drc_rig = {
  d_eng : Engine.t;
  server : Host.t;
  tenure : Tenure.t;
  runs : (int, int) Hashtbl.t;
  replies : int ref;
  send : int -> unit;
}

let mk_drc_rig ?(hold = 0.0) () =
  let eng = Engine.create () in
  let net = Net.create eng () in
  let server = Host.create net ~name:"srv" () in
  let client = Host.create net ~name:"cli" () in
  let runs = Hashtbl.create 16 in
  let replies = ref 0 in
  let tenure = Tenure.create [] in
  Nfs_endpoint.serve server ~port:2049
    ~cost:{ Nfs_endpoint.per_op = 10e-6; per_byte = 0.0 }
    ~tenure
    ~handler:(fun _ call ->
      (match call with
      | Nfs.Getattr fh ->
          let xid = Int64.to_int fh.Fh.file_id in
          Hashtbl.replace runs xid (1 + Option.value ~default:0 (Hashtbl.find_opt runs xid))
      | _ -> ());
      if hold > 0.0 then Engine.sleep eng hold;
      Error Nfs.ERR_IO)
    ();
  Net.listen net client.Host.addr ~port:1000 (fun _ -> incr replies);
  let send xid =
    Net.send net
      (Packet.make ~src:client.Host.addr ~dst:server.Host.addr ~sport:1000 ~dport:2049
         (Codec.encode_call ~xid (Nfs.Getattr (reg_fh xid))))
  in
  { d_eng = eng; server; tenure; runs; replies; send }

let runs_of r xid = Option.value ~default:0 (Hashtbl.find_opt r.runs xid)

(* Complete [xid] alone: send it and drain the engine. *)
let complete r xid =
  r.send xid;
  Engine.run r.d_eng

(* A retransmission that lands while the original is still running is
   dropped: the handler runs once and only the original's reply goes out.
   Once it has completed, a further retransmission is answered from the
   cache without running the handler. *)
let drc_drops_retransmission_while_running () =
  let r = mk_drc_rig ~hold:0.01 () in
  r.send 7;
  Engine.schedule r.d_eng 0.001 (fun () -> r.send 7);
  Engine.run r.d_eng;
  check_int "handler ran once" 1 (runs_of r 7);
  check_int "one reply" 1 !(r.replies);
  complete r 7;
  check_int "cache hit does not run the handler" 1 (runs_of r 7);
  check_int "cache hit replies" 2 !(r.replies)

(* A crash overtakes a request even when the server has recovered by the
   time the request would go on. One crashed and recovered while its
   handler runs sends no reply; one crashed and recovered during its
   10 µs CPU charge runs no handler. Neither leaves a row: the
   retransmission runs the handler afresh and is answered. A cache hit
   overtaken in its CPU charge sends no reply either. *)
let crash_overtakes_request () =
  let r = mk_drc_rig ~hold:0.01 () in
  let bounce () =
    Tenure.crash r.tenure;
    Tenure.recover r.tenure
  in
  let bounce_in_cpu_charge xid =
    let served = Slice_sim.Resource.served r.server.Host.cpu in
    let rec watch () =
      Engine.schedule r.d_eng 1e-6 (fun () ->
          if Slice_sim.Resource.served r.server.Host.cpu > served then bounce () else watch ())
    in
    watch ();
    r.send xid;
    Engine.run r.d_eng
  in
  r.send 1;
  Engine.schedule r.d_eng 0.005 bounce;
  Engine.run r.d_eng;
  check_int "the handler ran" 1 (runs_of r 1);
  check_int "but sent no reply" 0 !(r.replies);
  complete r 1;
  check_int "no row: the retransmission runs again" 2 (runs_of r 1);
  check_int "and is answered" 1 !(r.replies);
  bounce_in_cpu_charge 2;
  check_int "no handler run" 0 (runs_of r 2);
  check_int "no reply" 1 !(r.replies);
  complete r 2;
  check_int "the retransmission runs" 1 (runs_of r 2);
  check_int "and is answered too" 2 !(r.replies);
  bounce_in_cpu_charge 2;
  check_int "a cache hit runs nothing" 1 (runs_of r 2);
  check_int "and, overtaken, sends nothing" 2 !(r.replies)

(* The cache holds the 512 most recent completions: with 511 newer ones
   the oldest xid still hits, with 512 it has been evicted and runs
   again. *)
let drc_evicts_after_512 () =
  let r = mk_drc_rig () in
  complete r 1;
  for xid = 1000 to 1000 + 510 do
    complete r xid
  done;
  complete r 1;
  check_int "511 newer: still cached" 1 (runs_of r 1);
  let r = mk_drc_rig () in
  complete r 1;
  for xid = 1000 to 1000 + 511 do
    complete r xid
  done;
  complete r 1;
  check_int "512 newer: runs again" 2 (runs_of r 1)

(* A hit promotes its entry: xid 1, refreshed after 510 newer
   completions, survives the eviction that takes xid 2 instead. *)
let drc_hit_refreshes () =
  let r = mk_drc_rig () in
  complete r 1;
  complete r 2;
  for xid = 1000 to 1000 + 509 do
    complete r xid
  done;
  complete r 1;
  complete r 5000;
  complete r 1;
  check_int "refreshed xid is not run again" 1 (runs_of r 1);
  complete r 2;
  check_int "the older one was evicted" 2 (runs_of r 2)

(* Running requests are not DRC entries: 640 requests held running at
   once, each retransmitted while it runs, run their handler once per
   xid. Once all complete, the 512 newest completions hit and the 128
   oldest, evicted, run again. *)
let drc_running_outside_capacity () =
  let r = mk_drc_rig ~hold:1.0 () in
  let n = 640 in
  for xid = 1 to n do
    r.send xid
  done;
  Engine.schedule r.d_eng 0.5 (fun () ->
      for xid = 1 to n do
        r.send xid
      done);
  Engine.run r.d_eng;
  for xid = 1 to n do
    check_int (Printf.sprintf "xid %d ran once while running" xid) 1 (runs_of r xid)
  done;
  check_int "one reply per xid" n !(r.replies);
  for xid = n - 511 to n do
    complete r xid;
    check_int (Printf.sprintf "xid %d hit" xid) 1 (runs_of r xid)
  done;
  for xid = 1 to n - 512 do
    complete r xid;
    check_int (Printf.sprintf "xid %d ran again" xid) 2 (runs_of r xid)
  done

(* Steady-state words of one getattr round trip through [serve], client
   encode and RPC included: the request table, the pooled request
   records and packet deliveries allocate nothing, no encoder or decoder
   record is built, and no event time is boxed, so what is left is the
   payloads and packets, the decoded call and the fibers. 75.8 words on
   OCaml 5.1 x86-64; an encoder record per message, an [(xid, call)]
   pair, a boxed zero capability and a closure per request made it
   96.8. *)
let getattr_words_budget () =
  let eng = Engine.create () in
  let net = Net.create eng () in
  let server = Host.create net ~name:"srv" () in
  let client = Host.create net ~name:"cli" () in
  let attr = Nfs.default_attr ~ftype:Fh.Reg ~fileid:5L ~now:0.0 in
  let reply = Ok (Nfs.RGetattr attr) in
  Nfs_endpoint.serve server ~port:2049
    ~cost:{ Nfs_endpoint.per_op = 10e-6; per_byte = 0.0 }
    ~tenure:(Tenure.create [])
    ~handler:(fun _ _ -> reply)
    ();
  let rpc = Rpc.create net client.Host.addr ~port:1000 in
  let call = Nfs.Getattr (reg_fh 5) in
  let getattr () =
    let xid = Rpc.fresh_xid rpc in
    ignore (Rpc.call rpc ~dst:server.Host.addr ~dport:2049 (Codec.encode_call ~xid call))
  in
  let per_call = ref infinity in
  run_on eng (fun () ->
      (* past the request table's growth to its 512 cached replies *)
      for _ = 1 to 1024 do
        getattr ()
      done;
      let n = 1024 in
      let w0 = Gc.minor_words () in
      for _ = 1 to n do
        getattr ()
      done;
      per_call := (Gc.minor_words () -. w0) /. float_of_int n);
  check_bool (Printf.sprintf "getattr allocates %.1f words (budget 76)" !per_call) true
    (!per_call <= 76.0)

(* Words one warmed storage-node handler call allocates: a READ of a
   cached block and an UNSTABLE WRITE over a dirty one, each measured as
   the difference between a round trip to the node and one to a stub
   server answering a reply of the same shape. Pinned at the counts of
   the one-record attributes, the in-place object id and the int
   offsets; a rise fails here. *)
let handler_words ?prep label call reply ~pinned =
  let node = rtt_words ?prep (fun h -> ignore (Obsd.attach h ())) call in
  let stub = rtt_words ?prep (stub_server ~per_op:40e-6 ~per_byte:2.5e-9 reply) call in
  let words = node -. stub in
  check_bool (Printf.sprintf "%s handler allocates %.2f words (pinned %d)" label words pinned) true
    (words <= float_of_int pinned +. 0.01)

let obsd_handler_words () =
  let fh = reg_fh 5 in
  let attr = Nfs.data_attr fh 8192 in
  let write = Nfs.Write (fh, 0L, Nfs.Unstable, Nfs.Synthetic 8192) in
  handler_words "write" write (Ok (Nfs.RWrite (8192, Nfs.Unstable, attr))) ~pinned:27;
  handler_words ~prep:write "read" (Nfs.Read (fh, 0L, 8192))
    (Ok (Nfs.RRead (Nfs.Synthetic 8192, true, attr)))
    ~pinned:29

(* A CPU charge whose cost is computed at the call site reaches the
   engine's time column unboxed: [Host.cpu] allocates no more than a
   bare [Engine.sleep] of a constant, the fiber's own suspension. *)
let host_cpu_words () =
  let eng = Engine.create () in
  let net = Net.create eng () in
  let host = Host.create net ~name:"cpu" () in
  let per_op = ref 10e-6 in
  let n = 1024 in
  let per_call f =
    let words = ref infinity in
    run_on eng (fun () ->
        f 64;
        let w0 = Gc.minor_words () in
        f n;
        words := (Gc.minor_words () -. w0) /. float_of_int n);
    !words
  in
  let charges k =
    for i = 1 to k do
      Host.cpu host (!per_op +. (float_of_int i *. 2.5e-9))
    done
  in
  let sleeps k =
    for _ = 1 to k do
      Engine.sleep eng 10e-6
    done
  in
  let cpu = per_call charges and sleep = per_call sleeps in
  check_bool
    (Printf.sprintf "Host.cpu allocates %.2f words, a bare sleep %.2f" cpu sleep)
    true (cpu <= sleep +. 0.01)

(* ---- Ctrl wire counts ---- *)

(* Allocation while [f] raises [Codec.Malformed]; fails if it decodes. *)
let malformed_alloc label f =
  let before = Gc.allocated_bytes () in
  (match f () with
  | _ -> Alcotest.failf "%s: decoded an overrunning count" label
  | exception Codec.Malformed _ -> ());
  Gc.allocated_bytes () -. before

(* A count off the wire sizes nothing until the buffer is known to hold
   that many words: a 20-byte Map reply and a Remove_file message, each
   claiming a million sites, are refused at once. *)
let ctrl_counts_checked_before_alloc () =
  let words ws =
    let e = Slice_xdr.Xdr.Enc.create () in
    List.iter (Slice_xdr.Xdr.Enc.u32 e) ws;
    Slice_xdr.Xdr.Enc.to_bytes e
  in
  let reply = words [ 7; 3; 0; 1_000_000; 5 ] in
  check_int "20-byte reply" 20 (Bytes.length reply);
  let used = malformed_alloc "map reply" (fun () -> Ctrl.decode_reply reply) in
  check_bool (Printf.sprintf "map reply allocated %.0f bytes" used) true (used < 65536.);
  let remove = Ctrl.encode_msg ~xid:7 (Ctrl.Remove_file { fh = reg_fh 5; sites = [| 1 |] }) in
  (* the site count is the word before the one site *)
  Bytes.set_int32_be remove (Bytes.length remove - 8) 1_000_000l;
  let used = malformed_alloc "remove_file" (fun () -> Ctrl.decode_msg remove) in
  check_bool (Printf.sprintf "remove_file allocated %.0f bytes" used) true (used < 65536.)

let suite =
  [
    ("nfs endpoint DRC replays a lost reply", `Quick, drc_replays_lost_reply);
    ("nfs endpoint drops a retransmission while running", `Quick,
      drc_drops_retransmission_while_running);
    ("nfs endpoint DRC evicts after 512 completions", `Quick, drc_evicts_after_512);
    ("nfs endpoint: a crash overtakes a request", `Quick, crash_overtakes_request);
    ("nfs endpoint DRC hit refreshes its entry", `Quick, drc_hit_refreshes);
    ("nfs endpoint running requests stay outside the DRC", `Quick,
      drc_running_outside_capacity);
    ("nfs endpoint getattr words budget", `Quick, getattr_words_budget);
    ("storage node handler words pinned", `Quick, obsd_handler_words);
    ("host cpu charge words", `Quick, host_cpu_words);
    ("tenure sites, drains and load", `Quick, tenure_sites_drains_load);
    ("tenure lease expiry wedges", `Quick, tenure_lease);
    ("obsd write/read roundtrip", `Quick, obsd_write_read_roundtrip);
    ("obsd fenced by an expired lease", `Quick, obsd_fenced_by_lease);
    ("obsd synthetic and clip", `Quick, obsd_synthetic_and_clip);
    ("obsd sparse blocks independent", `Quick, obsd_offset_windows_are_independent);
    ("obsd remove and getattr", `Quick, obsd_remove_and_getattr);
    ("obsd read of nothing stores nothing", `Quick, obsd_read_of_nothing_stores_nothing);
    ("obsd commit stable", `Quick, obsd_commit_stable);
    ("obsd truncate", `Quick, obsd_truncate);
    ("obsd shrink then grow reads zeros", `Quick, obsd_shrink_then_grow_reads_zeros);
    ("obsd rejects name ops", `Quick, obsd_name_op_rejected);
    ("coordinator orchestrated remove", `Quick, coord_orchestrated_remove);
    ("coordinator commit file", `Quick, coord_commit_file);
    ("coordinator intent/complete", `Quick, coord_intent_complete);
    ("coordinator probe redoes abandoned intent", `Quick, coord_probe_redoes_abandoned_intent);
    ("coordinator crash recovery redoes", `Quick, coord_crash_recovery_redoes);
    ("coordinator completion survives crash", `Quick, coord_completion_survives_crash);
    ("coordinator block maps", `Quick, coord_block_maps);
    ("coordinator without maps", `Quick, coord_without_maps);
    ("ctrl counts checked before allocation", `Quick, ctrl_counts_checked_before_alloc);
  ]
