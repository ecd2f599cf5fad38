open Helpers
module Engine = Slice_sim.Engine
module Wal = Slice_wal.Wal
module Disk = Slice_disk.Disk

let append_sync_replay () =
  let w = Wal.create ~name:"t" () in
  let l1 = Wal.append w ~rtype:1 "alpha" in
  let l2 = Wal.append w ~rtype:2 "beta" in
  check_bool "lsns increase" true (Int64.compare l2 l1 > 0);
  check_bool "nothing synced yet" true (Wal.synced_lsn w = 0L);
  Wal.sync w;
  check_bool "synced to l2" true (Wal.synced_lsn w = l2);
  let seen = ref [] in
  let n = Wal.replay (Wal.image w) (fun ~lsn ~rtype payload -> seen := (lsn, rtype, payload) :: !seen) in
  check_int "two records" 2 n;
  check_bool "order and content" true
    (List.rev !seen = [ (l1, 1, "alpha"); (l2, 2, "beta") ])

let unsynced_invisible () =
  let w = Wal.create ~name:"t" () in
  ignore (Wal.append w ~rtype:1 "x");
  check_int "image empty before sync" 0 (Wal.replay (Wal.image w) (fun ~lsn:_ ~rtype:_ _ -> ()))

let torn_tail_recovers_prefix =
  qtest ~count:80 "torn tail yields intact prefix"
    QCheck2.Gen.(pair (list_size (int_range 1 10) (string_size (int_range 0 40))) (int_range 0 500))
    (fun (payloads, cut) ->
      let w = Wal.create ~name:"t" () in
      (* first half synced, second half pending *)
      let n = List.length payloads in
      List.iteri
        (fun i p ->
          ignore (Wal.append w ~rtype:i p);
          if i = (n / 2) - 1 then Wal.sync w)
        payloads;
      let img = Wal.crash_image w ~keep_unsynced_bytes:cut in
      let seen = ref [] in
      ignore (Wal.replay img (fun ~lsn:_ ~rtype:_ payload -> seen := payload :: !seen));
      let recovered = List.rev !seen in
      (* recovered must be a prefix of the appended sequence, covering at
         least everything synced *)
      let rec is_prefix a b =
        match (a, b) with
        | [], _ -> true
        | x :: xs, y :: ys -> x = y && is_prefix xs ys
        | _ -> false
      in
      is_prefix recovered payloads && List.length recovered >= n / 2)

let corrupt_record_stops_replay () =
  let w = Wal.create ~name:"t" () in
  ignore (Wal.append w ~rtype:1 "good");
  ignore (Wal.append w ~rtype:1 "bad!");
  Wal.sync w;
  let img = Bytes.of_string (Wal.image w) in
  (* flip a byte inside the second record's payload *)
  let len = Bytes.length img in
  Bytes.set img (len - 6) 'X';
  let seen = ref 0 in
  ignore (Wal.replay (Bytes.to_string img) (fun ~lsn:_ ~rtype:_ _ -> incr seen));
  check_int "only first survives" 1 !seen

let checkpoint_truncates () =
  let w = Wal.create ~name:"t" () in
  ignore (Wal.append w ~rtype:1 "old");
  Wal.sync w;
  Wal.checkpoint w;
  ignore (Wal.append w ~rtype:2 "new");
  Wal.sync w;
  let seen = ref [] in
  ignore (Wal.replay (Wal.image w) (fun ~lsn:_ ~rtype:_ p -> seen := p :: !seen));
  check_bool "only post-checkpoint" true (!seen = [ "new" ])

let disk_backed_sync_takes_time () =
  run_fiber (fun eng ->
      let d = Disk.create eng ~arms:1 ~name:"log" () in
      let w = Wal.create ~eng ~disk:d ~name:"t" () in
      ignore (Wal.append w ~rtype:1 (String.make 100 'a'));
      let t0 = Engine.now eng in
      Wal.sync w;
      check_bool "sync waited for disk" true (Engine.now eng > t0);
      check_int "one disk write" 1 (Disk.ops d))

let group_commit () =
  let eng = Engine.create () in
  let d = Disk.create eng ~arms:1 ~name:"log" () in
  let w = Wal.create ~eng ~disk:d ~name:"t" () in
  let done_count = ref 0 in
  (* many fibers append + sync concurrently: far fewer disk writes than
     records *)
  for i = 1 to 20 do
    Engine.spawn eng (fun () ->
        ignore (Wal.append w ~rtype:i "rec");
        Wal.sync w;
        check_bool "my record stable" true (Int64.compare (Wal.synced_lsn w) (Int64.of_int i) >= 0);
        incr done_count)
  done;
  Engine.run eng;
  check_int "all synced" 20 !done_count;
  check_bool "group commit batches" true (Wal.sync_count w < 20)

let engine_without_sink_rejected () =
  (* regression: ~eng without ~disk used to be accepted and silently
     dropped the engine, skipping group commit entirely *)
  let eng = Engine.create () in
  Alcotest.check_raises "engine needs a disk"
    (Invalid_argument "Wal.create: an engine needs a disk") (fun () ->
      ignore (Wal.create ~eng ~name:"t" ()));
  let disk = Disk.create eng ~arms:1 ~name:"d" () in
  Alcotest.check_raises "disk needs an engine"
    (Invalid_argument "Wal.create: a disk needs an engine") (fun () ->
      ignore (Wal.create ~disk ~name:"t" ()))

(* ---- failover replay idempotency ----

   A hot standby adopts a dead manager's journal by replaying the shared
   image and re-appending every record into its own log. These tests pin
   the two properties takeover relies on: replay is a pure read (running
   it twice over the same image yields identical records), and a standby
   that crashes mid-adoption converges after re-replaying — the synced
   prefix survives its crash, and resuming with a skip count reproduces
   exactly the journal a crash-free adoption would have produced. *)

let records img =
  let seen = ref [] in
  ignore (Wal.replay img (fun ~lsn ~rtype payload -> seen := (lsn, rtype, payload) :: !seen));
  List.rev !seen

let replay_twice_identical () =
  let donor = Wal.create ~name:"donor" () in
  for i = 1 to 8 do
    ignore (Wal.append donor ~rtype:i (Printf.sprintf "rec%02d" i))
  done;
  Wal.sync donor;
  let img = Wal.image donor in
  let a = records img and b = records img in
  check_int "all records" 8 (List.length a);
  check_bool "replay is a pure read" true (a = b)

let crash_mid_adoption_converges () =
  let donor = Wal.create ~name:"donor" () in
  for i = 1 to 10 do
    ignore (Wal.append donor ~rtype:i (Printf.sprintf "rec%02d" i))
  done;
  Wal.sync donor;
  let img = Wal.image donor in
  (* reference: a crash-free adoption *)
  let adopt_all () =
    let w = Wal.create ~name:"standby" () in
    ignore (Wal.replay img (fun ~lsn:_ ~rtype payload -> ignore (Wal.append w ~rtype payload)));
    Wal.sync w;
    Wal.image w
  in
  let reference = records (adopt_all ()) in
  (* the standby crashes mid-replay: 6 records appended, only 4 synced,
     plus a torn tail of unsynced bytes *)
  let w = Wal.create ~name:"standby" () in
  let n = ref 0 in
  ignore
    (Wal.replay img (fun ~lsn:_ ~rtype payload ->
         if !n < 6 then ignore (Wal.append w ~rtype payload);
         incr n;
         if !n = 4 then Wal.sync w));
  let crashed = Wal.crash_image w ~keep_unsynced_bytes:9 in
  (* recovery: replay whatever survived into a fresh log, count it, then
     re-replay the donor image skipping the already-applied prefix *)
  let w2 = Wal.create ~name:"standby2" () in
  let applied = ref 0 in
  ignore
    (Wal.replay crashed (fun ~lsn:_ ~rtype payload ->
         ignore (Wal.append w2 ~rtype payload);
         incr applied));
  check_bool "synced prefix survived" true (!applied >= 4);
  check_bool "torn tail dropped" true (!applied <= 6);
  let k = ref 0 in
  ignore
    (Wal.replay img (fun ~lsn:_ ~rtype payload ->
         if !k >= !applied then ignore (Wal.append w2 ~rtype payload);
         incr k));
  Wal.sync w2;
  check_bool "re-replay converges on the crash-free journal" true
    (records (Wal.image w2) = reference)

let suite =
  [
    ("append/sync/replay", `Quick, append_sync_replay);
    ("unsynced invisible", `Quick, unsynced_invisible);
    torn_tail_recovers_prefix;
    ("corrupt record stops replay", `Quick, corrupt_record_stops_replay);
    ("checkpoint truncates", `Quick, checkpoint_truncates);
    ("disk-backed sync takes time", `Quick, disk_backed_sync_takes_time);
    ("group commit", `Quick, group_commit);
    ("engine without sink rejected", `Quick, engine_without_sink_rejected);
    ("replay twice identical", `Quick, replay_twice_identical);
    ("crash mid-adoption converges", `Quick, crash_mid_adoption_converges);
  ]
