open Helpers
module Engine = Slice_sim.Engine
module Wal = Slice_wal.Wal
module Disk = Slice_disk.Disk
module Enc = Slice_xdr.Xdr.Enc

(* A record for site 0, the one site of these logs. *)
let append w ~rtype payload = Wal.append_with w ~site:0 ~rtype Enc.raw payload

let records img =
  let seen = ref [] in
  ignore (Wal.replay img (fun ~lsn ~rtype payload -> seen := (lsn, rtype, payload) :: !seen));
  List.rev !seen

let append_sync_replay () =
  let w = Wal.create ~name:"t" () in
  let l1 = append w ~rtype:1 "alpha" in
  let l2 = append w ~rtype:2 "beta" in
  check_bool "lsns increase" true (Int64.compare l2 l1 > 0);
  check_bool "nothing synced yet" true (Wal.synced_lsn w = 0L);
  Wal.sync w;
  check_bool "synced to l2" true (Wal.synced_lsn w = l2);
  let seen = ref [] in
  let n = Wal.replay (Wal.image w ~site:0) (fun ~lsn ~rtype payload -> seen := (lsn, rtype, payload) :: !seen) in
  check_int "two records" 2 n;
  check_bool "order and content" true
    (List.rev !seen = [ (l1, 1, "alpha"); (l2, 2, "beta") ])

let unsynced_invisible () =
  let w = Wal.create ~name:"t" () in
  ignore (append w ~rtype:1 "x");
  check_int "image empty before sync" 0 (Wal.replay (Wal.image w ~site:0) (fun ~lsn:_ ~rtype:_ _ -> ()))

let torn_tail_recovers_prefix =
  qtest ~count:80 "torn tail yields intact prefix"
    QCheck2.Gen.(pair (list_size (int_range 1 10) (string_size (int_range 0 40))) (int_range 0 500))
    (fun (payloads, cut) ->
      let w = Wal.create ~name:"t" () in
      (* first half synced, second half pending *)
      let n = List.length payloads in
      List.iteri
        (fun i p ->
          ignore (append w ~rtype:i p);
          if i = (n / 2) - 1 then Wal.sync w)
        payloads;
      let img = Wal.crash_image w ~site:0 ~keep_unsynced_bytes:cut in
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
  ignore (append w ~rtype:1 "good");
  ignore (append w ~rtype:1 "bad!");
  Wal.sync w;
  let img = Bytes.of_string (Wal.image w ~site:0) in
  (* flip a byte inside the second record's payload *)
  let len = Bytes.length img in
  Bytes.set img (len - 6) 'X';
  let seen = ref 0 in
  ignore (Wal.replay (Bytes.to_string img) (fun ~lsn:_ ~rtype:_ _ -> incr seen));
  check_int "only first survives" 1 !seen

let checkpoint_truncates () =
  let w = Wal.create ~name:"t" () in
  ignore (append w ~rtype:1 "old");
  Wal.sync w;
  let from = append w ~rtype:2 "snapshot" in
  ignore (append w ~rtype:3 "after");
  Wal.checkpoint w ~from;
  ignore (append w ~rtype:4 "new");
  Wal.sync w;
  let seen = ref [] in
  ignore (Wal.replay (Wal.image w ~site:0) (fun ~lsn:_ ~rtype:_ p -> seen := p :: !seen));
  check_bool "the snapshot onward" true (List.rev !seen = [ "snapshot"; "after"; "new" ])

let disk_backed_sync_takes_time () =
  run_fiber (fun eng ->
      let d = Disk.create eng ~arms:1 ~name:"log" () in
      let w = Wal.create ~eng ~disk:d ~name:"t" () in
      ignore (append w ~rtype:1 (String.make 100 'a'));
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
        ignore (append w ~rtype:i "rec");
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

(* Two group-commit callers cut off by a crash: the first leads a round
   whose disk write is in flight, the second waits with its record in
   the pending tail. The crash, a plain event outside any fiber, drops
   both records; both callers raise [Crashed] once the dropped round's
   write lands. A later append and sync land as the image's only record,
   at LSN 1: the LSN after the last stable one. *)
let crash_cuts_off_round () =
  let eng = Engine.create () in
  let d = Disk.create eng ~arms:1 ~name:"log" () in
  let w = Wal.create ~eng ~disk:d ~name:"t" () in
  let outcomes = ref [] in
  List.iter
    (fun name ->
      Engine.spawn eng (fun () ->
          ignore (append w ~rtype:1 name);
          let outcome = match Wal.sync w with () -> "synced" | exception Wal.Crashed -> "crashed" in
          outcomes := (name, outcome) :: !outcomes))
    [ "a"; "b" ];
  Engine.schedule eng 0.0 (fun () ->
      check_int "round in flight" 0 (Wal.sync_count w);
      Wal.crash w;
      check_float "a crash takes no time" 0.0 (Engine.now eng));
  Engine.run eng;
  check_bool "both callers cut off" true
    (List.sort compare !outcomes = [ ("a", "crashed"); ("b", "crashed") ]);
  check_string "the image holds neither record" "" (Wal.image w ~site:0);
  check_bool "nothing synced" true (Wal.synced_lsn w = 0L);
  run_on eng (fun () ->
      check_bool "the next LSN follows the stable ones" true (append w ~rtype:2 "c" = 1L);
      Wal.sync w);
  check_bool "a later round lands" true (records (Wal.image w ~site:0) = [ (1L, 2, "c") ])

(* A caller whose record lands in a round another fiber led returns,
   even when a crash then drops a newer round that it waits behind or
   leads. "a" leads round 1; "b" and "c" join it, and "c", woken first,
   leads round 2 for both while "b" parks again. "a" appends "d" during
   round 2. If "a" syncs it, "a" joins round 2, is woken first when it
   lands and leads round 3, with "b" behind it; if not, "b", whose
   record round 2 hardened, leads round 3 for "d". A crash during
   round 3 drops only "d", and cuts off only its own caller. *)
let stable_caller_survives_later_crash ~d_syncs () =
  let eng = Engine.create () in
  let d = Disk.create eng ~arms:1 ~name:"log" () in
  let w = Wal.create ~eng ~disk:d ~name:"t" () in
  let outcomes = ref [] in
  let sync name =
    let outcome = match Wal.sync w with () -> "synced" | exception Wal.Crashed -> "crashed" in
    outcomes := (name, outcome) :: !outcomes
  in
  Engine.spawn eng (fun () ->
      ignore (append w ~rtype:1 "a");
      sync "a";
      ignore (append w ~rtype:1 "d");
      if d_syncs then sync "d");
  Engine.spawn eng (fun () ->
      ignore (append w ~rtype:1 "b");
      sync "b");
  Engine.spawn eng (fun () ->
      ignore (append w ~rtype:1 "c");
      sync "c";
      check_int "round 3 in flight" 2 (Wal.sync_count w);
      Engine.schedule eng 0.0 (fun () -> Wal.crash w));
  Engine.run eng;
  let stable = [ ("a", "synced"); ("b", "synced"); ("c", "synced") ] in
  check_bool "only the dropped record's caller cut off" true
    (List.sort compare !outcomes = if d_syncs then stable @ [ ("d", "crashed") ] else stable);
  check_bool "the image holds a, b and c" true
    (List.map (fun (_, _, p) -> p) (records (Wal.image w ~site:0)) = [ "a"; "b"; "c" ])

(* A joiner returns when the round that hardens its record lands, not a
   round later. "a" leads round 1; "b" and "c" join it, and "c", woken
   first, leads round 2 for both while "b" parks again. "a" then appends
   "d" and joins round 2; woken first when it lands, "a" leads round 3.
   "b", whose record round 2 hardened, must return when round 2 lands,
   with "c", not behind round 3. *)
let joiner_returns_when_its_round_lands () =
  let eng = Engine.create () in
  let d = Disk.create eng ~arms:1 ~name:"log" () in
  let w = Wal.create ~eng ~disk:d ~name:"t" () in
  let back = ref [] in
  let sync name =
    Wal.sync w;
    back := (name, Engine.now eng) :: !back
  in
  Engine.spawn eng (fun () ->
      ignore (append w ~rtype:1 "a");
      sync "a";
      ignore (append w ~rtype:1 "d");
      sync "d");
  Engine.spawn eng (fun () ->
      ignore (append w ~rtype:1 "b");
      sync "b");
  Engine.spawn eng (fun () ->
      ignore (append w ~rtype:1 "c");
      sync "c");
  Engine.run eng;
  let at name = List.assoc name !back in
  check_int "three rounds" 3 (Wal.sync_count w);
  check_bool "round 3 lands after round 2" true (at "d" > at "c");
  check_float "b returns when round 2 lands" (at "c") (at "b")

(* A round in flight when a checkpoint starts lands before the snapshot,
   and its caller returns as usual: its record is stable, then dropped
   with the prefix once the snapshot (which reflects it) is stable. A
   crash while the snapshot's own round is in flight cuts the checkpoint
   off and leaves that old log whole. *)
let checkpoint_after_round_in_flight ~crash () =
  let eng = Engine.create () in
  let d = Disk.create eng ~arms:1 ~name:"log" () in
  let w = Wal.create ~eng ~disk:d ~name:"t" () in
  let lead = ref "running" and ckpt = ref "running" in
  Engine.spawn eng (fun () ->
      ignore (append w ~rtype:1 "old");
      Wal.sync w;
      lead := "synced";
      (* the checkpoint, woken by this round, leads the next *)
      check_bool "snapshot round in flight" true (records (Wal.image w ~site:0) = [ (1L, 1, "old") ]);
      if crash then Engine.schedule eng 0.0 (fun () -> Wal.crash w));
  Engine.spawn eng (fun () ->
      let from = append w ~rtype:2 "snap" in
      ckpt := match Wal.checkpoint w ~from with () -> "done" | exception Wal.Crashed -> "crashed");
  Engine.run eng;
  check_string "the in-flight round's caller returns" "synced" !lead;
  if crash then begin
    check_string "checkpoint cut off" "crashed" !ckpt;
    check_bool "the old log stands" true (records (Wal.image w ~site:0) = [ (1L, 1, "old") ])
  end
  else begin
    check_string "checkpoint done" "done" !ckpt;
    check_bool "the snapshot alone" true (records (Wal.image w ~site:0) = [ (2L, 2, "snap") ])
  end

(* ---- failover: replay and hand-over ----

   A hot standby takes a dead manager's site by opening the site's image
   where it lies: replay is a pure read (running it twice over the same
   image yields identical records), and a hand-over moves the image by
   reference, so the receiver replays the very records the donor logged
   and the donor holds them no more. *)

let replay_twice_identical () =
  let donor = Wal.create ~name:"donor" () in
  for i = 1 to 8 do
    ignore (append donor ~rtype:i (Printf.sprintf "rec%02d" i))
  done;
  Wal.sync donor;
  let img = Wal.image donor ~site:0 in
  let a = records img and b = records img in
  check_int "all records" 8 (List.length a);
  check_bool "replay is a pure read" true (a = b)

(* Ten records over two sites, site 1 holding the odd LSNs, handed to a
   receiver whose own log has one record. *)
let hand_over_moves_the_image () =
  let donor = Wal.create ~name:"donor" () and recv = Wal.create ~name:"recv" () in
  for i = 1 to 10 do
    ignore (Wal.append_with donor ~site:(i mod 2) ~rtype:i Enc.raw (Printf.sprintf "rec%02d" i))
  done;
  Wal.sync donor;
  let moved = records (Wal.image donor ~site:1) in
  check_int "site 1's records" 5 (List.length moved);
  ignore (append recv ~rtype:1 "own");
  Wal.sync recv;
  Wal.hand_over donor ~site:1 ~to_:recv;
  check_bool "the receiver replays the same records" true (records (Wal.image recv ~site:1) = moved);
  check_bool "the donor's image no longer holds them" true (records (Wal.image donor ~site:1) = []);
  check_int "the donor keeps its other site" 5 (List.length (records (Wal.image donor ~site:0)));
  check_bool "the receiver keeps its own" true (records (Wal.image recv ~site:0) = [ (1L, 1, "own") ]);
  check_bool "the next LSN follows the handed-in image" true
    (Wal.append_with recv ~site:1 ~rtype:11 Enc.raw "next" = 10L);
  Wal.crash recv;
  check_bool "and so after a crash" true (Wal.append_with recv ~site:1 ~rtype:11 Enc.raw "next" = 10L);
  Wal.sync recv;
  check_bool "site 1 grows in LSN order" true
    (List.map (fun (l, _, _) -> l) (records (Wal.image recv ~site:1)) = [ 1L; 3L; 5L; 7L; 9L; 10L ])

(* ---- byte-exact record format ----

   A reference encoder of the on-disk record, kept here independent of
   the log's own: magic "WALR" (4), lsn (8), rtype (4), payload length
   (4), payload, then a CRC-32 (4) over everything before it, all
   big-endian. A random mix of appends, syncs, checkpoints, torn-write
   pictures and crashes must leave [image], [crash_image] and [replay]
   exactly where this model says. A checkpoint appends a snapshot
   record, syncs, then drops every stable record before it. A crash
   drops the pending records, and the next append takes the LSN after
   the last synced one. *)

let ref_record ~lsn ~rtype payload =
  let len = String.length payload in
  let b = Bytes.create (24 + len) in
  Bytes.set_int32_be b 0 0x57414C52l;
  Bytes.set_int64_be b 4 lsn;
  Bytes.set_int32_be b 12 (Int32.of_int rtype);
  Bytes.set_int32_be b 16 (Int32.of_int len);
  Bytes.blit_string payload 0 b 20 len;
  Bytes.set_int32_be b (20 + len) (Slice_hash.Crc32.bytes b ~pos:0 ~len:(20 + len));
  Bytes.to_string b

type op = Append of int * int * int | Sync | Checkpoint | Torn of int | Crash

(* Payloads are described by (size, seed) so large ones stay cheap to
   generate and shrink: empty, small, and well past 64 KB. *)
let payload_of_spec size seed = String.init size (fun i -> Char.chr ((seed + (i * 31)) land 0xFF))

let append_gen =
  QCheck2.Gen.(
    map3
      (fun rtype size seed -> Append (rtype, size, seed))
      (int_range 0 0xFFFF)
      (frequency [ (2, pure 0); (12, int_range 1 200); (1, int_range 65_000 150_000) ])
      (int_range 0 255))

let op_gen =
  QCheck2.Gen.(
    frequency
      [
        (10, append_gen);
        (4, pure Sync);
        (1, pure Checkpoint);
        (2, map (fun k -> Torn k) (int_range 0 400));
        (1, pure Crash);
      ])

let format_matches_reference =
  qtest ~count:60 "records match the reference encoder byte for byte"
    QCheck2.Gen.(list_size (int_range 1 40) op_gen)
    (fun ops ->
      let w = Wal.create ~name:"t" () in
      (* records newest first, as (lsn, rtype, payload) *)
      let stable_recs = ref [] and pending_recs = ref [] in
      let lsn = ref 0L and synced = ref 0L and appended = ref 0 in
      let bytes recs =
        String.concat "" (List.rev_map (fun (lsn, rtype, p) -> ref_record ~lsn ~rtype p) recs)
      in
      let append rtype p =
        lsn := Int64.add !lsn 1L;
        appended := !appended + 24 + String.length p;
        pending_recs := (!lsn, rtype, p) :: !pending_recs;
        append w ~rtype p = !lsn
      in
      let sync_model () =
        if !pending_recs <> [] then begin
          stable_recs := !pending_recs @ !stable_recs;
          pending_recs := [];
          synced := !lsn
        end
      in
      let ok = ref true in
      let expect b = if not b then ok := false in
      List.iter
        (fun op ->
          (match op with
          | Append (rtype, size, seed) -> expect (append rtype (payload_of_spec size seed))
          | Sync ->
              Wal.sync w;
              sync_model ()
          | Checkpoint ->
              let from = Int64.add !lsn 1L in
              expect (append 0 "snapshot");
              Wal.checkpoint w ~from;
              sync_model ();
              stable_recs := List.filter (fun (l, _, _) -> Int64.compare l from >= 0) !stable_recs
          | Torn k ->
              let unsynced = bytes !pending_recs in
              let keep = min k (String.length unsynced) in
              expect
                (Wal.crash_image w ~site:0 ~keep_unsynced_bytes:k
                = bytes !stable_recs ^ String.sub unsynced 0 keep)
          | Crash ->
              Wal.crash w;
              pending_recs := [];
              lsn := !synced);
          let img = Wal.image w ~site:0 in
          expect (img = bytes !stable_recs);
          expect (Wal.synced_lsn w = !synced);
          expect (Wal.bytes_appended w = !appended);
          expect (records img = List.rev !stable_recs))
        ops;
      (* everything still pending hardens as one more batch *)
      Wal.sync w;
      sync_model ();
      let img = Wal.image w ~site:0 in
      expect (img = bytes !stable_recs);
      expect (Wal.replay img (fun ~lsn:_ ~rtype:_ _ -> ()) = List.length !stable_recs);
      !ok)

(* Group-commit wake order and round visibility on a disk-backed log.
   One fiber leads a round; three more append and join it while its
   disk write is in flight. The round's bytes reach neither [image] nor
   [crash_image] until the write completes. When it does, the joiners
   resume last-arrived first: the last one leads the next round for all
   three records, and the other two, re-parked behind it, resume in
   their new last-first order as soon as that round lands — before its
   leader returns. *)
let joiners_resume_last_first () =
  let eng = Engine.create () in
  let d = Disk.create eng ~arms:1 ~name:"log" () in
  let w = Wal.create ~eng ~disk:d ~name:"t" () in
  let finished = ref [] in
  let contains hay needle =
    let n = String.length needle and h = String.length hay in
    let rec at i = i + n <= h && (String.sub hay i n = needle || at (i + 1)) in
    at 0
  in
  let first = String.make 40 'F' in
  Engine.spawn eng (fun () ->
      ignore (append w ~rtype:1 first);
      Wal.sync w;
      finished := "lead" :: !finished);
  List.iter
    (fun name ->
      Engine.spawn eng (fun () ->
          ignore (append w ~rtype:2 (String.make 40 name.[0]));
          Wal.sync w;
          finished := name :: !finished))
    [ "a"; "b"; "c" ];
  let mid_round = ref false in
  Engine.spawn eng (fun () ->
      (* every fiber above has run up to its park; the first round's
         disk write is still in flight *)
      check_int "first round in flight" 0 (Wal.sync_count w);
      check_bool "round absent from image" false (contains (Wal.image w ~site:0) first);
      let crashed = Wal.crash_image w ~site:0 ~keep_unsynced_bytes:max_int in
      check_bool "round absent from crash image" false (contains crashed first);
      check_int "joiners' records are the unsynced tail" 3
        (Wal.replay crashed (fun ~lsn:_ ~rtype:_ _ -> ()));
      mid_round := true);
  Engine.run eng;
  check_bool "checked mid-round" true !mid_round;
  check_int "two rounds" 2 (Wal.sync_count w);
  check_int "one disk write per round" 2 (Disk.ops d);
  check_bool "resume order: leader, then re-parked joiners last-first, then the next leader"
    true
    (List.rev !finished = [ "lead"; "a"; "b"; "c" ]);
  check_bool "all four records stable" true (Wal.synced_lsn w = 4L);
  check_bool "first round now in the image" true (contains (Wal.image w ~site:0) first)

(* ---- allocation budgets ----

   Words are deterministic, so these are exact gates. A warmed-up append
   of an 83-byte record (59 bytes of payload) writes the header, payload
   and CRC straight into the pending area: its only allocation is the
   boxed LSN it returns (3 words). *)
let append_words () =
  let w = Wal.create ~name:"t" () in
  let payload = String.make 59 'p' in
  let step i =
    ignore (Sys.opaque_identity (Wal.append_with w ~site:0 ~rtype:3 Enc.raw payload));
    Wal.sync w;
    if i land 63 = 0 then Wal.checkpoint w ~from:(Wal.synced_lsn w)
  in
  for i = 1 to 512 do
    step i
  done;
  let before = Wal.bytes_appended w in
  step 1;
  check_int "an 83-byte record" 83 (Wal.bytes_appended w - before);
  let n = 4096 in
  let w0 = Gc.minor_words () in
  for i = 1 to n do
    step i
  done;
  let per = (Gc.minor_words () -. w0) /. float_of_int n in
  check_bool (Printf.sprintf "append + sync allocate %.2f words (budget: the boxed LSN, 3)" per)
    true (per <= 3.0)

(* The cost of a fiber joining a round in flight, measured as the
   difference between runs with and without joiners: each round, every
   joiner sleeps past the round's start, parks on a pooled waiter, and
   is resumed when the round lands. Parking and sleeping each capture a
   continuation; with the closures and list cell of a suspend-based wait
   this came to 34 words. *)
let wait_words ~joiners ~rounds =
  let eng = Engine.create () in
  let d = Disk.create eng ~arms:1 ~name:"log" () in
  let w = Wal.create ~eng ~disk:d ~name:"t" () in
  let payload = String.make 59 'p' in
  let warm = 16 in
  let words = ref 0.0 in
  Engine.spawn eng (fun () ->
      for r = 1 to warm + rounds do
        if r = warm + 1 then words := Gc.minor_words ();
        ignore (append w ~rtype:1 payload);
        Wal.sync w
      done;
      words := Gc.minor_words () -. !words);
  for _ = 1 to joiners do
    Engine.spawn eng (fun () ->
        for _ = 1 to warm + rounds do
          Engine.sleep eng 1e-6;
          Wal.sync w
        done)
  done;
  Engine.run eng;
  !words

let join_words () =
  let rounds = 256 and joiners = 8 in
  let per =
    (wait_words ~joiners ~rounds -. wait_words ~joiners:0 ~rounds)
    /. float_of_int (joiners * rounds)
  in
  check_bool (Printf.sprintf "a joiner's sleep and wait allocate %.2f words (budget 6)" per) true
    (per <= 6.0)

let suite =
  [
    ("append/sync/replay", `Quick, append_sync_replay);
    ("unsynced invisible", `Quick, unsynced_invisible);
    torn_tail_recovers_prefix;
    ("corrupt record stops replay", `Quick, corrupt_record_stops_replay);
    ("checkpoint truncates", `Quick, checkpoint_truncates);
    ("crash cuts off a round", `Quick, crash_cuts_off_round);
    ("stable joiner survives a later crash", `Quick, stable_caller_survives_later_crash ~d_syncs:true);
    ("stable leader survives a later crash", `Quick, stable_caller_survives_later_crash ~d_syncs:false);
    ("joiner returns when its round lands", `Quick, joiner_returns_when_its_round_lands);
    ("checkpoint after a round in flight", `Quick, checkpoint_after_round_in_flight ~crash:false);
    ("crash cuts off a checkpoint", `Quick, checkpoint_after_round_in_flight ~crash:true);
    ("disk-backed sync takes time", `Quick, disk_backed_sync_takes_time);
    ("group commit", `Quick, group_commit);
    ("engine without sink rejected", `Quick, engine_without_sink_rejected);
    ("replay twice identical", `Quick, replay_twice_identical);
    ("hand-over moves a site's image", `Quick, hand_over_moves_the_image);
    format_matches_reference;
    ("joiners resume last first", `Quick, joiners_resume_last_first);
    ("append allocation budget", `Quick, append_words);
    ("round join allocation budget", `Quick, join_words);
  ]
