open Helpers
module Engine = Slice_sim.Engine
module Disk = Slice_disk.Disk
module Bcache = Slice_disk.Bcache
module Ffs = Slice_disk.Ffs

let mk_disk eng ?(arms = 8) () = Disk.create eng ~arms ~name:"d" ()

(* ---- Disk model ---- *)

let random_access_time () =
  run_fiber (fun eng ->
      let d = mk_disk eng () in
      let t0 = Engine.now eng in
      Disk.read d ~sequential:false ~bytes:8192 ();
      let dt = Engine.now eng -. t0 in
      (* seek + rotation + controller + media + channel: ~9.7ms; the
         calibration that gives ~104 random IOPS per arm *)
      check_bool "random 8K in 9..11 ms" true (dt > 9e-3 && dt < 11e-3))

let sequential_access_cheap () =
  run_fiber (fun eng ->
      let d = mk_disk eng () in
      let t0 = Engine.now eng in
      Disk.read d ~sequential:true ~bytes:8192 ();
      let dt = Engine.now eng -. t0 in
      (* media + channel only: ~0.4 ms *)
      check_bool "sequential 8K < 1ms" true (dt < 1e-3))

let arms_in_parallel () =
  let eng = Engine.create () in
  let d = mk_disk eng ~arms:4 () in
  let done_at = ref 0.0 in
  for _ = 1 to 4 do
    Engine.spawn eng (fun () ->
        Disk.read d ~sequential:false ~bytes:8192 ();
        done_at := Float.max !done_at (Engine.now eng))
  done;
  Engine.run eng;
  (* 4 random reads on 4 arms overlap on positioning; the shared channel
     transfer is small *)
  check_bool "parallel arms" true (!done_at < 12e-3);
  check_int "ops" 4 (Disk.ops d)

let channel_caps_bandwidth () =
  let eng = Engine.create () in
  let d = mk_disk eng ~arms:8 () in
  let done_at = ref 0.0 in
  (* 16 MB of sequential reads: channel at 55 MB/s is the bottleneck *)
  Engine.spawn eng (fun () ->
      for _ = 1 to 64 do
        Disk.read d ~sequential:true ~bytes:(256 * 1024) ()
      done;
      done_at := Engine.now eng);
  Engine.run eng;
  let mbs = 16.0 /. !done_at in
  (* a single synchronous stream is media-rate bound (~33 MB/s); the
     channel (55 MB/s) caps aggregates *)
  check_bool "within media/channel rates" true (mbs < 56.0 && mbs > 28.0)

let async_booking () =
  run_fiber (fun eng ->
      let d = mk_disk eng () in
      let t0 = Engine.now eng in
      let fin = Disk.write_async d ~sequential:true ~bytes:65536 in
      check_float "caller not parked" t0 (Engine.now eng);
      check_bool "completion in future" true (fin > t0);
      check_bool "busy accounted" true (Disk.channel_busy_time d > 0.0))

(* A booking's times stay unboxed from [Resource.book] through
   [Disk.book] into the caller's float array or sleep: an async booking
   and a synchronous read, bytes computed at the call, allocate nothing
   (a sleep's own suspension aside, which a bare sleep measures). *)
let booking_words () =
  let eng = Engine.create () in
  let d = mk_disk eng () in
  let fins = [| 0.0 |] in
  let per_call f =
    let words = ref infinity in
    run_on eng (fun () ->
        f 64;
        let n = 1024 in
        let w0 = Gc.minor_words () in
        f n;
        words := (Gc.minor_words () -. w0) /. float_of_int n);
    !words
  in
  let books k =
    for i = 1 to k do
      fins.(0) <- Disk.write_async d ~sequential:(i land 1 = 0) ~bytes:(4096 * (1 + (i land 3)))
    done
  in
  let reads k =
    for i = 1 to k do
      Disk.read d ~sequential:true ~bytes:(4096 * (1 + (i land 3))) ()
    done
  in
  let sleeps k =
    for _ = 1 to k do
      Engine.sleep eng 10e-6
    done
  in
  let book = per_call books and read = per_call reads and sleep = per_call sleeps in
  check_bool (Printf.sprintf "an async booking allocates %.2f words (budget 0)" book) true
    (book = 0.0);
  check_bool (Printf.sprintf "Disk.read allocates %.2f words, a bare sleep %.2f" read sleep) true
    (read <= sleep +. 0.01)

(* ---- Bcache ---- *)

let mk_cache eng ?(capacity = 1 lsl 20) () =
  let d = mk_disk eng () in
  (Bcache.create eng ~backend:(Bcache.disk_backend eng d) ~capacity ~name:"c", d)

let cache_hit_no_disk () =
  run_fiber (fun eng ->
      let c, d = mk_cache eng () in
      Bcache.read c ~obj:1L ~block:0;
      let ops_before = Disk.ops d in
      let t0 = Engine.now eng in
      Bcache.read c ~obj:1L ~block:0;
      check_float "hit is instant" t0 (Engine.now eng);
      check_int "no disk op" ops_before (Disk.ops d);
      check_int "one hit" 1 (Bcache.hits c))

let sequential_prefetch () =
  run_fiber (fun eng ->
      let c, d = mk_cache eng () in
      Bcache.read c ~obj:1L ~block:0;
      (* blocks 1..31 prefetched asynchronously *)
      check_bool "prefetched" true (Bcache.prefetched_blocks c >= 31);
      let ops = Disk.ops d in
      Bcache.read c ~obj:1L ~block:1;
      Bcache.read c ~obj:1L ~block:2;
      check_int "no more disk ops" ops (Disk.ops d))

let random_no_prefetch () =
  run_fiber (fun eng ->
      let c, _ = mk_cache eng () in
      Bcache.read c ~obj:1L ~block:100;
      Bcache.read c ~obj:1L ~block:5000;
      check_int "no prefetch on random" 0 (Bcache.prefetched_blocks c))

let write_behind_and_commit () =
  run_fiber (fun eng ->
      let c, d = mk_cache eng () in
      let t0 = Engine.now eng in
      for b = 0 to 9 do
        Bcache.write c ~obj:2L ~block:b
      done;
      check_float "writes don't wait" t0 (Engine.now eng);
      check_int "nothing written yet" 0 (Disk.ops d);
      Bcache.commit c ~obj:2L;
      check_bool "commit waited" true (Engine.now eng > t0);
      (* clustering: 10 contiguous dirty blocks in one transfer *)
      check_int "one clustered write" 1 (Disk.ops d);
      check_int "all bytes" (10 * 8192) (Disk.bytes_transferred d))

let commit_only_target_object () =
  run_fiber (fun eng ->
      let c, d = mk_cache eng () in
      Bcache.write c ~obj:1L ~block:0;
      Bcache.write c ~obj:2L ~block:0;
      Bcache.commit c ~obj:1L;
      check_int "one object flushed" 1 (Disk.ops d);
      Bcache.commit_all c;
      check_int "rest flushed" 2 (Disk.ops d))

let eviction_writes_back_dirty () =
  run_fiber (fun eng ->
      (* capacity of 4 blocks *)
      let c, d = mk_cache eng ~capacity:(4 * 8192) () in
      for b = 0 to 7 do
        Bcache.write c ~obj:3L ~block:(b * 100) (* non-contiguous: no clustering *)
      done;
      Engine.sleep eng 1.0;
      check_bool "evictions wrote back" true (Disk.ops d >= 4))

let invalidate_discards () =
  run_fiber (fun eng ->
      let c, d = mk_cache eng () in
      Bcache.write c ~obj:4L ~block:0;
      Bcache.invalidate_object c 4L;
      Bcache.commit c ~obj:4L;
      check_int "nothing flushed" 0 (Disk.ops d);
      check_int "not resident" 0 (Bcache.resident_bytes c))

let drop_clean_cold () =
  run_fiber (fun eng ->
      let c, d = mk_cache eng () in
      Bcache.read c ~obj:1L ~block:0;
      Bcache.drop_clean c;
      let ops = Disk.ops d in
      Bcache.read c ~obj:1L ~block:0;
      check_bool "cold again" true (Disk.ops d > ops))

let mirrored_stride_counts_sequential () =
  run_fiber (fun eng ->
      let c, _ = mk_cache eng () in
      (* stride-8 pattern (alternating 32 KB chunks of 4 blocks): still
         prefetches contiguously, creating the paper's wasted prefetch *)
      Bcache.read c ~obj:1L ~block:0;
      let pf1 = Bcache.prefetched_blocks c in
      Bcache.read c ~obj:1L ~block:40 (* beyond the window: new stream *);
      ignore pf1;
      Bcache.read c ~obj:1L ~block:48 (* stride 8: sequentialish *);
      check_bool "stride-8 prefetches" true (Bcache.prefetched_blocks c > pf1))

let throttle_bounds_dirty () =
  run_fiber (fun eng ->
      let c, _ = mk_cache eng ~capacity:(1 lsl 30) () in
      let t0 = Engine.now eng in
      (* 64 MB of writes: far beyond the 32 MB outstanding bound, so the
         writer must have been stalled to the disk's pace *)
      for b = 0 to 8191 do
        Bcache.write c ~obj:9L ~block:b
      done;
      check_bool "writer throttled" true (Engine.now eng > t0))

(* A backend that records every write-back as (obj, block, count) and
   completes it 1 ms later; a demand read parks the caller for 10 ms.
   With [trace], every backend call is also logged there, one line each
   with the simulated time and the call's arguments. *)
let recording_backend ?trace eng log =
  let note fmt =
    Printf.ksprintf
      (fun line -> Option.iter (fun b -> Printf.bprintf b "%.6f %s\n" (Engine.now eng) line) trace)
      fmt
  in
  {
    Bcache.demand_read =
      (fun ~obj ~block ~count ~sequential ->
        note "demand_read %Ld %d %d %b" obj block count sequential;
        Engine.sleep eng 0.01);
    readahead = (fun ~obj ~block ~count -> note "readahead %Ld %d %d" obj block count);
    write_back =
      (fun ~obj ~block ~count ~done_ ->
        note "write_back %Ld %d %d" obj block count;
        log := (obj, block, count) :: !log;
        Engine.schedule eng 0.001 done_);
    sync = (fun () -> note "sync");
  }

let wb_list = Alcotest.(list (triple int64 int int))

(* Fiber A misses block 100 and parks in demand_read; fiber B writes the
   same block meanwhile. When A resumes, its insert replaces B's dirty
   copy, which must leave through the eviction path: written back once,
   and only one copy stays resident. *)
let concurrent_insert_replaces () =
  let eng = Engine.create () in
  let log = ref [] in
  let c = Bcache.create eng ~backend:(recording_backend eng log) ~capacity:(1 lsl 20) ~name:"c" in
  Engine.spawn eng (fun () -> Bcache.read c ~obj:1L ~block:100);
  Engine.spawn eng (fun () -> Bcache.write c ~obj:1L ~block:100);
  Engine.run eng;
  check_int "one copy resident" 8192 (Bcache.resident_bytes c);
  Alcotest.check wb_list "B's dirty block written back once" [ (1L, 100, 1) ] !log;
  run_on eng (fun () -> Bcache.commit_all c);
  Alcotest.check wb_list "nothing left dirty" [ (1L, 100, 1) ] !log

(* A hit promotes; the readahead probe does not. The victim is the LRU
   tail, and a dirty victim is written back alone. *)
let lru_order () =
  let eng = Engine.create () in
  let log = ref [] in
  let c = Bcache.create eng ~backend:(recording_backend eng log) ~capacity:(2 * 8192) ~name:"c" in
  run_on eng (fun () ->
      Bcache.write c ~obj:1L ~block:0;
      Bcache.write c ~obj:1L ~block:50;
      Bcache.read c ~obj:1L ~block:0;
      Bcache.read c ~obj:1L ~block:20);
  Alcotest.check wb_list "dirty tail written back" [ (1L, 50, 1) ] !log;
  let c = Bcache.create eng ~backend:(recording_backend eng log) ~capacity:(8 * 8192) ~name:"c" in
  run_on eng (fun () ->
      Bcache.read c ~obj:2L ~block:10;
      Bcache.read c ~obj:2L ~block:1;
      Bcache.read c ~obj:3L ~block:100;
      Bcache.read c ~obj:3L ~block:200;
      (* sequential from 1: the probe stops at resident block 10 without
         promoting it, so the four readahead blocks push it out *)
      Bcache.read c ~obj:2L ~block:5;
      check_int "readahead stopped at block 10" 4 (Bcache.prefetched_blocks c);
      let misses = Bcache.misses c in
      Bcache.read c ~obj:2L ~block:1;
      check_int "block 1 still resident" misses (Bcache.misses c);
      Bcache.read c ~obj:2L ~block:10;
      check_int "block 10 evicted" (misses + 1) (Bcache.misses c))

(* Past [max_outstanding_blocks] with nothing in flight, a writer
   flushes every dirty object in the dirty index's iteration order. The
   index has a history here: forty clean commits (each books an empty
   row) and one object dirtied then invalidated. Below the high-water
   mark per object, so only the throttle path writes back. *)
let throttle_flush_order () =
  let eng = Engine.create () in
  let log = ref [] in
  let c =
    Bcache.create eng ~backend:(recording_backend eng log) ~capacity:(64 lsl 20) ~name:"c"
  in
  let objs = [| 3L; 17L; 42L; 8L; 1000L; 5L; 99L; 64L; 23L |] in
  run_on eng (fun () ->
      for i = 0 to 39 do
        Bcache.commit c ~obj:(Int64.of_int (2000 + (i * 13)))
      done;
      Bcache.write c ~obj:7L ~block:0;
      Bcache.invalidate_object c 7L;
      for i = 0 to 4096 do
        let o = objs.(i mod Array.length objs) in
        (* a gap every 100 blocks splits each object's run *)
        let b = i / Array.length objs in
        Bcache.write c ~obj:o ~block:(if b >= 100 then b + 1 else b)
      done);
  Alcotest.check wb_list "throttle flush order"
    [
      (3L, 0, 100); (3L, 101, 356); (42L, 0, 100); (42L, 101, 355); (99L, 0, 100);
      (99L, 101, 355); (8L, 0, 100); (8L, 101, 355); (64L, 0, 100); (64L, 101, 355);
      (23L, 0, 100); (23L, 101, 355); (1000L, 0, 100); (1000L, 101, 355); (17L, 0, 100);
      (17L, 101, 356); (5L, 0, 100); (5L, 101, 355);
    ]
    (List.rev !log)

(* A crash drops dirty blocks with [drop_clean] while 200 writers sit
   parked in the dirty throttle behind one write-back held in flight for
   5 s. The dropped blocks must leave the throttle's count: when that
   write-back completes, the parked writers resume, and a later write to
   a new object returns. *)
let drop_clean_releases_throttle () =
  let eng = Engine.create () in
  let backend =
    {
      Bcache.demand_read = (fun ~obj:_ ~block:_ ~count:_ ~sequential:_ -> ());
      readahead = (fun ~obj:_ ~block:_ ~count:_ -> ());
      write_back = (fun ~obj:_ ~block:_ ~count:_ ~done_ -> Engine.schedule eng 5.0 done_);
      sync = (fun () -> ());
    }
  in
  let c = Bcache.create eng ~backend ~capacity:(1 lsl 30) ~name:"c" in
  Engine.spawn eng (fun () ->
      Bcache.write c ~obj:0L ~block:0;
      Bcache.commit c ~obj:0L);
  let finished = ref 0 in
  for w = 1 to 200 do
    Engine.spawn eng (fun () ->
        for b = 0 to 21 do
          Bcache.write c ~obj:(Int64.of_int w) ~block:b
        done;
        incr finished)
  done;
  Engine.schedule eng 1.0 (fun () -> Bcache.drop_clean c);
  Engine.run ~until:20.0 eng;
  check_int "parked writers resumed" 200 !finished;
  let returned = ref false in
  Engine.spawn eng (fun () ->
      Bcache.write c ~obj:999L ~block:0;
      returned := true);
  Engine.run ~until:30.0 eng;
  check_bool "a write after the crash returns" true !returned

(* Three groups of fibers park on one held write-back and resume newest
   first, group by group. Object 1 has 500 dirty blocks; four committers
   of it park on its commit barrier behind the flush the first one
   issues. Filler objects then bring the dirty total to the throttle's
   bound, so four writers of new objects park in the throttle, and three
   [commit_all] callers park until the cache is idle (the first flushes
   the rest). Every write-back is held until 1 s. Object 1's completion
   releases its committers and, with the dirty total back under the
   bound, the throttled writers; the last completion releases the
   [commit_all] callers. *)
let wake_order_newest_first () =
  let eng = Engine.create () in
  let held = ref [] in
  let backend =
    {
      Bcache.demand_read = (fun ~obj:_ ~block:_ ~count:_ ~sequential:_ -> ());
      readahead = (fun ~obj:_ ~block:_ ~count:_ -> ());
      write_back = (fun ~obj:_ ~block:_ ~count:_ ~done_ -> held := done_ :: !held);
      sync = (fun () -> ());
    }
  in
  let c = Bcache.create eng ~backend ~capacity:(1 lsl 30) ~name:"c" in
  let resumed = ref [] in
  let fiber label f =
    Engine.spawn eng (fun () ->
        f ();
        resumed := label :: !resumed)
  in
  run_on eng (fun () ->
      for b = 0 to 499 do
        Bcache.write c ~obj:1L ~block:b
      done;
      (* 3596 more blocks, under the high-water mark per object, bring
         the dirty total to the bound itself *)
      for o = 0 to 6 do
        for b = 0 to 449 do
          Bcache.write c ~obj:(Int64.of_int (10 + o)) ~block:b
        done
      done;
      for b = 0 to 445 do
        Bcache.write c ~obj:17L ~block:b
      done);
  check_int "no write-back yet" 0 (List.length !held);
  for i = 1 to 4 do
    fiber (Printf.sprintf "commit %d" i) (fun () -> Bcache.commit c ~obj:1L)
  done;
  for i = 1 to 4 do
    fiber (Printf.sprintf "writer %d" i) (fun () ->
        Bcache.write c ~obj:(Int64.of_int (100 + i)) ~block:0)
  done;
  for i = 1 to 3 do
    fiber (Printf.sprintf "commit_all %d" i) (fun () -> Bcache.commit_all c)
  done;
  Engine.run ~until:0.5 eng;
  Alcotest.(check (list string)) "all parked" [] !resumed;
  Engine.schedule eng 0.5 (fun () -> List.iter (fun d -> d ()) (List.rev !held));
  Engine.run eng;
  Alcotest.(check (list string))
    "each group resumes newest first"
    [
      "commit 4"; "commit 3"; "commit 2"; "commit 1"; "writer 4"; "writer 3"; "writer 2";
      "writer 1"; "commit_all 3"; "commit_all 2"; "commit_all 1";
    ]
    (List.rev !resumed)

(* Each object's committers wait on that object's barrier alone. Both
   objects' write-backs are held; object 1's completes first and resumes
   only its committers, and object 2's then resume newest first, as they
   parked. Committers woken by another object's completion would park
   again, in reverse order. *)
let barrier_per_object () =
  let eng = Engine.create () in
  let held = ref [] in
  let backend =
    {
      Bcache.demand_read = (fun ~obj:_ ~block:_ ~count:_ ~sequential:_ -> ());
      readahead = (fun ~obj:_ ~block:_ ~count:_ -> ());
      write_back = (fun ~obj ~block:_ ~count:_ ~done_ -> held := (obj, done_) :: !held);
      sync = (fun () -> ());
    }
  in
  let c = Bcache.create eng ~backend ~capacity:(1 lsl 20) ~name:"c" in
  run_on eng (fun () ->
      Bcache.write c ~obj:1L ~block:0;
      Bcache.write c ~obj:2L ~block:0);
  let resumed = ref [] in
  List.iter
    (fun (obj, i) ->
      Engine.spawn eng (fun () ->
          Bcache.commit c ~obj;
          resumed := Printf.sprintf "%Ld.%d" obj i :: !resumed))
    [ (2L, 1); (2L, 2); (1L, 1); (1L, 2) ];
  let complete obj =
    Engine.schedule eng 1.0 (fun () -> List.iter (fun (o, d) -> if o = obj then d ()) !held);
    Engine.run eng
  in
  complete 1L;
  Alcotest.(check (list string)) "object 1's committers only" [ "1.2"; "1.1" ] (List.rev !resumed);
  complete 2L;
  Alcotest.(check (list string))
    "then object 2's, newest first" [ "1.2"; "1.1"; "2.2"; "2.1" ] (List.rev !resumed)

(* A storage node caches block [b] of logical site [k] as [k * 2^27 + b]
   (Obsd.cache_block). Across sites 0-7, blocks of two objects never
   answer for each other, nor blocks of one object that differ only in
   their site; a block outside the key's 32 bits raises instead of
   aliasing another. *)
let key_range_guard () =
  let eng = Engine.create () in
  let c =
    Bcache.create eng ~backend:(recording_backend eng (ref [])) ~capacity:(1 lsl 20) ~name:"c"
  in
  let blocks =
    List.concat_map (fun site -> List.map (fun b -> (site lsl 27) + b) [ 0; 1; (1 lsl 27) - 1 ])
      (List.init 8 Fun.id)
  in
  run_on eng (fun () ->
      List.iter (fun block -> Bcache.write c ~obj:1L ~block) blocks;
      check_int "every site's blocks resident apart" (List.length blocks * 8192)
        (Bcache.resident_bytes c);
      let misses = Bcache.misses c in
      List.iter (fun block -> Bcache.write c ~obj:2L ~block) blocks;
      check_int "the other object's blocks all miss" (misses + List.length blocks)
        (Bcache.misses c);
      let hits = Bcache.hits c in
      List.iter (fun block -> Bcache.read c ~obj:1L ~block) blocks;
      check_int "the first object's blocks all hit" (hits + List.length blocks) (Bcache.hits c));
  List.iter
    (fun block ->
      check_bool
        (Printf.sprintf "block %d raises" block)
        true
        (try
           Bcache.write c ~obj:1L ~block;
           false
         with Invalid_argument _ -> true))
    [ 1 lsl 32; -1 ]

(* Seeded random traffic from four fibers over five objects at a
   64-block capacity, so blocks are evicted throughout: sequential runs
   (readahead fires), random reads, writes, commits, commit_all,
   invalidations and drop_clean. Every backend call is logged with its
   arguments, and each operation with the cache's counters once it
   returns; the log's digest pins replacement, readahead, clustering and
   write-back as they stood before the cache moved onto Slot_lru. *)
let backend_trace_pinned () =
  let module Prng = Slice_util.Prng in
  let eng = Engine.create () in
  let trace = Buffer.create (1 lsl 16) in
  let c =
    Bcache.create eng ~backend:(recording_backend ~trace eng (ref [])) ~capacity:(64 * 8192)
      ~name:"c"
  in
  let rng = Prng.create 27 in
  for f = 0 to 3 do
    let rng = Prng.split rng in
    let cursor = Array.make 6 0 in
    Engine.spawn eng (fun () ->
        for _ = 1 to 400 do
          let o = 1 + Prng.int rng 5 in
          let obj = Int64.of_int o in
          let op = Prng.int rng 100 in
          let label, block =
            if op < 30 then begin
              let b = cursor.(o) in
              cursor.(o) <- (if Prng.int rng 8 = 0 then Prng.int rng 40 else b + 1);
              Bcache.read c ~obj ~block:b;
              ("read", b)
            end
            else if op < 50 then begin
              let b = Prng.int rng 40 in
              Bcache.read c ~obj ~block:b;
              ("read", b)
            end
            else if op < 80 then begin
              let b = if Prng.int rng 2 = 0 then cursor.(o) + Prng.int rng 4 else Prng.int rng 40 in
              Bcache.write c ~obj ~block:b;
              ("write", b)
            end
            else if op < 90 then (Bcache.commit c ~obj; ("commit", 0))
            else if op < 95 then (Bcache.invalidate_object c obj; ("invalidate", 0))
            else if op < 98 then (Bcache.commit_all c; ("commit_all", 0))
            else begin
              Bcache.commit_all c;
              Bcache.drop_clean c;
              ("drop_clean", 0)
            end
          in
          Printf.bprintf trace "%.6f fiber %d %s %d %d: resident %d hits %d misses %d prefetched %d\n"
            (Engine.now eng) f label o block (Bcache.resident_bytes c) (Bcache.hits c)
            (Bcache.misses c) (Bcache.prefetched_blocks c);
          Engine.sleep eng (Prng.float rng 0.004)
        done)
  done;
  Engine.run eng;
  run_on eng (fun () -> Bcache.commit_all c);
  let log = Buffer.contents trace in
  let calls kind =
    List.length
      (List.filter
         (fun l -> List.mem kind (String.split_on_char ' ' l))
         (String.split_on_char '\n' log))
  in
  List.iter
    (fun kind -> check_bool (kind ^ " logged") true (calls kind > 0))
    [ "demand_read"; "readahead"; "write_back"; "sync"; "invalidate"; "drop_clean" ];
  check_string "backend trace digest" "bb897218fb44c10e505f5386f13859c9" (Digest.to_hex (Digest.string log))

(* Steady-state cache operations allocate nothing: hits, misses that
   evict from a full cache, the readahead probe and its inserts, write
   hits and the commit of a clean object. Nothing here parks, so the
   cache runs outside a fiber. *)
let alloc_budget () =
  let eng = Engine.create () in
  let noop =
    {
      Bcache.demand_read = (fun ~obj:_ ~block:_ ~count:_ ~sequential:_ -> ());
      readahead = (fun ~obj:_ ~block:_ ~count:_ -> ());
      write_back = (fun ~obj:_ ~block:_ ~count:_ ~done_:_ -> ());
      sync = (fun () -> ());
    }
  in
  let blocks = 1024 in
  let c = Bcache.create eng ~backend:noop ~capacity:(blocks * 8192) ~name:"c" in
  (* first sight of an object, and its first commit, make its records *)
  List.iter (fun obj -> Bcache.read c ~obj ~block:3) [ 2L; 3L; 4L ];
  Bcache.commit c ~obj:4L;
  (* strided reads never look sequential: one block per miss *)
  for b = 0 to blocks - 1 do
    Bcache.read c ~obj:1L ~block:(1 + (b * 100))
  done;
  let words label f =
    let w0 = Gc.minor_words () in
    f ();
    check_float (label ^ ": minor words") 0.0 (Gc.minor_words () -. w0)
  in
  words "10k read hits" (fun () ->
      for i = 0 to 9999 do
        Bcache.read c ~obj:1L ~block:(1 + (i mod blocks * 100))
      done);
  check_int "all hits" 10000 (Bcache.hits c);
  words "10k read misses on a full cache" (fun () ->
      for i = 0 to 9999 do
        Bcache.read c ~obj:2L ~block:(1 + (i * 100))
      done);
  check_int "cache stayed full" (blocks * 8192) (Bcache.resident_bytes c);
  words "sequential scan: readahead probes and inserts" (fun () ->
      for b = 0 to 9999 do
        Bcache.read c ~obj:3L ~block:b
      done);
  check_bool "readahead ran" true (Bcache.prefetched_blocks c > 9000);
  words "10k commits of a clean object" (fun () ->
      for _ = 1 to 10000 do
        Bcache.commit c ~obj:4L
      done);
  for b = 0 to 99 do
    Bcache.write c ~obj:5L ~block:(b * 100)
  done;
  words "10k write hits" (fun () ->
      for i = 0 to 9999 do
        Bcache.write c ~obj:5L ~block:(i mod 100 * 100)
      done)

(* An object's record goes away once the object is invalidated and its
   write-backs have drained: create, write, commit and invalidate over
   ten thousand distinct objects leaves the live heap where it was. *)
let invalidated_objects_leave_no_rows () =
  run_fiber (fun eng ->
      let c, _ = mk_cache eng () in
      let cycle i =
        let obj = Int64.of_int i in
        Bcache.write c ~obj ~block:0;
        Bcache.commit c ~obj;
        Bcache.invalidate_object c obj
      in
      for i = 1 to 100 do
        cycle i
      done;
      let live () =
        Gc.full_major ();
        (Gc.quick_stat ()).Gc.live_words
      in
      let before = live () in
      for i = 101 to 10_100 do
        cycle i
      done;
      let grown = live () - before in
      check_bool (Printf.sprintf "live words grew by %d (bound 1000)" grown) true (grown < 1000))

(* ---- Ffs ---- *)

let ffs_alloc_free_basic () =
  let f = Ffs.create ~size:1000L in
  let a = Option.get (Ffs.alloc f 100) in
  check_bool "first at 0" true (a = 0L);
  let b = Option.get (Ffs.alloc f 200) in
  check_bool "second sequential" true (b = 100L);
  check_bool "used" true (Ffs.used_bytes f = 300L);
  Ffs.free f ~off:a ~len:100;
  check_bool "freed" true (Ffs.free_bytes f = 800L);
  check_bool "invariants" true (Ffs.check_invariants f)

let ffs_exhaustion () =
  let f = Ffs.create ~size:100L in
  check_bool "fits" true (Ffs.alloc f 100 <> None);
  check_bool "full" true (Ffs.alloc f 1 = None)

let ffs_coalescing () =
  let f = Ffs.create ~size:300L in
  let a = Option.get (Ffs.alloc f 100) in
  let b = Option.get (Ffs.alloc f 100) in
  let c = Option.get (Ffs.alloc f 100) in
  Ffs.free f ~off:a ~len:100;
  Ffs.free f ~off:c ~len:100;
  check_int "two fragments" 2 (Ffs.fragment_count f);
  Ffs.free f ~off:b ~len:100;
  check_int "coalesced to one" 1 (Ffs.fragment_count f);
  check_bool "largest" true (Ffs.largest_free f = 300L)

let ffs_double_free_rejected () =
  let f = Ffs.create ~size:100L in
  let a = Option.get (Ffs.alloc f 50) in
  Ffs.free f ~off:a ~len:50;
  check_bool "double free raises" true
    (try
       Ffs.free f ~off:a ~len:50;
       false
     with Invalid_argument _ -> true)

let ffs_best_fit_reuses_fragment () =
  let f = Ffs.create ~size:1000L in
  let a = Option.get (Ffs.alloc f 100) in
  let _b = Option.get (Ffs.alloc f 50) in
  Ffs.free f ~off:a ~len:100;
  (* best fit should take the 100-byte hole, not the big tail *)
  let c = Option.get (Ffs.alloc f ~strategy:`Best_fit 100) in
  check_bool "hole reused" true (c = 0L)

let ffs_model =
  qtest ~count:100 "ffs invariants under random ops"
    QCheck2.Gen.(list (int_range 1 64))
    (fun sizes ->
      let f = Ffs.create ~size:4096L in
      let live = ref [] in
      List.iteri
        (fun i sz ->
          if i mod 3 = 2 && !live <> [] then begin
            let off, len = List.hd !live in
            live := List.tl !live;
            Ffs.free f ~off ~len
          end
          else
            match Ffs.alloc f sz with
            | Some off -> live := (off, sz) :: !live
            | None -> ())
        sizes;
      (* no two live extents overlap *)
      let sorted = List.sort compare !live in
      let rec no_overlap = function
        | (o1, l1) :: ((o2, _) :: _ as rest) ->
            Int64.add o1 (Int64.of_int l1) <= o2 && no_overlap rest
        | _ -> true
      in
      no_overlap sorted && Ffs.check_invariants f)

let suite =
  [
    ("random access time", `Quick, random_access_time);
    ("sequential access cheap", `Quick, sequential_access_cheap);
    ("arms in parallel", `Quick, arms_in_parallel);
    ("channel caps bandwidth", `Quick, channel_caps_bandwidth);
    ("async booking", `Quick, async_booking);
    ("booking words", `Quick, booking_words);
    ("cache hit avoids disk", `Quick, cache_hit_no_disk);
    ("sequential prefetch", `Quick, sequential_prefetch);
    ("random no prefetch", `Quick, random_no_prefetch);
    ("write behind and commit clustering", `Quick, write_behind_and_commit);
    ("commit only target object", `Quick, commit_only_target_object);
    ("eviction writes back dirty", `Quick, eviction_writes_back_dirty);
    ("invalidate discards", `Quick, invalidate_discards);
    ("drop_clean makes cold", `Quick, drop_clean_cold);
    ("mirrored stride prefetches", `Quick, mirrored_stride_counts_sequential);
    ("throttle bounds dirty", `Quick, throttle_bounds_dirty);
    ("lru order", `Quick, lru_order);
    ("concurrent insert replaces", `Quick, concurrent_insert_replaces);
    ("throttle flush order", `Quick, throttle_flush_order);
    ("backend trace pinned", `Quick, backend_trace_pinned);
    ("drop_clean releases the throttle", `Quick, drop_clean_releases_throttle);
    ("waiters resume newest first", `Quick, wake_order_newest_first);
    ("a completion wakes its own object's committers", `Quick, barrier_per_object);
    ("key range guard", `Quick, key_range_guard);
    ("allocation budget", `Quick, alloc_budget);
    ("invalidated objects leave no rows", `Quick, invalidated_objects_leave_no_rows);
    ("ffs alloc/free basic", `Quick, ffs_alloc_free_basic);
    ("ffs exhaustion", `Quick, ffs_exhaustion);
    ("ffs coalescing", `Quick, ffs_coalescing);
    ("ffs double free rejected", `Quick, ffs_double_free_rejected);
    ("ffs best fit reuses fragment", `Quick, ffs_best_fit_reuses_fragment);
    ffs_model;
  ]
