module Engine = Slice_sim.Engine
module Slot_lru = Slice_util.Slot_lru

let block_size = 8192

type backend = {
  demand_read : obj:int64 -> block:int -> count:int -> sequential:bool -> unit;
  readahead : obj:int64 -> block:int -> count:int -> unit;
  write_back : obj:int64 -> block:int -> count:int -> done_:(unit -> unit) -> unit;
  sync : unit -> unit;
}

let disk_backend eng disk =
  {
    demand_read =
      (fun ~obj:_ ~block:_ ~count ~sequential ->
        Disk.read disk ~sequential ~bytes:(count * block_size) ());
    readahead =
      (fun ~obj:_ ~block:_ ~count ->
        ignore (Disk.read_async disk ~sequential:true ~bytes:(count * block_size)));
    write_back =
      (fun ~obj:_ ~block:_ ~count ~done_ ->
        let finish =
          Disk.write_async disk ~sequential:(count > 1) ~bytes:(count * block_size)
        in
        Engine.schedule_at eng finish done_);
    sync = (fun () -> ());
  }

(* The cache is a Slot_lru keyed by (object, block). Per-slot columns,
   grown with the table through [Slot_lru.fit], hold the owning object's
   record, the block number, the dirty bit and the links of the owner's
   dirty list. Hits, misses, evictions and readahead therefore allocate
   nothing; the table doubles on demand up to the capacity in blocks. *)

let nil = -1
let no_block = min_int

(* One record per object the cache has seen: its last accessed block
   (the sequential-stream hint), its dirty blocks as a list threaded
   through the slot columns, its write-back counts and the commits
   waiting on them. *)
type obj_rec = {
  obj : int64;
  id : int; (* keys the object's blocks in the table *)
  mutable last : int; (* last block read or written, or [no_block] *)
  mutable dirty_head : int; (* first slot of the dirty list *)
  mutable ndirty : int;
  mutable pending : int; (* write-backs issued, not yet stable *)
  mutable stable : int; (* write-backs completed, ever *)
  mutable barrier : Engine.queue; (* commits waiting on a completion *)
  mutable indexed : bool; (* bound in [dirty_index] *)
  mutable retired : bool; (* invalidated; kept until its write-backs drain *)
}

(* The barrier of a record no commit has waited on yet: empty, and
   shared, so no fiber may wait in it. *)
let no_barrier = Engine.queue ()

let no_owner =
  {
    obj = 0L;
    id = -1;
    last = no_block;
    dirty_head = nil;
    ndirty = 0;
    pending = 0;
    stable = 0;
    barrier = no_barrier;
    indexed = false;
    retired = false;
  }

type t = {
  eng : Engine.t;
  backend : backend;
  lru : Slot_lru.t;
  mutable owner : obj_rec array;
  mutable blk : int array;
  mutable dirty : bool array;
  mutable dprev : int array; (* the owner's dirty list *)
  mutable dnext : int array;
  mutable scratch : int array; (* an object's dirty slots, sorted at flush *)
  objects : (int64, obj_rec) Hashtbl.t;
  dirty_index : (int64, obj_rec) Hashtbl.t; (* objects dirtied or committed *)
  mutable next_id : int;
  mutable hits : int;
  mutable misses : int;
  mutable prefetched : int;
  mutable inflight : int; (* outstanding write-backs *)
  mutable inflight_blocks : int;
  mutable total_dirty : int;
  idle : Engine.queue; (* fibers parked in commit_all *)
  throttle : Engine.queue; (* writers parked by the throttle *)
}

(* Write-behind high water: once an object accumulates this many dirty
   blocks the cache starts flushing them in the background, like the
   FreeBSD buffer daemon — so a long sequential write streams to disk
   instead of leaving one giant flush for commit. *)
let high_water_blocks = 512

(* Dirty throttle: writers stall once this much data is dirty or in
   flight, so a sustained write stream runs at the backend's sink rate
   (the buffer daemon's flow control). 32 MB per cache; stalled writers
   resume as soon as a completion frees room, so the stream runs at
   exactly the sink rate instead of convoying behind a full drain. *)
let max_outstanding_blocks = 4096

let prefetch_blocks = 32 (* 256 KB / 8 KB *)

(* ---- index ---- *)

(* The table key of [block] of [r]: the record's id above the block's 32
   bits. Distinct blocks get distinct keys only while blocks fit 32 bits
   and ids 30, so anything outside raises rather than aliasing. *)
let[@hot] key r block =
  if block lsr 32 <> 0 || r.id lsr 30 <> 0 then
    invalid_arg "Bcache: block or object id out of range";
  (r.id lsl 32) lor block

(* The slot holding [block] of [r], or [nil]. Promotes nothing. *)
let[@hot] probe t r block = Slot_lru.slot t.lru (key r block)

let[@hot] rec absent_run t r block n =
  if n < prefetch_blocks - 1 && probe t r (block + n) = nil then absent_run t r block (n + 1)
  else n

(* ---- dirty lists ---- *)

let index t r =
  if not r.indexed then begin
    Hashtbl.replace t.dirty_index r.obj r;
    r.indexed <- true
  end

let mark_dirty t r s =
  index t r;
  if not t.dirty.(s) then begin
    t.dirty.(s) <- true;
    t.dprev.(s) <- nil;
    t.dnext.(s) <- r.dirty_head;
    if r.dirty_head <> nil then t.dprev.(r.dirty_head) <- s;
    r.dirty_head <- s;
    r.ndirty <- r.ndirty + 1;
    t.total_dirty <- t.total_dirty + 1
  end

let clean t s =
  let r = t.owner.(s) in
  let p = t.dprev.(s) and n = t.dnext.(s) in
  if p = nil then r.dirty_head <- n else t.dnext.(p) <- n;
  if n <> nil then t.dprev.(n) <- p;
  t.dirty.(s) <- false;
  r.ndirty <- r.ndirty - 1;
  t.total_dirty <- t.total_dirty - 1

(* ---- write-back ---- *)

let write_back_done t r count () =
  t.inflight <- t.inflight - 1;
  t.inflight_blocks <- t.inflight_blocks - count;
  r.pending <- r.pending - 1;
  (* the last write-back of an invalidated object frees its record *)
  if r.pending = 0 && r.retired then Hashtbl.remove t.objects r.obj;
  r.stable <- r.stable + 1;
  (* commit barriers re-check their own completion predicates *)
  Engine.wake_all r.barrier;
  if t.total_dirty + t.inflight_blocks < max_outstanding_blocks then Engine.wake_all t.throttle;
  if t.inflight = 0 then Engine.wake_all t.idle

let start_write_back t r ~block ~count =
  t.inflight <- t.inflight + 1;
  t.inflight_blocks <- t.inflight_blocks + count;
  r.pending <- r.pending + 1;
  t.backend.write_back ~obj:r.obj ~block ~count ~done_:(write_back_done t r count)

(* A displaced dirty block is written back on its own. *)
let write_back_victim t s =
  clean t s;
  start_write_back t t.owner.(s) ~block:t.blk.(s) ~count:1

let swap (a : int array) i j =
  let x = a.(i) in
  a.(i) <- a.(j);
  a.(j) <- x

(* Heapsort of [scratch.(0 .. n-1)] by block number. *)
let rec sift t i n =
  let a = t.scratch and l = (2 * i) + 1 in
  if l < n then begin
    let c = if l + 1 < n && t.blk.(a.(l + 1)) > t.blk.(a.(l)) then l + 1 else l in
    if t.blk.(a.(c)) > t.blk.(a.(i)) then begin
      swap a i c;
      sift t c n
    end
  end

let sort_scratch t n =
  for i = (n / 2) - 1 downto 0 do
    sift t i n
  done;
  for e = n - 1 downto 1 do
    swap t.scratch 0 e;
    sift t 0 e
  done

(* Cluster contiguous dirty blocks into single transfers. *)
let flush t r =
  let n = r.ndirty in
  if n > 0 then begin
    if Array.length t.scratch < n then t.scratch <- Array.make (max n (2 * Array.length t.scratch)) 0;
    let s = ref r.dirty_head in
    for i = 0 to n - 1 do
      t.scratch.(i) <- !s;
      s := t.dnext.(!s)
    done;
    sort_scratch t n;
    let i = ref 0 in
    while !i < n do
      let b0 = t.blk.(t.scratch.(!i)) in
      let len = ref 1 in
      while !i + !len < n && t.blk.(t.scratch.(!i + !len)) = b0 + !len do
        incr len
      done;
      for k = !i to !i + !len - 1 do
        clean t t.scratch.(k)
      done;
      start_write_back t r ~block:b0 ~count:!len;
      i := !i + !len
    done
  end

(* Every object of the dirty index, in its iteration order. *)
let flush_all t =
  let rs = Hashtbl.fold (fun _ r acc -> r :: acc) t.dirty_index [] in
  List.iter (flush t) rs

(* ---- slot table ---- *)

(* Free slot [s] of an entry that leaves without write-back. *)
let release t s =
  if t.dirty.(s) then clean t s;
  Slot_lru.drop t.lru s;
  t.owner.(s) <- no_owner

(* Bind [block] of [r] as the most recently used block and return its
   slot. The entry the slot held — the LRU tail of a full cache, or the
   block's own resident copy, which a demand read that parked may find
   loaded or dirtied by another fiber — leaves as an eviction: a dirty
   one is written back. The backend only enqueues the write-back, so the
   victim's columns are read before they are overwritten. *)
let place t r block =
  let s = Slot_lru.add t.lru (key r block) ~lease:infinity in
  t.owner <- Slot_lru.fit t.lru t.owner no_owner;
  t.blk <- Slot_lru.fit t.lru t.blk 0;
  t.dirty <- Slot_lru.fit t.lru t.dirty false;
  t.dprev <- Slot_lru.fit t.lru t.dprev nil;
  t.dnext <- Slot_lru.fit t.lru t.dnext nil;
  if Slot_lru.displaced t.lru && t.dirty.(s) then write_back_victim t s;
  t.owner.(s) <- r;
  t.blk.(s) <- block;
  s

let create eng ~backend ~capacity ~name:_ =
  let cap_blocks = capacity / block_size in
  if cap_blocks < 1 then invalid_arg "Bcache.create: capacity below one block";
  {
    eng;
    backend;
    lru = Slot_lru.create ~capacity:cap_blocks;
    owner = [||];
    blk = [||];
    dirty = [||];
    dprev = [||];
    dnext = [||];
    scratch = Array.make 64 0;
    (* lint: bounded — one record per object seen; invalidate_object drops it *)
    objects = Hashtbl.create 64;
    (* lint: bounded — the dirtied or committed subset of [objects] *)
    dirty_index = Hashtbl.create 16;
    next_id = 0;
    hits = 0;
    misses = 0;
    prefetched = 0;
    inflight = 0;
    inflight_blocks = 0;
    total_dirty = 0;
    idle = Engine.queue ();
    throttle = Engine.queue ();
  }

(* The object's record, made on first sight; touching an invalidated
   object with write-backs still in flight revives its record. *)
let record t obj =
  match Hashtbl.find t.objects obj with
  | r ->
      r.retired <- false;
      r
  | exception Not_found ->
      let r = { no_owner with obj; id = t.next_id } in
      t.next_id <- t.next_id + 1;
      Hashtbl.add t.objects obj r;
      r

(* A forward stride of up to one stripe chunk (4 blocks of 8 KB under the
   32 KB stripe unit) still reads as a sequential stream to the drive —
   this is how a client alternating between mirrors keeps triggering
   contiguous prefetch whose skipped half goes unused. *)
let sequentialish ~last ~block = block > last && block - last <= 8

let read t ~obj ~block =
  let r = record t obj in
  if Slot_lru.find t.lru (key r block) <> nil then begin
    t.hits <- t.hits + 1;
    r.last <- block
  end
  else begin
    t.misses <- t.misses + 1;
    let seq = if r.last = no_block then block = 0 else sequentialish ~last:r.last ~block in
    (* Wait for the demand block only; a sequential stream gets the
       readahead window behind it asynchronously (FFS-style pipelined
       prefetch, up to 256 KB beyond the current access). *)
    t.backend.demand_read ~obj ~block ~count:1 ~sequential:(seq && block <> 0);
    (* the fiber parked: the object may have been invalidated, and the
       block loaded or dirtied by another fiber, meanwhile *)
    let r = record t obj in
    ignore (place t r block);
    if seq then begin
      let run = absent_run t r (block + 1) 0 in
      if run > 0 then begin
        t.backend.readahead ~obj ~block:(block + 1) ~count:run;
        for i = 1 to run do
          ignore (place t r (block + i))
        done;
        t.prefetched <- t.prefetched + run
      end
    end;
    r.last <- block
  end

let write t ~obj ~block =
  let r = record t obj in
  let s = Slot_lru.find t.lru (key r block) in
  let s =
    if s <> nil then begin
      t.hits <- t.hits + 1;
      s
    end
    else begin
      t.misses <- t.misses + 1;
      place t r block
    end
  in
  mark_dirty t r s;
  r.last <- block;
  (* background write-behind past the high-water mark *)
  if r.ndirty >= high_water_blocks then flush t r;
  (* Dirty throttle: stall the writer while the backend is far behind;
     re-checked on every write-back completion. Flushing the writer's own
     object here would shred streams into tiny runs (writers park
     mid-request), so when the backend goes idle we flush EVERY object's
     accumulated dirty set — each a contiguous clustered run — and let
     completions pace the writers. *)
  while t.total_dirty + t.inflight_blocks > max_outstanding_blocks do
    if t.inflight = 0 then flush_all t
    else Engine.wait t.eng t.throttle
  done

let wait_idle t =
  while t.inflight > 0 do
    Engine.wait t.eng t.idle
  done

(* Commit waits only for the write-backs of ITS object that are already
   booked when it runs — not for other streams' data, and not for writes
   that arrive later (a file can be committed while still being
   written). *)
let wait_obj_barrier t r =
  let target = r.stable + r.pending in
  while r.stable < target do
    if r.barrier == no_barrier then r.barrier <- Engine.queue ();
    Engine.wait t.eng r.barrier
  done

let commit t ~obj =
  let r = record t obj in
  (* even a clean object joins the dirty index: the index's insert
     history fixes the order in which the throttle flushes objects *)
  index t r;
  flush t r;
  wait_obj_barrier t r;
  t.backend.sync ()

let commit_all t =
  flush_all t;
  wait_idle t;
  t.backend.sync ()

let invalidate_object t obj =
  match Hashtbl.find t.objects obj with
  | exception Not_found -> ()
  | r ->
      Slot_lru.iter t.lru (fun s -> if t.owner.(s) == r then release t s);
      if r.indexed then begin
        Hashtbl.remove t.dirty_index obj;
        r.indexed <- false
      end;
      r.last <- no_block;
      if r.pending = 0 then Hashtbl.remove t.objects obj else r.retired <- true

let drop_clean t =
  (* Invalidate the whole cache: a cold mount, or a crash that loses
     dirty data. Dropped dirty blocks leave the throttle's count. *)
  Slot_lru.clear t.lru;
  Array.fill t.owner 0 (Array.length t.owner) no_owner;
  Array.fill t.dirty 0 (Array.length t.dirty) false;
  t.total_dirty <- 0;
  Hashtbl.reset t.dirty_index;
  Hashtbl.filter_map_inplace
    (fun _ r ->
      r.indexed <- false;
      r.last <- no_block;
      r.dirty_head <- nil;
      r.ndirty <- 0;
      if r.pending = 0 then None
      else begin
        r.retired <- true;
        Some r
      end)
    t.objects

let hits t = t.hits
let misses t = t.misses
let prefetched_blocks t = t.prefetched
let resident_bytes t = Slot_lru.count t.lru * block_size
