module Engine = Slice_sim.Engine

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

(* The cache is a slot table. Per-slot columns hold the owning object's
   record, the block number, the dirty bit, the LRU links and the links
   of the owner's dirty list; free slots chain through [next]. An
   open-addressing index maps (object, block) to a slot: [cells] holds
   slot+1 (0 = empty), probed linearly from a multiplicative hash of the
   record's id and the block, with back-shift deletion as in Xid_index.
   The key of a bound slot is read from its columns, so a probe compares
   ints and a physical record. Hits, misses, evictions and readahead
   therefore allocate nothing; the columns double on demand up to the
   capacity in blocks. *)

let nil = -1
let no_block = min_int

(* One record per object the cache has seen: its last accessed block
   (the sequential-stream hint), its dirty blocks as a list threaded
   through the slot columns, its write-back counts and the commits
   waiting on them. *)
type obj_rec = {
  obj : int64;
  id : int; (* hashes the object's blocks in the index *)
  mutable last : int; (* last block read or written, or [no_block] *)
  mutable dirty_head : int; (* first slot of the dirty list *)
  mutable ndirty : int;
  mutable pending : int; (* write-backs issued, not yet stable *)
  mutable stable : int; (* write-backs completed, ever *)
  mutable barrier : (unit -> unit) list; (* commits waiting on a completion *)
  mutable indexed : bool; (* bound in [dirty_index] *)
  mutable retired : bool; (* invalidated; kept until its write-backs drain *)
}

let no_owner =
  {
    obj = 0L;
    id = -1;
    last = no_block;
    dirty_head = nil;
    ndirty = 0;
    pending = 0;
    stable = 0;
    barrier = [];
    indexed = false;
    retired = false;
  }

type t = {
  backend : backend;
  cap_blocks : int;
  mutable owner : obj_rec array;
  mutable blk : int array;
  mutable dirty : Bytes.t;
  mutable prev : int array; (* LRU, towards the head (most recent) *)
  mutable next : int array; (* LRU, towards the tail; the freelist link *)
  mutable dprev : int array; (* the owner's dirty list *)
  mutable dnext : int array;
  mutable head : int;
  mutable tail : int;
  mutable free : int;
  mutable count : int; (* resident blocks *)
  mutable cells : int array;
  mutable mask : int;
  mutable hash_shift : int;
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
  mutable waiters : (unit -> unit) list; (* fibers parked in commit_all *)
  mutable throttle_waiters : (unit -> unit) list; (* writers parked by the throttle *)
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

let home t id block = (((id lsl 32) + block) * 0x9E3779B97F4A7C1) lsr t.hash_shift

let rec probe_from t r block i =
  let v = t.cells.(i) in
  if v = 0 then nil
  else if t.owner.(v - 1) == r && t.blk.(v - 1) = block then v - 1
  else probe_from t r block ((i + 1) land t.mask)

(* The slot holding [block] of [r], or [nil]. *)
let[@hot] probe t r block = probe_from t r block (home t r.id block)

let rec scan_free t i = if t.cells.(i) = 0 then i else scan_free t ((i + 1) land t.mask)
let bind t s = t.cells.(scan_free t (home t t.owner.(s).id t.blk.(s))) <- s + 1

let rec cell_of t v i = if t.cells.(i) = v then i else cell_of t v ((i + 1) land t.mask)

(* Refill the hole at [i] from the probe run following [j]: an entry may
   move into the hole iff its home is cyclically outside (i, j]. *)
let rec shift_back t i j =
  let j = (j + 1) land t.mask in
  let v = t.cells.(j) in
  if v <> 0 then begin
    let k = home t t.owner.(v - 1).id t.blk.(v - 1) in
    let movable = if j > i then k <= i || k > j else k <= i && k > j in
    if movable then begin
      t.cells.(i) <- v;
      t.cells.(j) <- 0;
      shift_back t j j
    end
    else shift_back t i j
  end

let unbind t s =
  let i = cell_of t (s + 1) (home t t.owner.(s).id t.blk.(s)) in
  t.cells.(i) <- 0;
  shift_back t i i

(* ---- LRU list ---- *)

let unlink t s =
  let p = t.prev.(s) and n = t.next.(s) in
  if p = nil then t.head <- n else t.next.(p) <- n;
  if n = nil then t.tail <- p else t.prev.(n) <- p

let push_front t s =
  t.prev.(s) <- nil;
  t.next.(s) <- t.head;
  if t.head = nil then t.tail <- s else t.prev.(t.head) <- s;
  t.head <- s

let[@hot] promote t s =
  if t.head <> s then begin
    unlink t s;
    push_front t s
  end

(* Bind [block] of [r] to a free slot at the head of the LRU list. *)
let[@hot] insert t r block =
  let s = t.free in
  t.free <- t.next.(s);
  t.owner.(s) <- r;
  t.blk.(s) <- block;
  bind t s;
  push_front t s;
  t.count <- t.count + 1;
  s

(* Unbind the LRU tail and free its slot, leaving its columns (owner,
   block, dirty bit) readable until the slot is reused. *)
let[@hot] evict t =
  let s = t.tail in
  unlink t s;
  unbind t s;
  t.next.(s) <- t.free;
  t.free <- s;
  t.count <- t.count - 1;
  s

let[@hot] rec absent_run t r block n =
  if n < prefetch_blocks - 1 && probe t r (block + n) = nil then absent_run t r block (n + 1)
  else n

(* ---- dirty lists ---- *)

let is_dirty t s = Bytes.get t.dirty s <> '\000'

let index t r =
  if not r.indexed then begin
    Hashtbl.replace t.dirty_index r.obj r;
    r.indexed <- true
  end

let mark_dirty t r s =
  index t r;
  if not (is_dirty t s) then begin
    Bytes.set t.dirty s '\001';
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
  Bytes.set t.dirty s '\000';
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
  if r.barrier <> [] then begin
    let ws = r.barrier in
    r.barrier <- [];
    List.iter (fun w -> w ()) ws
  end;
  if t.total_dirty + t.inflight_blocks < max_outstanding_blocks then begin
    let ws = t.throttle_waiters in
    t.throttle_waiters <- [];
    List.iter (fun w -> w ()) ws
  end;
  if t.inflight = 0 then begin
    let ws = t.waiters in
    t.waiters <- [];
    List.iter (fun w -> w ()) ws
  end

let start_write_back t r ~block ~count =
  t.inflight <- t.inflight + 1;
  t.inflight_blocks <- t.inflight_blocks + count;
  r.pending <- r.pending + 1;
  t.backend.write_back ~obj:r.obj ~block ~count ~done_:(write_back_done t r count)

(* A displaced dirty block is written back on its own. *)
let write_back_victim t s =
  clean t s;
  start_write_back t t.owner.(s) ~block:t.blk.(s) ~count:1

let swap a i j =
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

let rec pow2_from p n = if p >= n then p else pow2_from (p * 2) n

(* Cold: size the columns to [slots], chain the new slots onto the
   freelist and rebuild the index over the resident ones. *)
let resize t slots =
  let old = Array.length t.blk in
  let column a fill =
    let b = Array.make slots fill in
    Array.blit a 0 b 0 old;
    b
  in
  t.owner <- column t.owner no_owner;
  t.blk <- column t.blk 0;
  t.prev <- column t.prev nil;
  t.next <- column t.next nil;
  t.dprev <- column t.dprev nil;
  t.dnext <- column t.dnext nil;
  t.dirty <- Bytes.extend t.dirty 0 (slots - old);
  Bytes.fill t.dirty old (slots - old) '\000';
  for s = slots - 1 downto old do
    t.next.(s) <- t.free;
    t.free <- s
  done;
  let cells = pow2_from 16 (2 * slots) in
  let bits = ref 0 in
  while 1 lsl !bits < cells do
    incr bits
  done;
  t.cells <- Array.make cells 0;
  t.mask <- cells - 1;
  t.hash_shift <- 63 - !bits;
  let s = ref t.head in
  while !s <> nil do
    bind t !s;
    s := t.next.(!s)
  done

(* Free slot [s] of an entry that leaves without write-back. *)
let release t s =
  if is_dirty t s then clean t s;
  unlink t s;
  unbind t s;
  t.owner.(s) <- no_owner;
  t.next.(s) <- t.free;
  t.free <- s;
  t.count <- t.count - 1

(* Take a slot for a block known not to be resident: the LRU tail's when
   the cache is full (a dirty victim is written back), else a free one. *)
let admit t r block =
  if t.count = t.cap_blocks then begin
    let v = evict t in
    if is_dirty t v then write_back_victim t v
  end
  else if t.free = nil then resize t (min t.cap_blocks (2 * Array.length t.blk));
  insert t r block

(* Make [block] resident and clean. A resident copy is displaced as by
   eviction: a dirty one is written back first. *)
let place t r block =
  let s = probe t r block in
  if s = nil then ignore (admit t r block)
  else begin
    if is_dirty t s then write_back_victim t s;
    promote t s
  end

let create _eng ~backend ~capacity ~name:_ =
  let cap_blocks = capacity / block_size in
  if cap_blocks < 1 then invalid_arg "Bcache.create: capacity below one block";
  let t =
    {
      backend;
      cap_blocks;
      owner = [||];
      blk = [||];
      dirty = Bytes.empty;
      prev = [||];
      next = [||];
      dprev = [||];
      dnext = [||];
      head = nil;
      tail = nil;
      free = nil;
      count = 0;
      cells = [||];
      mask = 0;
      hash_shift = 0;
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
      waiters = [];
      throttle_waiters = [];
    }
  in
  resize t (min cap_blocks 256);
  t

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
  let s = probe t r block in
  if s <> nil then begin
    t.hits <- t.hits + 1;
    promote t s;
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
    place t r block;
    if seq then begin
      let run = absent_run t r (block + 1) 0 in
      if run > 0 then begin
        t.backend.readahead ~obj ~block:(block + 1) ~count:run;
        for i = 1 to run do
          place t r (block + i)
        done;
        t.prefetched <- t.prefetched + run
      end
    end;
    r.last <- block
  end

let write t ~obj ~block =
  let r = record t obj in
  let s = probe t r block in
  let s =
    if s <> nil then begin
      t.hits <- t.hits + 1;
      promote t s;
      s
    end
    else begin
      t.misses <- t.misses + 1;
      admit t r block
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
    else Engine.suspend (fun wake -> t.throttle_waiters <- wake :: t.throttle_waiters)
  done

let wait_idle t =
  while t.inflight > 0 do
    Engine.suspend (fun wake -> t.waiters <- wake :: t.waiters)
  done

(* Commit waits only for the write-backs of ITS object that are already
   booked when it runs — not for other streams' data, and not for writes
   that arrive later (a file can be committed while still being
   written). *)
let wait_obj_barrier r =
  let target = r.stable + r.pending in
  while r.stable < target do
    Engine.suspend (fun wake -> r.barrier <- wake :: r.barrier)
  done

let commit t ~obj =
  let r = record t obj in
  (* even a clean object joins the dirty index: the index's insert
     history fixes the order in which the throttle flushes objects *)
  index t r;
  flush t r;
  wait_obj_barrier r;
  t.backend.sync ()

let commit_all t =
  flush_all t;
  wait_idle t;
  t.backend.sync ()

let invalidate_object t obj =
  match Hashtbl.find t.objects obj with
  | exception Not_found -> ()
  | r ->
      let s = ref t.head in
      while !s <> nil do
        let n = t.next.(!s) in
        if t.owner.(!s) == r then release t !s;
        s := n
      done;
      if r.indexed then begin
        Hashtbl.remove t.dirty_index obj;
        r.indexed <- false
      end;
      r.last <- no_block;
      if r.pending = 0 then Hashtbl.remove t.objects obj else r.retired <- true

let drop_clean t =
  (* Invalidate the whole cache (e.g. to model a cold mount). Dirty data
     must have been committed first: dropped dirty blocks stay counted
     against the throttle. *)
  let slots = Array.length t.blk in
  Array.fill t.owner 0 slots no_owner;
  Bytes.fill t.dirty 0 slots '\000';
  Array.fill t.cells 0 (Array.length t.cells) 0;
  t.head <- nil;
  t.tail <- nil;
  t.free <- nil;
  for s = slots - 1 downto 0 do
    t.next.(s) <- t.free;
    t.free <- s
  done;
  t.count <- 0;
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
let resident_bytes t = t.count * block_size
