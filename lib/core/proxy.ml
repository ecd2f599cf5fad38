module Engine = Slice_sim.Engine
module Fiber = Slice_sim.Fiber
module Net = Slice_net.Net
module Rpc = Slice_net.Rpc
module Packet = Slice_net.Packet
module Cksum = Slice_net.Cksum
module Nfs = Slice_nfs.Nfs
module Fh = Slice_nfs.Fh
module Codec = Slice_nfs.Codec
module Routekey = Slice_nfs.Routekey
module Host = Slice_storage.Host
module Ctrl = Slice_storage.Ctrl
module Prng = Slice_util.Prng
module Lru = Slice_util.Lru
module Xid_index = Slice_util.Xid_index
module Trace = Slice_trace.Trace

type targets = {
  virtual_addr : Packet.addr;
  dir_table : Table.t;
  smallfile_table : Table.t option;
  storage : Table.t option;
  coordinator : unit -> (Packet.addr * int) option;
      (* resolved at call time: a coordinator takeover rebinds the
         endpoint without reinstalling every µproxy *)
}

type phase_cpu = {
  interception : float;
  decode : float;
  rewrite : float;
  soft_state : float;
}

type klass = KName | KStorage | KSmallfile

(* One in-flight request. Records are pooled: every field is mutable and
   reset on reuse, the request payload lives in a per-record buffer that
   is grown (never shrunk) to the packet size, and name/handle arguments
   are kept as (offset, length) spans into that buffer — so steady-state
   interception recycles records without allocating. [p_born] lives in a
   parallel float array ([pool_born]) because a mutable float field in a
   mixed record would box a fresh float on every store. *)
type pending = {
  mutable p_active : bool;
  mutable p_klass : klass;
  mutable p_proc : int;
  mutable p_fh_off : int; (* handle span offset in [p_buf]; -1 = none *)
  mutable p_name_off : int;
  mutable p_name_len : int; (* -1 = none *)
  mutable p_offset : int; (* valid iff [p_off_field >= 0] *)
  mutable p_off_field : int;
  mutable p_count : int; (* -1 = none *)
  mutable p_buf : bytes; (* pristine client payload: misdirect / failover
                            retry re-enters routing with the bytes the
                            client sent (grown to a power of two) *)
  mutable p_len : int;
  mutable p_rd_site : int; (* readdir: logical dir site requested *)
  mutable p_epoch : int; (* meta_epoch at forward time: replies from
                            before an invalidation must not (re)populate
                            the metadata cache *)
  mutable p_dirv : int; (* table versions at forward time: a bounce with
                           unchanged versions means the move has not
                           committed yet, so the retry must back off *)
  mutable p_sfv : int;
  mutable p_stv : int;
  mutable p_retries : int; (* misdirect retries already spent *)
  mutable p_tenant : int; (* QoS tenant id stamped at forward time; the
                             tag survives retransmit/supersede slot reuse
                             because [remember] restamps every fill *)
  mutable p_mirror_left : int;
  mutable p_worst : int; (* worst NFS status seen across mirror acks *)
  mutable p_span : Trace.span; (* request root; finished on reply *)
  mutable p_next_free : int; (* freelist link (slot index); -1 = end *)
}

type cached_attr = {
  ca_fh : Fh.t;
  mutable ca_attr : Nfs.fattr;
  mutable ca_dirty : bool;
  mutable ca_valid_until : float;
      (* lease deadline for serving this attr from the fast path; only an
         authoritative directory-server reply grants one. neg_infinity on
         fabricated entries, so locally-invented attrs are never served. *)
}

type meta_cache_stats = {
  hits : int;  (** positive lookup/getattr/access answered at the proxy *)
  negative_hits : int;  (** lookups answered NOENT from a negative entry *)
  misses : int;  (** fast-path attempts forwarded for lack of an entry *)
  stale : int;  (** fast-path attempts forwarded because a lease lapsed *)
  invalidations : int;  (** mutating ops that invalidated cached entries *)
}

(* Per-packet cost cell. The total lives in a one-element float array so
   accumulation stays unboxed (a mutable float field of this mixed record
   would box on every store). One cell per µproxy, reset per packet: all
   packet handling runs synchronously to completion within one event
   turn, and every deferred continuation extracts what it needs before
   the cell is reused. *)
type cost = { c_tot : float array; mutable c_span : Trace.span }

(* QoS configuration of one µproxy: which tenant its client is, the
   shared registry to account into, an optional token-bucket admission
   gate (background-class tenants), and an optional load probe over
   logical storage sites that turns mirrored-read routing from
   chunk-parity alternation into power-of-two-choices. *)
type qos = {
  q_tenant : int;
  q_tenants : Slice_qos.Tenant.t;
  q_admit : Slice_qos.Bucket.t option;
  q_read_probe : (int -> float) option;
}

type t = {
  host : Host.t;
  net : Net.t;
  eng : Engine.t;
  p : Params.t;
  trace : Trace.t option;
  qos : qos option;
  tg : targets;
  prng : Prng.t;
  rpc : Rpc.t;
  (* pending-record pool, found by xid through the shared index (which
     also holds each slot's xid) *)
  mutable pool : pending array;
  mutable pool_born : float array; (* arrival time, refreshed by retransmit *)
  mutable free_head : int;
  xidx : Xid_index.t;
  mutable n_pending : int;
  mutable sweep_buf : int array; (* expiry sweep scratch (slot indices) *)
  attrs : (int, cached_attr) Lru.t; (* keyed by file-id collapsed to int *)
  name_cache : (int * string, Fh.t option) Lru.t;
      (* (dir file-id, component) -> handle; None is a negative entry *)
  map_cache : (int, int * int array) Lru.t;
      (* file-id -> (generation, per-chunk logical storage site); the
         generation guards against a recycled file-id routing I/O to old
         sites. Entries are logical, so a migration never invalidates
         them — the site is bound to a physical node at forward time. *)
  intents_open : (int, int64) Hashtbl.t;
  mutable meta_epoch : int;
  mutable fence_seen : int;
      (* sum of the routing tables' fencing epochs at the last refresh; an
         advance means a manager was deposed and the caches hold entries
         from a dead incarnation *)
  mutable n_fence_inval : int;
  (* private snapshots (hints) of the routing tables *)
  mutable dir_map : Packet.addr array;
  mutable dir_version : int;
  mutable sf_map : Packet.addr array;
  mutable sf_version : int;
  mutable st_map : Packet.addr array;
  mutable st_version : int;
  (* Table 3 phase accounting: intercept / decode / rewrite / softstate.
     A float array keeps the per-packet accumulation unboxed. *)
  phase : float array;
  (* reused per-packet machinery *)
  cost : cost;
  cur : Codec.cursor;
  scr4 : bytes; (* EOF-flag patch word *)
  scr8 : bytes; (* u64 / timestamp patch scratch *)
  mutable key_scratch : bytes; (* name-hash scratch (33 + name bytes) *)
  mutable sweep_fn : unit -> unit; (* preallocated sweep closure *)
  (* counters *)
  mutable n_intercepted : int;
  mutable n_replies : int;
  mutable n_storage : int;
  mutable n_smallfile : int;
  mutable n_dir : int;
  dir_hist : int array;
  mutable n_mkdir_redirect : int;
  mutable n_mirror_dup : int;
  mutable n_attr_patch : int;
  mutable n_writeback : int;
  mutable n_commits : int;
  mutable n_intents : int;
  mutable n_stale : int;
  mutable n_map_fetch : int;
  mutable n_expired : int;
  mutable n_meta_hit : int;
  mutable n_meta_neg_hit : int;
  mutable n_meta_miss : int;
  mutable n_meta_stale : int;
  mutable n_meta_inval : int;
  mutable n_admit_defer : int;
  mutable n_p2c_probes : int;
  mutable n_p2c_diverted : int;
  mutable sweep_armed : bool;
}

let[@hot] meta_enabled t = t.p.Params.meta_cache_enabled && t.p.Params.meta_cache_ttl > 0.0

(* ---- per-packet cost accounting ----
   Phases accumulate into the per-packet cell, are charged to the client
   CPU in one booking, and the packet moves on when the booking
   completes. *)

let charge t (c : cost) phase amount =
  c.c_tot.(0) <- c.c_tot.(0) +. amount;
  let i = match phase with `Intercept -> 0 | `Decode -> 1 | `Rewrite -> 2 | `Softstate -> 3 in
  t.phase.(i) <- t.phase.(i) +. amount

let after_cpu t (c : cost) k =
  let start = Engine.now t.eng in
  let finish = Host.cpu_async t.host c.c_tot.(0) in
  (* the booking covers queueing behind earlier packets plus this
     packet's own phases; the emit (a no-op on dead spans, but its float
     arguments box at the call) is gated so untraced runs skip it *)
  if Trace.is_live c.c_span then
    Trace.emit c.c_span ~hop:"proxy" ~site:(Host.name t.host) ~start ~stop:finish ();
  Engine.schedule_at t.eng finish k

(* ---- outgoing calls from the µproxy itself ---- *)

let nfs_call t ?(span = Trace.null) (call : Nfs.call) ~dst =
  let xid = Rpc.fresh_xid t.rpc in
  let payload = Codec.encode_call ~xid call in
  let reply =
    Rpc.call t.rpc ~span ~timeout:2.0 ~dst ~dport:2049
      ~extra_size:(Codec.extra_size_of_call call) payload
  in
  snd (Codec.decode_reply reply)

let ctrl_call t ?(span = Trace.null) msg =
  match t.tg.coordinator () with
  | None -> Ctrl.Nack
  | Some (addr, port) ->
      let xid = Rpc.fresh_xid t.rpc in
      let reply =
        Rpc.call t.rpc ~span ~timeout:2.0 ~dst:addr ~dport:port (Ctrl.encode_msg ~xid msg)
      in
      snd (Ctrl.decode_reply reply)

(* ---- pending-record pool + xid index ---- *)

let rec round_pow2_from p n = if p >= n then p else round_pow2_from (p * 2) n
let round_pow2 n = round_pow2_from 16 n

let fresh_pending () =
  {
    p_active = false;
    p_klass = KName;
    p_proc = 0;
    p_fh_off = -1;
    p_name_off = 0;
    p_name_len = -1;
    p_offset = 0;
    p_off_field = -1;
    p_count = -1;
    p_buf = Bytes.empty;
    p_len = 0;
    p_rd_site = 0;
    p_epoch = 0;
    p_dirv = 0;
    p_sfv = 0;
    p_stv = 0;
    p_retries = 0;
    p_tenant = 0;
    p_mirror_left = 0;
    p_worst = 0;
    p_span = Trace.null;
    p_next_free = -1;
  }

let[@hot] release_slot t slot =
  let pd = t.pool.(slot) in
  pd.p_active <- false;
  pd.p_span <- Trace.null;
  pd.p_next_free <- t.free_head;
  t.free_head <- slot;
  t.n_pending <- t.n_pending - 1

(* Overflow past [Params.pending_capacity]: double the pool and rebuild
   the index at matching headroom (cold; the capacity is a sizing hint). *)
let grow_pool t =
  let cap = Array.length t.pool in
  let ncap = cap * 2 in
  let pool = Array.init ncap (fun i -> if i < cap then t.pool.(i) else fresh_pending ()) in
  let born = Array.make ncap 0.0 in
  Array.blit t.pool_born 0 born 0 cap;
  t.pool <- pool;
  t.pool_born <- born;
  t.sweep_buf <- Array.make ncap 0;
  for i = ncap - 1 downto cap do
    pool.(i).p_next_free <- t.free_head;
    t.free_head <- i
  done;
  Xid_index.resize t.xidx ncap

let acquire_slot t =
  if t.free_head < 0 then grow_pool t;
  let s = t.free_head in
  t.free_head <- t.pool.(s).p_next_free;
  s

(* ---- span helpers ---- *)

(* Materialize a peeked handle span (cold paths that outlive the packet
   buffer: intents, writeback, commit orchestration). The cursor only
   records offsets of spans [Fh.peek_valid] accepted, so decode cannot
   fail here. *)
let fh_at (payload : bytes) off =
  match Fh.decode_at payload off with
  | Some fh -> fh
  | None -> invalid_arg "Proxy.fh_at: unvalidated handle span"

let scratch_for t nlen =
  let need = 33 + nlen in
  if Bytes.length t.key_scratch < need then t.key_scratch <- Bytes.create (round_pow2 need);
  t.key_scratch

let hash_name t (cur : Codec.cursor) (payload : bytes) ~fh_off ~nsites =
  let nlen = if cur.Codec.c_name_len < 0 then 0 else cur.Codec.c_name_len in
  let noff = if cur.Codec.c_name_len < 0 then 0 else cur.Codec.c_name_off in
  Routekey.name_site_at ~nsites ~scratch:(scratch_for t nlen) payload ~fh_off ~name_off:noff
    ~name_len:nlen

(* ---- attribute cache ---- *)

let cached_attr t (fh : Fh.t) =
  let key = Int64.to_int fh.Fh.file_id in
  match Lru.find t.attrs key with
  | Some c -> c
  | None ->
      let c =
        {
          ca_fh = fh;
          ca_attr = Nfs.default_attr ~ftype:fh.Fh.ftype ~fileid:fh.Fh.file_id ~now:(Engine.now t.eng);
          ca_dirty = false;
          ca_valid_until = neg_infinity;
        }
      in
      Lru.add t.attrs key c;
      c

(* The same lookup keyed straight off the pending record's handle span;
   materializes the handle only when the entry must be created. *)
let cached_attr_of_pending t (pd : pending) =
  if pd.p_fh_off < 0 then cached_attr t Fh.root
  else
    match Lru.find t.attrs (Fh.peek_file_id_int pd.p_buf pd.p_fh_off) with
    | Some c -> c
    | None -> cached_attr t (fh_at pd.p_buf pd.p_fh_off)

let[@hot] dir_phys t logical =
  let n = Array.length t.dir_map in
  (* No directory sites (misconfiguration or a snapshot taken mid-reshape):
     aim at the virtual address, where the packet is counted as a drop and
     the client's retransmission gets another chance after a refresh —
     never divide by zero in the fast path. *)
  if n = 0 then t.tg.virtual_addr else t.dir_map.(logical mod n)

(* Push one dirty cached attribute back to its directory server (the
   paper's setattr write-back on commit / eviction / interval). *)
let writeback_one t (c : cached_attr) =
  if c.ca_dirty then begin
    c.ca_dirty <- false;
    t.n_writeback <- t.n_writeback + 1;
    let a = c.ca_attr in
    let s =
      {
        Nfs.sattr_empty with
        set_size = Some a.Nfs.size;
        set_mtime = Some a.Nfs.mtime;
        set_atime = Some a.Nfs.atime;
      }
    in
    ignore (nfs_call t (Nfs.Setattr (c.ca_fh, s)) ~dst:(dir_phys t c.ca_fh.Fh.attr_site))
  end

let writeback_dirty_attrs t =
  let dirty = ref [] in
  Lru.iter t.attrs (fun _ c -> if c.ca_dirty then dirty := c :: !dirty);
  List.iter (fun c -> Engine.spawn t.eng (fun () -> writeback_one t c)) !dirty

(* ---- table snapshots ---- *)

let combined_epoch_of targets =
  Table.epoch targets.dir_table
  + (match targets.smallfile_table with Some tbl -> Table.epoch tbl | None -> 0)
  + (match targets.storage with Some tbl -> Table.epoch tbl | None -> 0)

(* A fencing-epoch advance means a manager was deposed by a takeover:
   every metadata entry cached from the dead incarnation is suspect.
   Names and block maps are dropped outright. Attribute entries lose
   their lease so the next fast-path attempt revalidates at the new
   owner — except dirty ones, whose pending I/O state (sizes, mtimes of
   writes already acked to the client) must survive the takeover: they
   keep their bytes and are written back to the successor immediately. *)
let fence_invalidate t =
  Lru.clear t.name_cache;
  Lru.clear t.map_cache;
  let clean = ref [] and dirty = ref [] in
  Lru.iter t.attrs (fun k c -> if c.ca_dirty then dirty := c :: !dirty else clean := k :: !clean);
  List.iter (fun k -> Lru.remove t.attrs k) !clean;
  List.iter
    (fun c ->
      c.ca_valid_until <- neg_infinity;
      Engine.spawn t.eng (fun () -> writeback_one t c))
    !dirty;
  t.meta_epoch <- t.meta_epoch + 1;
  t.n_meta_inval <- t.n_meta_inval + 1;
  t.n_fence_inval <- t.n_fence_inval + 1

let refresh_tables t =
  let m, v = Table.snapshot t.tg.dir_table in
  t.dir_map <- m;
  t.dir_version <- v;
  (match t.tg.smallfile_table with
  | Some tbl ->
      let m, v = Table.snapshot tbl in
      t.sf_map <- m;
      t.sf_version <- v
  | None -> ());
  (match t.tg.storage with
  | Some tbl ->
      let m, v = Table.snapshot tbl in
      t.st_map <- m;
      t.st_version <- v
  | None -> ());
  let ep = combined_epoch_of t.tg in
  if ep > t.fence_seen then begin
    t.fence_seen <- ep;
    fence_invalidate t
  end

(* ---- pending-record expiry ---- *)

(* Expire pending records whose reply will never arrive: a client that
   exhausted its retransmissions stops refreshing its record, so nothing
   will ever match that XID again and the slot would leak forever. The
   sweep arms itself only while records exist — an idle µproxy keeps the
   event queue empty, so unbounded [Engine.run] still terminates. The
   sweep charges no CPU: it models a background timer off the packet
   path. The preallocated [sweep_fn] closure keeps arming allocation-free. *)
let arm_sweep t =
  let interval = t.p.Params.pending_sweep_interval in
  if interval > 0.0 && not t.sweep_armed then begin
    t.sweep_armed <- true;
    Engine.schedule t.eng interval t.sweep_fn
  end

let sweep t =
  t.sweep_armed <- false;
  let now = Engine.now t.eng in
  let expiry = t.p.Params.pending_expiry in
  let buf = t.sweep_buf in
  let n = ref 0 in
  for s = 0 to Array.length t.pool - 1 do
    if t.pool.(s).p_active && now -. t.pool_born.(s) >= expiry then begin
      buf.(!n) <- s;
      incr n
    end
  done;
  (* expire in ascending-xid order (insertion sort over the scratch
     array): victim order — hence trace emission — is deterministic and
     independent of pool slot assignment *)
  for i = 1 to !n - 1 do
    let v = buf.(i) in
    let j = ref (i - 1) in
    while !j >= 0 && Xid_index.key t.xidx buf.(!j) > Xid_index.key t.xidx v do
      buf.(!j + 1) <- buf.(!j);
      decr j
    done;
    buf.(!j + 1) <- v
  done;
  for i = 0 to !n - 1 do
    let s = buf.(i) in
    let pd = t.pool.(s) in
    let xid = Xid_index.key t.xidx s in
    ignore (Xid_index.remove t.xidx xid);
    Trace.unbind_xid pd.p_span xid;
    Trace.finish ~outcome:"expired" pd.p_span;
    release_slot t s;
    t.n_expired <- t.n_expired + 1
  done;
  if t.n_pending > 0 then arm_sweep t

(* ---- forwarding ---- *)

(* Record the request in the pool, keyed by xid. Must run before any
   in-place rewrite (offset/cookie patches): the pooled buffer keeps the
   bytes the client sent, so a bounce or failover retry re-enters routing
   pristine — stripe offsets are never translated twice. *)
let remember t (cur : Codec.cursor) (payload : bytes) ~span ~klass ~rd_site ~mirrors ~retries =
  let xid = cur.Codec.c_xid in
  let found = Xid_index.find t.xidx xid in
  let slot =
    if found >= 0 then begin
      (* a client retransmit replaces the record: close the superseded
         tree and reuse the slot (the index binding stands) *)
      let old = t.pool.(found) in
      Trace.unbind_xid old.p_span xid;
      Trace.finish ~outcome:"superseded" old.p_span;
      found
    end
    else begin
      let s = acquire_slot t in
      Xid_index.add t.xidx ~xid ~slot:s;
      t.n_pending <- t.n_pending + 1;
      s
    end
  in
  let pd = t.pool.(slot) in
  Trace.bind_xid span xid;
  pd.p_active <- true;
  pd.p_klass <- klass;
  pd.p_proc <- cur.Codec.c_proc;
  pd.p_fh_off <- cur.Codec.c_fh_off;
  pd.p_name_off <- cur.Codec.c_name_off;
  pd.p_name_len <- cur.Codec.c_name_len;
  pd.p_offset <- cur.Codec.c_offset;
  pd.p_off_field <- cur.Codec.c_off_field;
  pd.p_count <- cur.Codec.c_count;
  let len = Bytes.length payload in
  if Bytes.length pd.p_buf < len then pd.p_buf <- Bytes.create (round_pow2 len);
  Bytes.blit payload 0 pd.p_buf 0 len;
  pd.p_len <- len;
  pd.p_rd_site <- rd_site;
  pd.p_epoch <- t.meta_epoch;
  pd.p_dirv <- t.dir_version;
  pd.p_sfv <- t.sf_version;
  pd.p_stv <- t.st_version;
  pd.p_retries <- retries;
  pd.p_tenant <- (match t.qos with Some q -> q.q_tenant | None -> 0);
  pd.p_mirror_left <- mirrors;
  pd.p_worst <- 0;
  pd.p_span <- span;
  t.pool_born.(slot) <- Engine.now t.eng;
  arm_sweep t

let forward t (c : cost) (pkt : Packet.t) ~dst =
  charge t c `Rewrite t.p.Params.rewrite_cost;
  Cksum.rewrite_dst pkt dst;
  charge t c `Softstate t.p.Params.softstate_cost;
  after_cpu t c (fun () -> Net.inject t.net pkt)

let patch_offset t (c : cost) (pkt : Packet.t) (cur : Codec.cursor) v =
  if cur.Codec.c_off_field >= 0 then begin
    charge t c `Rewrite t.p.Params.rewrite_cost;
    Codec.put_u64_be t.scr8 v;
    Cksum.patch_payload_bytes pkt ~off:cur.Codec.c_off_field t.scr8 ~spos:0 ~len:8
  end

(* ---- commit orchestration ---- *)

(* Physical storage nodes that may hold data of [fh], resolved through
   the current table snapshot (distinct: several logical sites can live
   on one node). *)
let storage_sites_of t (fh : Fh.t) =
  let n = Array.length t.st_map in
  if n = 0 then []
  else if fh.Fh.mirrored then begin
    let r0, r1 = Routekey.mirror_sites ~nsites:n fh in
    let a0 = t.st_map.(r0) and a1 = t.st_map.(r1) in
    if a0 = a1 then [ a0 ] else [ a0; a1 ]
  end
  else List.sort_uniq Int.compare (Array.to_list t.st_map)

let smallfile_dst t (fh : Fh.t) =
  if t.p.Params.threshold <= 0 || Array.length t.sf_map = 0 then None
  else Some t.sf_map.(Routekey.file_site ~nsites:(Array.length t.sf_map) fh)

let orchestrate_commit t ~span ~xid (pkt : Packet.t) (fh : Fh.t) =
  t.n_commits <- t.n_commits + 1;
  let client = pkt.Packet.src in
  let client_port = pkt.Packet.sport in
  Engine.spawn t.eng (fun () ->
      let jobs = ref [] in
      (match smallfile_dst t fh with
      | Some dst ->
          jobs := (fun () -> ignore (nfs_call t ~span (Nfs.Commit (fh, 0L, 0)) ~dst)) :: !jobs
      | None -> ());
      let sites = storage_sites_of t fh in
      (match (sites, t.tg.coordinator ()) with
      | [], _ -> ()
      | sites, Some _ ->
          jobs := (fun () -> ignore (ctrl_call t ~span (Ctrl.Commit_file { fh; sites }))) :: !jobs
      | sites, None ->
          jobs :=
            List.map (fun dst () -> ignore (nfs_call t ~span (Nfs.Commit (fh, 0L, 0)) ~dst)) sites
            @ !jobs);
      Fiber.join_all t.eng !jobs;
      (* Close any open mirrored-write intention. *)
      let fid = Int64.to_int fh.Fh.file_id in
      (match Hashtbl.find_opt t.intents_open fid with
      | Some op_id ->
          Hashtbl.remove t.intents_open fid;
          ignore (ctrl_call t ~span (Ctrl.Complete { op_id }))
      | None -> ());
      (* Push modified attributes to the directory server (the paper's
         µproxy generates a setattr on NFS V3 commit). *)
      let c = cached_attr t fh in
      writeback_one t c;
      (* Synthesize the commit reply to the client. *)
      let payload = Codec.encode_reply ~xid (Ok (Nfs.RCommit c.ca_attr)) in
      let reply =
        Packet.make ~src:t.tg.virtual_addr ~dst:client ~sport:2049 ~dport:client_port payload
      in
      Net.dispatch t.net reply;
      Trace.finish span)

(* ---- mirrored-write intention (amortized across the file's writes) ---- *)

let open_intent_if_needed t (payload : bytes) fh_off =
  if t.tg.coordinator () <> None then begin
    let fid = Fh.peek_file_id_int payload fh_off in
    if not (Hashtbl.mem t.intents_open fid) then begin
      let fh = fh_at payload fh_off in
      let op_id = Int64.of_int (Rpc.fresh_xid t.rpc) in
      Hashtbl.replace t.intents_open fid op_id;
      t.n_intents <- t.n_intents + 1;
      let participants = storage_sites_of t fh in
      Engine.spawn t.eng (fun () ->
          ignore
            (ctrl_call t (Ctrl.Intent { op_id; kind = Ctrl.K_mirror_write; fh; participants })))
    end
  end

(* ---- request routing ---- *)

let name_logical t (cur : Codec.cursor) (payload : bytes) =
  let nsites = Array.length t.dir_map in
  if nsites = 0 then 0 (* no dir sites: degenerate logical id; dir_phys copes *)
  else begin
    let fh_off = cur.Codec.c_fh_off in
    let parent_site = Fh.peek_attr_site payload fh_off mod nsites in
    match (cur.Codec.c_proc, t.p.Params.name_policy) with
    | (1 | 2 | 4 | 5), _ -> parent_site (* getattr/setattr/access/readlink *)
    | 9, Params.Name_hashing -> hash_name t cur payload ~fh_off ~nsites
    | 9, Params.Mkdir_switching ->
        (* mkdir switching: redirect with probability p to the site named
           by the hash (so a raced name involves at most two sites). *)
        if nsites > 1 && Prng.float t.prng 1.0 < t.p.Params.mkdir_p then begin
          let site = hash_name t cur payload ~fh_off ~nsites in
          if site <> parent_site then t.n_mkdir_redirect <- t.n_mkdir_redirect + 1;
          site
        end
        else parent_site
    | (3 | 8 | 10 | 12 | 13 | 14), Params.Name_hashing ->
        hash_name t cur payload ~fh_off ~nsites
    | 15, Params.Name_hashing ->
        (* link routes by the new entry (destination dir, new name) *)
        if cur.Codec.c_fh2_off >= 0 then
          hash_name t cur payload ~fh_off:cur.Codec.c_fh2_off ~nsites
        else parent_site
    | 15, Params.Mkdir_switching ->
        if cur.Codec.c_fh2_off >= 0 then Fh.peek_attr_site payload cur.Codec.c_fh2_off mod nsites
        else parent_site
    | (3 | 8 | 10 | 12 | 13 | 14), Params.Mkdir_switching -> parent_site
    | 16, _ -> (
        (* readdir: under name hashing the cookie's high half carries the
           site being iterated. *)
        match t.p.Params.name_policy with
        | Params.Mkdir_switching -> parent_site
        | Params.Name_hashing ->
            let cookie = if cur.Codec.c_off_field >= 0 then cur.Codec.c_offset else 0 in
            cookie lsr 32 mod nsites)
    | _ -> parent_site
  end

let route_name t (c : cost) (pkt : Packet.t) (cur : Codec.cursor) ~retries =
  let site = name_logical t cur pkt.Packet.payload in
  t.n_dir <- t.n_dir + 1;
  if site < Array.length t.dir_hist then t.dir_hist.(site) <- t.dir_hist.(site) + 1;
  (* readdir cookies travel tagged: the directory server decodes the
     (site, local-cookie) pair itself and owns-gates the site, so a
     server hosting several logical sites iterates the right one. *)
  remember t cur pkt.Packet.payload ~span:c.c_span ~klass:KName ~rd_site:site ~mirrors:1 ~retries;
  forward t c pkt ~dst:(dir_phys t site)

(* Bulk I/O routing. Storage placement is logical-site based: the chosen
   logical site is encoded into the wire offset's high bits
   ([Routekey.site_offset_int]) so a node hosting several logical sites keeps
   their extents apart, then bound to a physical node through the current
   table snapshot. *)
let rec route_io t (c : cost) (pkt : Packet.t) (cur : Codec.cursor) ~retries =
  let payload = pkt.Packet.payload in
  let fh_off = cur.Codec.c_fh_off in
  let off = if cur.Codec.c_off_field >= 0 then cur.Codec.c_offset else 0 in
  let nsf = Array.length t.sf_map in
  if t.p.Params.threshold > 0 && nsf > 0 && off < t.p.Params.threshold then begin
    let dst = t.sf_map.(Routekey.file_site_at ~nsites:nsf payload ~off:fh_off) in
    t.n_smallfile <- t.n_smallfile + 1;
    remember t cur payload ~span:c.c_span ~klass:KSmallfile ~rd_site:0 ~mirrors:1 ~retries;
    forward t c pkt ~dst
  end
  else begin
    let n = Array.length t.st_map in
    if n = 0 then begin
      (* No storage class configured: let a directory server reject it. *)
      t.n_dir <- t.n_dir + 1;
      remember t cur payload ~span:c.c_span ~klass:KName ~rd_site:0 ~mirrors:1 ~retries;
      forward t c pkt ~dst:(dir_phys t 0)
    end
    else if Fh.peek_mirrored payload fh_off then begin
      let r0 = Routekey.file_site_at ~nsites:n payload ~off:fh_off in
      let r1 = Routekey.mirror_partner ~nsites:n r0 in
      let chunk = Routekey.chunk_of_offset_int ~stripe_unit:t.p.Params.stripe_unit off in
      if cur.Codec.c_proc = 6 then begin
        (* mirrored read: either replica can serve it. Default policy
           alternates on chunk parity; with a QoS load probe this becomes
           power-of-two-choices — read the two replicas' instantaneous
           backlogs and take the shorter queue (ties keep the default, so
           an idle system behaves exactly like parity alternation). *)
        let parity_site = if chunk land 1 = 0 then r0 else r1 in
        let site =
          match t.qos with
          | Some { q_read_probe = Some probe; _ } when r0 <> r1 ->
              t.n_p2c_probes <- t.n_p2c_probes + 1;
              let l0 = probe r0 and l1 = probe r1 in
              let best = if l0 < l1 then r0 else if l1 < l0 then r1 else parity_site in
              if best <> parity_site then t.n_p2c_diverted <- t.n_p2c_diverted + 1;
              best
          | _ -> parity_site
        in
        t.n_storage <- t.n_storage + 1;
        remember t cur payload ~span:c.c_span ~klass:KStorage ~rd_site:0 ~mirrors:1 ~retries;
        patch_offset t c pkt cur (Routekey.site_offset_int ~site off);
        forward t c pkt ~dst:t.st_map.(site)
      end
      else begin
        (* mirrored write: duplicate to both replicas *)
        open_intent_if_needed t payload fh_off;
        t.n_storage <- t.n_storage + 1;
        t.n_mirror_dup <- t.n_mirror_dup + 1;
        remember t cur payload ~span:c.c_span ~klass:KStorage ~rd_site:0
          ~mirrors:(if r0 = r1 then 1 else 2) ~retries;
        let copy = Packet.copy pkt in
        patch_offset t c pkt cur (Routekey.site_offset_int ~site:r0 off);
        forward t c pkt ~dst:t.st_map.(r0);
        if r1 <> r0 then begin
          let c2 = { c_tot = [| 0.0 |]; c_span = c.c_span } in
          (* duplicate emission: requeue + checksum share of the data *)
          charge t c2 `Rewrite
            (t.p.Params.rewrite_cost
            +. (t.p.Params.mirror_dup_cost_per_byte
               *. float_of_int (if cur.Codec.c_count > 0 then cur.Codec.c_count else 0)));
          patch_offset t c2 copy cur (Routekey.site_offset_int ~site:r1 off);
          forward t c2 copy ~dst:t.st_map.(r1)
        end
      end
    end
    else begin
      let su = t.p.Params.stripe_unit in
      let chunk = Routekey.chunk_of_offset_int ~stripe_unit:su off in
      match t.p.Params.io_policy with
      | Params.Static_striping ->
          let site = Routekey.stripe_site_at ~nsites:n ~stripe_unit:su payload ~off:fh_off off in
          t.n_storage <- t.n_storage + 1;
          remember t cur payload ~span:c.c_span ~klass:KStorage ~rd_site:0 ~mirrors:1 ~retries;
          patch_offset t c pkt cur
            (Routekey.site_offset_int ~site (Routekey.local_offset_int ~nsites:n ~stripe_unit:su off));
          forward t c pkt ~dst:t.st_map.(site)
      | Params.Block_map -> (
          let fid = Fh.peek_file_id_int payload fh_off in
          match Lru.find t.map_cache fid with
          | Some (g, map) when g = Fh.peek_gen payload fh_off && chunk < Array.length map ->
              let site = map.(chunk) mod n in
              t.n_storage <- t.n_storage + 1;
              remember t cur payload ~span:c.c_span ~klass:KStorage ~rd_site:0 ~mirrors:1 ~retries;
              patch_offset t c pkt cur
                (Routekey.site_offset_int ~site
                   (Routekey.local_offset_int ~nsites:n ~stripe_unit:su off));
              forward t c pkt ~dst:t.st_map.(site)
          | _ ->
              (* Map-fragment miss (including a generation mismatch from
                 a recycled file-id): fetch from the coordinator, then
                 re-route the absorbed request (the µproxy "interacts
                 with the coordinators to fetch and cache fragments of
                 the block maps"). Map entries are logical sites. The
                 fiber re-peeks the request into the shared cursor when
                 it resumes — the cursor holds no state across turns. *)
              t.n_map_fetch <- t.n_map_fetch + 1;
              charge t c `Softstate t.p.Params.softstate_cost;
              let span = c.c_span in
              let fh = fh_at payload fh_off in
              after_cpu t c (fun () ->
                  Engine.spawn t.eng (fun () ->
                      (match
                         ctrl_call t ~span (Ctrl.Get_map { fh; first_block = 0; count = chunk + 64 })
                       with
                      | Ctrl.Map { first_block = _; sites } ->
                          Lru.add t.map_cache fid (fh.Fh.gen, sites)
                      | Ctrl.Ack | Ctrl.Nack ->
                          (* no dynamic map: fall back to static *)
                          Lru.add t.map_cache fid
                            ( fh.Fh.gen,
                              Array.init (chunk + 64) (fun b ->
                                  (Routekey.file_site ~nsites:n fh + b) mod n) ));
                      let c2 = { c_tot = [| 0.0 |]; c_span = span } in
                      if Codec.peek_call_into t.cur pkt.Packet.payload then
                        route_io t c2 pkt t.cur ~retries)))
    end
  end

(* ---- metadata fast path ----
   The SPECsfs mix is dominated by lookup/getattr/access; each of those
   today costs a directory-server round trip. The µproxy already sees
   every reply, so it can absorb repeats: name entries (including
   negative ones) live in [name_cache] under a TTL lease, and attribute
   entries are served while their lease ([ca_valid_until]) is live.
   Correctness is write-through invalidation (below) plus the lease
   bounding what another client's unseen mutation can cost us. *)

let synth_reply t (c : cost) (pkt : Packet.t) ~xid (resp : Nfs.response) =
  charge t c `Rewrite t.p.Params.rewrite_cost;
  let payload = Codec.encode_reply ~xid resp in
  let reply =
    Packet.make ~src:t.tg.virtual_addr ~dst:pkt.Packet.src ~sport:2049 ~dport:pkt.Packet.sport
      payload
  in
  let span = c.c_span in
  after_cpu t c (fun () ->
      Net.dispatch t.net reply;
      Trace.finish span)

(* Returns true when the request was answered at the proxy. *)
let try_meta_fast_path t (c : cost) (pkt : Packet.t) (cur : Codec.cursor) =
  let payload = pkt.Packet.payload in
  let now = Engine.now t.eng in
  charge t c `Softstate t.p.Params.softstate_cost;
  let fid = Fh.peek_file_id_int payload cur.Codec.c_fh_off in
  let hit resp =
    t.n_meta_hit <- t.n_meta_hit + 1;
    synth_reply t c pkt ~xid:cur.Codec.c_xid resp;
    true
  in
  let miss () =
    t.n_meta_miss <- t.n_meta_miss + 1;
    false
  in
  let stale () =
    t.n_meta_stale <- t.n_meta_stale + 1;
    false
  in
  match cur.Codec.c_proc with
  | 1 -> (
      match Lru.find t.attrs fid with
      | Some ca when ca.ca_valid_until > now -> hit (Ok (Nfs.RGetattr ca.ca_attr))
      | Some _ -> stale ()
      | None -> miss ())
  | 4 -> (
      match Lru.find t.attrs fid with
      | Some ca when ca.ca_valid_until > now && cur.Codec.c_access >= 0 ->
          (* the directory server grants the full requested mask (see
             Dirserver's Access handler), so echoing it is faithful *)
          hit (Ok (Nfs.RAccess (cur.Codec.c_access, ca.ca_attr)))
      | Some _ -> stale ()
      | None -> miss ())
  | 3 ->
      if cur.Codec.c_name_len < 0 then miss ()
      else begin
        let name = Bytes.sub_string payload cur.Codec.c_name_off cur.Codec.c_name_len in
        match Lru.find_ttl t.name_cache (fid, name) ~now with
        | Lru.Fresh (Some child) -> (
            (* a positive hit must also produce attributes; serve only
               if the child's attr lease is live too *)
            match Lru.find t.attrs (Int64.to_int child.Fh.file_id) with
            | Some ca when ca.ca_valid_until > now -> hit (Ok (Nfs.RLookup (child, ca.ca_attr)))
            | Some _ -> stale ()
            | None -> miss ())
        | Lru.Fresh None ->
            t.n_meta_neg_hit <- t.n_meta_neg_hit + 1;
            synth_reply t c pkt ~xid:cur.Codec.c_xid (Error Nfs.ERR_NOENT);
            true
        | Lru.Stale -> stale ()
        | Lru.Miss -> miss ()
      end
  | _ -> false

(* Write-through invalidation: drop or revoke every cached entry a
   mutating op can falsify, *before* the op is forwarded — a later hit
   can then never contradict the server. Attr entries are revoked (lease
   zeroed) rather than removed so dirty I/O state keeps its write-back;
   entries for a removed file are dropped outright. The epoch bump makes
   in-flight replies from before the mutation unable to repopulate.
   Name-cache surgery is gated on [meta_enabled]: the cache is empty
   otherwise, and the gate keeps the meta-off packet path free of the
   name-string allocation. *)
let revoke_attr t (fid : int) =
  match Lru.find t.attrs fid with
  | Some ca -> ca.ca_valid_until <- neg_infinity
  | None -> ()

let drop_child t (fid : int) =
  Lru.remove t.attrs fid;
  Lru.remove t.map_cache fid

let invalidate_meta t (cur : Codec.cursor) (payload : bytes) =
  let bump () =
    t.meta_epoch <- t.meta_epoch + 1;
    t.n_meta_inval <- t.n_meta_inval + 1
  in
  let resolve dir_id name =
    match Lru.find t.name_cache (dir_id, name) with Some (Some child) -> Some child | _ -> None
  in
  let name () =
    if cur.Codec.c_name_len < 0 then ""
    else Bytes.sub_string payload cur.Codec.c_name_off cur.Codec.c_name_len
  in
  let fid = Fh.peek_file_id_int payload cur.Codec.c_fh_off in
  match cur.Codec.c_proc with
  | 2 ->
      (* setattr: attributes change; a truncation also invalidates the
         block map (a re-created file must not route I/O to placement
         decided for the old extent) *)
      revoke_attr t fid;
      if cur.Codec.c_has_set_size then Lru.remove t.map_cache fid;
      bump ()
  | 8 | 9 | 10 ->
      (* create/mkdir/symlink: kill any negative entry under this name;
         the directory's own attrs (mtime, size) change *)
      if meta_enabled t then Lru.remove t.name_cache (fid, name ());
      revoke_attr t fid;
      bump ()
  | 12 | 13 ->
      (* remove/rmdir: the child is gone for good — drop everything known
         about it (its dirty state has nowhere to go anyway) *)
      if meta_enabled t then begin
        let nm = name () in
        (match resolve fid nm with
        | Some child -> drop_child t (Int64.to_int child.Fh.file_id)
        | None -> ());
        Lru.remove t.name_cache (fid, nm)
      end;
      revoke_attr t fid;
      bump ()
  | 14 ->
      (* rename: the source name vanishes but the file persists (keep its
         dirty attr state, just revoke the lease — ctime changed); any
         previous destination target is silently deleted *)
      if meta_enabled t then begin
        let nm = name () in
        (match resolve fid nm with
        | Some child -> revoke_attr t (Int64.to_int child.Fh.file_id)
        | None -> ());
        Lru.remove t.name_cache (fid, nm)
      end;
      if cur.Codec.c_fh2_off >= 0 && cur.Codec.c_name2_len >= 0 then begin
        let fid2 = Fh.peek_file_id_int payload cur.Codec.c_fh2_off in
        if meta_enabled t then begin
          let n2 = Bytes.sub_string payload cur.Codec.c_name2_off cur.Codec.c_name2_len in
          (match resolve fid2 n2 with
          | Some victim -> drop_child t (Int64.to_int victim.Fh.file_id)
          | None -> ());
          Lru.remove t.name_cache (fid2, n2)
        end;
        revoke_attr t fid2
      end;
      revoke_attr t fid;
      bump ()
  | 15 ->
      (* link: a new entry appears in dir2; the file's nlink changes *)
      revoke_attr t fid;
      if cur.Codec.c_fh2_off >= 0 then begin
        let fid2 = Fh.peek_file_id_int payload cur.Codec.c_fh2_off in
        if meta_enabled t then Lru.remove t.name_cache (fid2, name ());
        revoke_attr t fid2
      end;
      bump ()
  | _ -> ()

(* RFC 1813 procedure numbers, as op-class labels for trace roots. *)
let[@hot] op_of_proc = function
  | 0 -> "null"
  | 1 -> "getattr"
  | 2 -> "setattr"
  | 3 -> "lookup"
  | 4 -> "access"
  | 5 -> "readlink"
  | 6 -> "read"
  | 7 -> "write"
  | 8 -> "create"
  | 9 -> "mkdir"
  | 10 -> "symlink"
  | 12 -> "remove"
  | 13 -> "rmdir"
  | 14 -> "rename"
  | 15 -> "link"
  | 16 -> "readdir"
  | 18 -> "fsstat"
  | 21 -> "commit"
  | _ -> "other"

let rec handle_request ?(retries = 0) t (pkt : Packet.t) =
  (* Admission gate: a background-class tenant over its token rate has
     the request held at its own µproxy — deferred, not dropped — until a
     token accrues. Backpressure lands at the edge, before the request
     can queue on any shared server. *)
  let admitted =
    match t.qos with
    | Some { q_admit = Some b; q_tenants; q_tenant; _ } ->
        let now = Engine.now t.eng in
        if Slice_qos.Bucket.try_take b ~now then begin
          Slice_qos.Tenant.note_admitted q_tenants q_tenant;
          true
        end
        else begin
          t.n_admit_defer <- t.n_admit_defer + 1;
          Slice_qos.Tenant.note_deferred q_tenants q_tenant;
          (* Floor the retry delay at 1 µs: when the bucket sits within
             one ulp of a whole token, [next_ready] can be smaller than
             the clock's own resolution and [now +. delay = now] would
             respin this event at a frozen instant forever. *)
          Engine.schedule t.eng
            (Float.max (Slice_qos.Bucket.next_ready b ~now) 1e-6)
            (fun () -> handle_request ~retries t pkt);
          false
        end
    | _ -> true
  in
  if admitted then handle_admitted ~retries t pkt

and handle_admitted ~retries t (pkt : Packet.t) =
  t.n_intercepted <- t.n_intercepted + 1;
  let c = t.cost in
  c.c_tot.(0) <- 0.0;
  c.c_span <- Trace.null;
  charge t c `Intercept t.p.Params.intercept_cost;
  let cur = t.cur in
  if not (Codec.peek_call_into cur pkt.Packet.payload) then
    (* not an NFS call: the virtual server has nothing else behind it *)
    charge t c `Decode t.p.Params.decode_cost_per_item
  else begin
    c.c_span <- Trace.root t.trace ~op:(op_of_proc cur.Codec.c_proc) ~site:(Host.name t.host);
    charge t c `Decode (t.p.Params.decode_cost_per_item *. float_of_int cur.Codec.c_items);
    if cur.Codec.c_fh_off < 0 then begin
      (* NULL: any directory server can answer *)
      t.n_dir <- t.n_dir + 1;
      remember t cur pkt.Packet.payload ~span:c.c_span ~klass:KName ~rd_site:0 ~mirrors:1
        ~retries;
      forward t c pkt ~dst:(dir_phys t 0)
    end
    else
      match cur.Codec.c_proc with
      | 6 | 7 when Fh.peek_ftype_code pkt.Packet.payload cur.Codec.c_fh_off = 1 ->
          route_io t c pkt cur ~retries
      | 21 when Fh.peek_ftype_code pkt.Packet.payload cur.Codec.c_fh_off = 1 ->
          charge t c `Softstate t.p.Params.softstate_cost;
          let span = c.c_span in
          let xid = cur.Codec.c_xid in
          let fh = fh_at pkt.Packet.payload cur.Codec.c_fh_off in
          after_cpu t c (fun () -> orchestrate_commit t ~span ~xid pkt fh)
      | (1 | 3 | 4) when meta_enabled t ->
          if not (try_meta_fast_path t c pkt cur) then route_name t c pkt cur ~retries
      | _ ->
          invalidate_meta t cur pkt.Packet.payload;
          route_name t c pkt cur ~retries
  end

(* ---- reply handling ---- *)

let[@hot] reply_status (payload : bytes) =
  if Bytes.length payload >= 28 then Int32.to_int (Bytes.get_int32_be payload 24)
  else -1

(* Retry a bounced request after refreshing the routing tables. Every
   request class keeps its pristine payload, so any bounce can be
   re-routed instead of silently swallowed. [orig] is a fresh copy cut
   from the pooled buffer by the caller — the pool slot may be reused
   before the retry fires. *)
let retry_misdirected ?(retries = 0) t ~src ~sport (orig : bytes) =
  let pkt = Packet.make ~src ~dst:t.tg.virtual_addr ~sport ~dport:2049 orig in
  handle_request ~retries t pkt

(* A bounce that a refresh could not explain (the table versions did not
   change) means a migration is mid-drain: the move has not committed
   yet, so an immediate retry would bounce right back. Back off a little
   and retry; after the budget is spent, drop the request and let the
   client's own RPC retransmission drive the next attempt. *)
let misdirect_retry_limit = 8
let misdirect_retry_delay = 0.01

(* readdir iteration across hash sites: translate local cookies into
   (site, cookie) pairs and splice sites together at EOF boundaries. *)
let translate_readdir t (c : cost) ~rd_site ~span (pkt : Packet.t) =
  match Codec.decode_reply pkt.Packet.payload with
  | _, Error _ ->
      Trace.finish ~outcome:"error" span;
      Some pkt (* pass errors through *)
  | xid, Ok (Nfs.RReaddir (entries, cookie, eof)) ->
      charge t c `Decode
        (t.p.Params.decode_cost_per_item *. float_of_int (4 + (3 * List.length entries)));
      let site = Int64.of_int rd_site in
      let tag v = Int64.logor (Int64.shift_left site 32) (Int64.logand v 0xFFFFFFFFL) in
      let entries =
        List.map (fun (e : Nfs.entry) -> { e with Nfs.entry_cookie = tag e.Nfs.entry_cookie }) entries
      in
      let nsites = Array.length t.dir_map in
      let cookie, eof =
        if eof && rd_site + 1 < nsites then (Int64.shift_left (Int64.add site 1L) 32, false)
        else (tag cookie, eof)
      in
      let payload = Codec.encode_reply ~xid (Ok (Nfs.RReaddir (entries, cookie, eof))) in
      charge t c `Rewrite t.p.Params.rewrite_cost;
      let reply =
        Packet.make ~src:t.tg.virtual_addr ~dst:pkt.Packet.dst ~sport:pkt.Packet.sport
          ~dport:pkt.Packet.dport payload
      in
      after_cpu t c (fun () ->
          Net.dispatch t.net reply;
          Trace.finish span);
      None
  | _, Ok _ ->
      Trace.finish span;
      Some pkt

let patch_reply_attrs t (c : cost) (pd : pending) (pkt : Packet.t) =
  let payload = pkt.Packet.payload in
  let off = Codec.reply_attr_offset_i payload in
  if off >= 0 then begin
    charge t c `Decode (t.p.Params.decode_cost_per_item *. 13.0);
    let now = Engine.now t.eng in
    match pd.p_klass with
    | KStorage | KSmallfile ->
        (* Node-local attributes are not authoritative for striped /
           split files: patch size and times from the µproxy's cache,
           folding this op's effect into the cached record in place. *)
        let ca = cached_attr_of_pending t pd in
        (match pd.p_proc with
        | 7 ->
            (* write: size grows to at least offset + count written *)
            let hi =
              (if pd.p_off_field >= 0 then pd.p_offset else 0)
              + (if pd.p_count > 0 then pd.p_count else 0)
            in
            let sz = Int64.to_int ca.ca_attr.Nfs.size in
            let size = if hi > sz then hi else sz in
            ca.ca_attr.Nfs.size <- Int64.of_int size;
            ca.ca_attr.Nfs.used <- Int64.of_int size;
            ca.ca_attr.Nfs.mtime <- now;
            ca.ca_attr.Nfs.ctime <- now;
            ca.ca_dirty <- true
        | 6 ->
            (* read: maintain access time; learn the size if we had
               nothing cached yet (single-node files report truly). *)
            let ret_size =
              Int64.to_int (Bytes.get_int64_be payload (off + Codec.attr_size_field_off))
            in
            if Int64.to_int ca.ca_attr.Nfs.size < ret_size && not ca.ca_dirty then
              ca.ca_attr.Nfs.size <- Int64.of_int ret_size;
            ca.ca_attr.Nfs.atime <- now;
            ca.ca_dirty <- true
        | _ -> ());
        let a = ca.ca_attr in
        Codec.put_u64_be t.scr8 (Int64.to_int a.Nfs.size);
        Cksum.patch_payload_bytes pkt ~off:(off + Codec.attr_size_field_off) t.scr8 ~spos:0 ~len:8;
        Codec.put_time_be t.scr8 a.Nfs.atime;
        Cksum.patch_payload_bytes pkt ~off:(off + Codec.attr_atime_field_off) t.scr8 ~spos:0 ~len:8;
        Codec.put_time_be t.scr8 a.Nfs.mtime;
        Cksum.patch_payload_bytes pkt ~off:(off + Codec.attr_mtime_field_off) t.scr8 ~spos:0 ~len:8;
        charge t c `Rewrite (3.0 *. t.p.Params.rewrite_cost);
        t.n_attr_patch <- t.n_attr_patch + 1;
        (* reads: fix the EOF flag, which the node judged against its
           local fragment of the file *)
        if pd.p_proc = 6 then begin
          let tag_off = off + Codec.attr_wire_size in
          if Bytes.length payload >= tag_off + 12 then begin
            let count = Int32.to_int (Bytes.get_int32_be payload (tag_off + 4)) in
            let fin = (if pd.p_off_field >= 0 then pd.p_offset else 0) + count in
            let eof = fin >= Int64.to_int a.Nfs.size in
            Bytes.set_int32_be t.scr4 0 (if eof then 1l else 0l);
            Cksum.patch_payload_bytes pkt ~off:(tag_off + 8) t.scr4 ~spos:0 ~len:4;
            charge t c `Rewrite t.p.Params.rewrite_cost
          end
        end
    | KName ->
        (* Directory servers are authoritative; refresh the cache. If
           the µproxy holds dirtier I/O state, patch it in. The refresh
           also grants a fast-path lease — unless an invalidation raced
           past while this reply was in flight (epoch mismatch), in
           which case the reply's data may already be falsified and
           must not become servable. The cache key (fileid) reads
           straight off the wire; the 84-byte block is only decoded
           when an entry actually consumes it. *)
        let grant ca =
          if meta_enabled t && pd.p_epoch = t.meta_epoch then
            ca.ca_valid_until <- now +. t.p.Params.meta_cache_ttl
        in
        let rfh_off = Codec.reply_fh_after_attr_off payload in
        if rfh_off >= 0 || pd.p_fh_off >= 0 then begin
          let keyed =
            Int64.to_int (Bytes.get_int64_be payload (off + Codec.attr_fileid_field_off))
          in
          match Lru.find t.attrs keyed with
          | Some ca when ca.ca_dirty ->
              let returned = Codec.decode_attr_at payload off in
              let size =
                if Int64.compare ca.ca_attr.Nfs.size returned.Nfs.size > 0 then
                  ca.ca_attr.Nfs.size
                else returned.Nfs.size
              in
              let mtime = ca.ca_attr.Nfs.mtime in
              returned.Nfs.size <- size;
              returned.Nfs.mtime <- mtime;
              ca.ca_attr <- returned;
              Codec.put_u64_be t.scr8 (Int64.to_int size);
              Cksum.patch_payload_bytes pkt ~off:(off + Codec.attr_size_field_off) t.scr8
                ~spos:0 ~len:8;
              Codec.put_time_be t.scr8 mtime;
              Cksum.patch_payload_bytes pkt ~off:(off + Codec.attr_mtime_field_off) t.scr8
                ~spos:0 ~len:8;
              charge t c `Rewrite (2.0 *. t.p.Params.rewrite_cost);
              t.n_attr_patch <- t.n_attr_patch + 1;
              grant ca
          | Some ca ->
              ca.ca_attr <- Codec.decode_attr_at payload off;
              grant ca
          | None ->
              (* Creating entries only matters to the metadata fast
                 path; with it off, skip the handle/attr decode. *)
              if meta_enabled t then begin
                let fh_opt =
                  if rfh_off >= 0 then Fh.decode_at payload rfh_off
                  else Fh.decode_at pd.p_buf pd.p_fh_off
                in
                match fh_opt with
                | None -> ()
                | Some fh ->
                    let ca =
                      { ca_fh = fh; ca_attr = Codec.decode_attr_at payload off;
                        ca_dirty = false; ca_valid_until = neg_infinity }
                    in
                    grant ca;
                    Lru.add t.attrs keyed ca
              end
        end
  end

(* Populate the name cache from a directory server's answer: a successful
   lookup/create/mkdir/symlink binds (dir, name) -> child handle; a
   lookup that returned NOENT proves absence, worth a negative entry
   (SPECsfs and build workloads probe absent names repeatedly). Replies
   from before an invalidation (epoch mismatch) teach nothing. *)
let learn_name t (pd : pending) (pkt : Packet.t) =
  if
    meta_enabled t && pd.p_epoch = t.meta_epoch
    && (match pd.p_klass with KName -> true | _ -> false)
    && pd.p_fh_off >= 0 && pd.p_name_len >= 0
  then begin
    let dir_id = Fh.peek_file_id_int pd.p_buf pd.p_fh_off in
    let name = Bytes.sub_string pd.p_buf pd.p_name_off pd.p_name_len in
    let key = (dir_id, name) in
    let expires = Engine.now t.eng +. t.p.Params.meta_cache_ttl in
    let st = reply_status pkt.Packet.payload in
    match pd.p_proc with
    | (3 | 8 | 9 | 10) when st = 0 ->
        let off = Codec.reply_fh_after_attr_off pkt.Packet.payload in
        if off >= 0 then
          Lru.add t.name_cache ~expires_at:expires key (Some (fh_at pkt.Packet.payload off))
    | 3 when st = Codec.int_of_status Nfs.ERR_NOENT ->
        Lru.add t.name_cache ~expires_at:expires key None
    | _ -> ()
  end

(* The borrowed pending record is only valid for the synchronous part of
   this call: every deferred continuation extracts the fields it needs
   (span, retry budget, a fresh copy of the pristine payload) before
   [after_cpu] — the caller releases the slot as soon as we return. *)
let handle_reply t (pkt : Packet.t) (pd : pending) =
  let c = t.cost in
  c.c_tot.(0) <- 0.0;
  c.c_span <- pd.p_span;
  charge t c `Intercept t.p.Params.intercept_cost;
  charge t c `Softstate t.p.Params.softstate_cost;
  t.n_replies <- t.n_replies + 1;
  if pd.p_mirror_left > 1 then begin
    (* first mirror ack: wait for the slower replica, but keep the worst
       status seen — acking a write the first replica failed would lose
       data silently. *)
    pd.p_mirror_left <- pd.p_mirror_left - 1;
    let st = reply_status pkt.Packet.payload in
    if st > 0 then pd.p_worst <- st;
    after_cpu t c (fun () -> ());
    None
  end
  else begin
    (* pending record already unbound by the caller, keyed on xid *)
    let st = reply_status pkt.Packet.payload in
    if st = 20001 || pd.p_worst = 20001 then begin
      t.n_stale <- t.n_stale + 1;
      (* a bounced storage request may have been routed by a stale block
         map fragment: refetch it on the retry *)
      (match pd.p_klass with
      | KStorage when pd.p_fh_off >= 0 ->
          Lru.remove t.map_cache (Fh.peek_file_id_int pd.p_buf pd.p_fh_off)
      | _ -> ());
      refresh_tables t;
      let moved =
        t.dir_version <> pd.p_dirv || t.sf_version <> pd.p_sfv || t.st_version <> pd.p_stv
      in
      let span = pd.p_span in
      let retries = pd.p_retries in
      let orig = Bytes.sub pd.p_buf 0 pd.p_len in
      let csrc = pkt.Packet.dst and csport = pkt.Packet.dport in
      after_cpu t c (fun () ->
          (* the retry re-enters routing and opens a fresh root *)
          Trace.finish ~outcome:"bounced" span;
          if moved then retry_misdirected t ~src:csrc ~sport:csport orig
          else if retries < misdirect_retry_limit then
            Engine.schedule t.eng
              (misdirect_retry_delay *. float_of_int (retries + 1))
              (fun () -> retry_misdirected ~retries:(retries + 1) t ~src:csrc ~sport:csport orig));
      None
    end
    else if pd.p_worst > 0 && st = 0 then begin
      (* Mirrored write: an earlier replica failed but the last one
         succeeded. Forward the failure so the client retries — the
         success reply would hide a half-written mirror pair. *)
      let xid = Codec.xid_of pkt.Packet.payload in
      let status =
        try Codec.status_of_int pd.p_worst with Codec.Malformed _ -> Nfs.ERR_IO
      in
      let payload = Codec.encode_reply ~xid (Error status) in
      charge t c `Rewrite t.p.Params.rewrite_cost;
      let reply =
        Packet.make ~src:t.tg.virtual_addr ~dst:pkt.Packet.dst ~sport:pkt.Packet.sport
          ~dport:pkt.Packet.dport payload
      in
      let span = pd.p_span in
      after_cpu t c (fun () ->
          Net.dispatch t.net reply;
          Trace.finish ~outcome:"mirror_error" span);
      None
    end
    else if pd.p_proc = 16 && t.p.Params.name_policy = Params.Name_hashing then
      translate_readdir t c ~rd_site:pd.p_rd_site ~span:pd.p_span pkt
    else begin
      patch_reply_attrs t c pd pkt;
      learn_name t pd pkt;
      charge t c `Rewrite t.p.Params.rewrite_cost;
      Cksum.rewrite_src pkt t.tg.virtual_addr;
      let span = pd.p_span in
      after_cpu t c (fun () ->
          Net.dispatch t.net pkt;
          Trace.finish ~outcome:(if st = 0 then "ok" else "error") span);
      None
    end
  end

(* ---- filters ---- *)

let egress_filter t (pkt : Packet.t) =
  if pkt.Packet.dst = t.tg.virtual_addr && pkt.Packet.dport = 2049 then begin
    handle_request t pkt;
    None
  end
  else Some pkt

let ingress_filter t (pkt : Packet.t) =
  if Bytes.length pkt.Packet.payload < 4 then Some pkt
  else begin
    let xid = Int32.to_int (Bytes.get_int32_be pkt.Packet.payload 0) land 0xFFFFFFFF in
    let slot = Xid_index.find t.xidx xid in
    if slot < 0 then Some pkt
    else begin
      let pd = t.pool.(slot) in
      let last = pd.p_mirror_left <= 1 in
      if last then begin
        ignore (Xid_index.remove t.xidx xid);
        Trace.unbind_xid pd.p_span xid;
        (* per-tenant accounting on the closing reply: one op, the
           response bytes, and the client-visible latency measured from
           the pending record's (retransmit-refreshed) arrival stamp *)
        match t.qos with
        | Some q ->
            Slice_qos.Tenant.note_reply q.q_tenants pd.p_tenant
              ~bytes:(Bytes.length pkt.Packet.payload + pkt.Packet.extra_size);
            Slice_qos.Tenant.observe_latency q.q_tenants pd.p_tenant
              (Engine.now t.eng -. t.pool_born.(slot))
        | None -> ()
      end;
      let r = handle_reply t pkt pd in
      if last then release_slot t slot;
      r
    end
  end

let rec writeback_tick t =
  if t.p.Params.attr_writeback_interval > 0.0 then
    Engine.schedule t.eng t.p.Params.attr_writeback_interval (fun () ->
        writeback_dirty_attrs t;
        writeback_tick t)

let install host ?(params = Params.default) ?(seed = 7) ?trace ?qos targets =
  let net = host.Host.net in
  let dir_map, dir_version = Table.snapshot targets.dir_table in
  let sf_map, sf_version =
    match targets.smallfile_table with Some tbl -> Table.snapshot tbl | None -> ([||], 0)
  in
  let st_map, st_version =
    match targets.storage with Some tbl -> Table.snapshot tbl | None -> ([||], 0)
  in
  (* Evicted dirty attributes must be pushed back to their directory
     server; the eviction hook needs the proxy record, which needs the
     cache — tie the knot through a forward reference. *)
  let self = ref None in
  let attrs =
    Lru.create ~capacity:params.Params.attr_cache_capacity
      ~on_evict:(fun _ c ->
        match !self with
        | Some t when c.ca_dirty ->
            Slice_sim.Engine.spawn host.Host.eng (fun () -> writeback_one t c)
        | _ -> ())
      ()
  in
  let cap = round_pow2 (max 16 params.Params.pending_capacity) in
  let pool = Array.init cap (fun _ -> fresh_pending ()) in
  let t =
    {
      host;
      net;
      eng = host.Host.eng;
      p = params;
      trace;
      qos;
      tg = targets;
      prng = Prng.create (seed + (host.Host.addr * 7919));
      rpc = Rpc.create net host.Host.addr ~port:params.Params.rpc_port;
      pool;
      pool_born = Array.make cap 0.0;
      free_head = -1;
      xidx = Xid_index.create cap;
      n_pending = 0;
      sweep_buf = Array.make cap 0;
      attrs;
      name_cache = Lru.create ~capacity:params.Params.name_cache_capacity ();
      map_cache = Lru.create ~capacity:params.Params.map_cache_capacity ();
      (* lint: bounded — one row per file with an open mirrored-write intent; commit closes it *)
      intents_open = Hashtbl.create 16;
      meta_epoch = 0;
      fence_seen = combined_epoch_of targets;
      n_fence_inval = 0;
      dir_map;
      dir_version;
      sf_map;
      sf_version;
      st_map;
      st_version;
      phase = Array.make 4 0.0;
      cost = { c_tot = [| 0.0 |]; c_span = Trace.null };
      cur = Codec.cursor ();
      scr4 = Bytes.create 4;
      scr8 = Bytes.create 8;
      key_scratch = Bytes.create (33 + 256);
      sweep_fn = (fun () -> ());
      n_intercepted = 0;
      n_replies = 0;
      n_storage = 0;
      n_smallfile = 0;
      n_dir = 0;
      dir_hist = Array.make (Table.nsites targets.dir_table) 0;
      n_mkdir_redirect = 0;
      n_mirror_dup = 0;
      n_attr_patch = 0;
      n_writeback = 0;
      n_commits = 0;
      n_intents = 0;
      n_stale = 0;
      n_map_fetch = 0;
      n_expired = 0;
      n_meta_hit = 0;
      n_meta_neg_hit = 0;
      n_meta_miss = 0;
      n_meta_stale = 0;
      n_meta_inval = 0;
      n_admit_defer = 0;
      n_p2c_probes = 0;
      n_p2c_diverted = 0;
      sweep_armed = false;
    }
  in
  for i = cap - 1 downto 0 do
    pool.(i).p_next_free <- t.free_head;
    t.free_head <- i
  done;
  t.sweep_fn <- (fun () -> sweep t);
  self := Some t;
  Net.add_egress_filter net host.Host.addr (egress_filter t);
  Net.add_ingress_filter net host.Host.addr (ingress_filter t);
  writeback_tick t;
  t

let params t = t.p

let discard_soft_state t =
  Xid_index.clear t.xidx;
  t.free_head <- -1;
  for i = Array.length t.pool - 1 downto 0 do
    let pd = t.pool.(i) in
    pd.p_active <- false;
    pd.p_span <- Trace.null;
    pd.p_next_free <- t.free_head;
    t.free_head <- i
  done;
  t.n_pending <- 0;
  Lru.clear t.attrs;
  Lru.clear t.name_cache;
  Lru.clear t.map_cache;
  t.meta_epoch <- t.meta_epoch + 1

let cpu_breakdown t =
  {
    interception = t.phase.(0);
    decode = t.phase.(1);
    rewrite = t.phase.(2);
    soft_state = t.phase.(3);
  }

let packets_intercepted t = t.n_intercepted
let replies_processed t = t.n_replies
let routed_to_storage t = t.n_storage
let routed_to_smallfile t = t.n_smallfile
let routed_to_dir t = t.n_dir
let dir_site_histogram t = Array.copy t.dir_hist
let mkdir_redirects t = t.n_mkdir_redirect
let mirror_duplicates t = t.n_mirror_dup
let attr_patches t = t.n_attr_patch
let attr_writebacks t = t.n_writeback
let commits_orchestrated t = t.n_commits
let intents_opened t = t.n_intents
let stale_bounces t = t.n_stale
let map_fetches t = t.n_map_fetch
let expired_pending t = t.n_expired
let pending_size t = t.n_pending

let meta_cache_stats t =
  {
    hits = t.n_meta_hit;
    negative_hits = t.n_meta_neg_hit;
    misses = t.n_meta_miss;
    stale = t.n_meta_stale;
    invalidations = t.n_meta_inval;
  }

let fence_invalidations t = t.n_fence_inval
let admission_deferrals t = t.n_admit_defer
let p2c_probes t = t.n_p2c_probes
let p2c_diverted t = t.n_p2c_diverted

(* Test hook: the tenant stamped on the live pending record for [xid]
   (None when no record is pending). Exercises tag preservation across
   retransmit-supersede slot reuse. *)
let pending_tenant t ~xid =
  let slot = Xid_index.find t.xidx xid in
  if slot < 0 then None else Some t.pool.(slot).p_tenant
