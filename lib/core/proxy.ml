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
module Slot_lru = Slice_util.Slot_lru
module Trace = Slice_trace.Trace

type targets = {
  virtual_addr : Packet.addr;
  dir_table : Table.t;
  smallfile_table : Table.t option;
  storage : Table.t option;
  coordinator : unit -> Packet.addr option;
      (* whether there is one is read at install; who it is, at each
         transmission, so a takeover rebinds the coordinator without
         reinstalling every µproxy *)
}

type phase_cpu = {
  interception : float;
  decode : float;
  rewrite : float;
  soft_state : float;
}

type klass = KName | KStorage | KSmallfile

(* One in-flight request, the record of a slot of the pending table.
   Records are pooled: every field is mutable and reset on reuse, the
   request payload lives in a per-record buffer that is grown (never
   shrunk) to the packet size, and name/handle arguments are kept as
   (offset, length) spans into that buffer — so steady-state
   interception recycles records without allocating. [p_born] lives in a
   parallel float array ([pool_born]) because a mutable float field in a
   mixed record would box a fresh float on every store. *)
type pending = {
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
  mutable p_tables_v : int; (* sum of the table versions at forward
                               time: a bounce with an unchanged sum means
                               the move has not committed yet, so the
                               retry must back off *)
  mutable p_retries : int; (* misdirect retries already spent *)
  mutable p_tenant : int; (* QoS tenant id stamped at forward time; the
                             tag survives retransmit/supersede slot reuse
                             because [remember] restamps every fill *)
  mutable p_mirror_left : int;
  mutable p_worst : int; (* worst NFS status seen across mirror acks *)
  mutable p_span : Trace.span; (* request root; finished on reply *)
}

(* An attribute cache entry. Its slot's lease is the deadline for
   serving the attributes from the fast path; only an authoritative
   directory-server reply grants one, so fabricated entries carry
   neg_infinity and locally-invented attributes are never served. A
   write-back fiber holds the record itself, so an evicted entry's
   write-back reads the state it was evicted with. *)
type cached_attr = { ca_fh : Fh.t; mutable ca_attr : Nfs.fattr; mutable ca_dirty : bool }

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

(* A private snapshot (hint) of one class's routing table: the mapping
   and its version at the last refresh. A class without a table keeps an
   empty mapping at version 0. *)
type snap = {
  tbl : Table.t option;
  mutable map : Packet.addr array;
  mutable version : int;
  mutable nodes : Packet.addr array; (* [Table.node_set map] *)
}

(* One COMMIT the µproxy orchestrates, from the end of its interception
   to the reply it synthesizes. Records are pooled on an intrusive free
   list; while its fan-out runs a record sits on the µproxy's in-flight
   list, where the client's xid finds it, so a retransmission joins the
   fan-out instead of starting another. Its three thunks are built once,
   with the record. *)
type commit = {
  mutable cm_xid : int;
  mutable cm_client : Packet.addr;
  mutable cm_port : int;
  mutable cm_fh : Fh.t;
  mutable cm_span : Trace.span;
  mutable cm_sites : Packet.addr array; (* the file's data nodes *)
  mutable cm_sf : int; (* its small-file site; -1 = none *)
  mutable cm_failed : bool;
  mutable cm_next : commit; (* in-flight or free-list link *)
  cm_start : unit -> unit; (* when the interception's CPU booking ends *)
  cm_run : unit -> unit; (* the orchestrating fiber *)
  cm_job : int -> unit; (* one fan-out child *)
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
  coord : (int -> Packet.addr) option; (* the coordinator's holder, if there is one *)
  dir_holder : int -> Packet.addr; (* holders of the µproxy's own calls' sites *)
  sf_holder : int -> Packet.addr;
  (* the requests in flight: a slot table keyed by xid, whose records
     and arrival times live in the columns below it *)
  pending : Slot_lru.t;
  mutable pool : pending array; (* [no_pending] until the slot is first used *)
  mutable pool_born : float array; (* arrival time, refreshed by retransmit *)
  (* The metadata caches, discardable soft state: each is a slot table
     in LRU order whose values live in the columns below it, indexed by
     its slots. *)
  attrs : Slot_lru.t; (* file id; the slot lease is the fast-path lease *)
  mutable attr_val : cached_attr array;
  name_cache : Slot_lru.t;
      (* [name_key] of (dir file id, component), leased; a positive entry
         binds the child handle, a negative one proves absence *)
  mutable name_dir : int array;
  mutable name_str : string array;
  mutable name_child : Fh.t option array; (* None: negative entry *)
  map_cache : Slot_lru.t;
      (* file id -> generation and per-chunk logical storage site; the
         generation guards against a recycled file id routing I/O to old
         sites. Entries are logical, so a migration never invalidates
         them — the site is bound to a physical node at forward time. *)
  mutable map_gen : int array;
  mutable map_sites : int array array;
  intents_open : (int, int64) Hashtbl.t;
  mutable commits : commit; (* in flight, newest first *)
  mutable free_commits : commit;
  mutable meta_epoch : int;
  mutable fence_seen : int;
      (* sum of the routing tables' fencing epochs at the last refresh; an
         advance means a manager was deposed and the caches hold entries
         from a dead incarnation *)
  mutable n_fence_inval : int;
  dir : snap;
  sf : snap;
  st : snap;
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

let[@hot] meta_enabled t = t.p.Params.meta_cache_ttl > 0.0

(* ---- per-packet cost accounting ----
   Phases accumulate into the per-packet cell, are charged to the client
   CPU in one booking, and the packet moves on when the booking
   completes.

   The CPU costs are calibrated from the paper's Table 3: at 6250
   packets/second a client-based µproxy spent 0.7 % of a 500 MHz CPU
   intercepting packets (1.12 µs each), 4.1 % decoding (6.56 µs — mostly
   skipping variable-length RPC/NFS header fields, ≈20 XDR items at
   ~0.33 µs), 0.5 % redirecting/rewriting (0.8 µs) and 0.8 % managing
   soft state (1.28 µs). *)

let intercept_cost = 1.12e-6 (* CPU seconds per intercepted packet *)
let decode_cost_per_item = 0.33e-6 (* per XDR item examined *)
let rewrite_cost = 0.8e-6 (* per field rewrite + checksum adjust *)
let softstate_cost = 1.28e-6 (* per pending-record / cache update *)

(* The duplicate packet of a mirrored write: buffer requeue plus a
   checksum share, ~1/5 of the full write path per byte (calibrated to
   Table 2's 38.9 -> 32.2 MB/s). *)
let mirror_dup_cost_per_byte = 5.2e-9

(* Inlined, so a computed amount is added without being boxed. *)
let[@inline] charge t (c : cost) phase amount =
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

(* The port of the µproxy's own endpoint on the client. *)
let rpc_port = 3001

let ctrl_call t ~span msg =
  match t.coord with None -> Ctrl.Nack | Some holder -> Ctrl.call t.rpc ~span ~holder msg

(* ---- pending records ---- *)

(* Per-µproxy cache sizes: attribute cache and block-map placement cache
   entries. *)
let attr_cache_capacity = 4096
let map_cache_capacity = 1024

(* The sweep expires a pending record this old; a client retransmission refreshes it. *)
let pending_expiry = 10.0

let rec round_pow2_from p n = if p >= n then p else round_pow2_from (p * 2) n
let round_pow2 n = round_pow2_from 16 n

let fresh_pending () =
  {
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
    p_tables_v = 0;
    p_retries = 0;
    p_tenant = 0;
    p_mirror_left = 0;
    p_worst = 0;
    p_span = Trace.null;
  }

(* Fills the slots no request has used yet; compared physically. *)
let no_pending = fresh_pending ()

let[@hot] release_slot t slot =
  t.pool.(slot).p_span <- Trace.null;
  Slot_lru.drop t.pending slot

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

(* The server of logical site [logical] in snapshot [s]. With no sites
   (misconfiguration or a snapshot taken mid-reshape) aim at the virtual
   address, where the packet is counted as a drop and the client's
   retransmission gets another chance after a refresh — never divide by
   zero in the fast path. *)
let[@hot] phys t s logical =
  let n = Array.length s.map in
  if n = 0 then t.tg.virtual_addr else s.map.(logical mod n)

(* An NFS call to whoever holds logical [site] of snapshot [s]'s class:
   the first transmission reads [s] as it stands, and [holder], the
   class's holder in [t], refreshes the snapshots before each re-send,
   which also fences the caches after a takeover. No caller reads the
   reply, so it is not decoded. *)
let site_call t ~span s ~holder ~site (call : Nfs.call) =
  let xid = Rpc.fresh_xid t.rpc in
  ignore
    (Rpc.call_role t.rpc ~span ~timeout:2.0 ~holder ~site ~dst:(phys t s site) ~dport:2049
       ~refused:Codec.misdirected ~extra_size:(Codec.extra_size_of_call call)
       (Codec.encode_call ~xid call))

(* ---- table snapshots ---- *)

let refresh s =
  match s.tbl with
  | Some table ->
      let map, version = Table.snapshot table in
      s.map <- map;
      s.version <- version;
      s.nodes <- Table.node_set map
  | None -> ()

let snap tbl =
  let s = { tbl; map = [||]; version = 0; nodes = [||] } in
  refresh s;
  s

let epoch s = match s.tbl with Some table -> Table.epoch table | None -> 0
let combined_epoch t = epoch t.dir + epoch t.sf + epoch t.st

(* Versions only ever grow ([Table.update], [Table.bump_epoch]), so the
   sum moves exactly when some table moved. *)
let tables_version t = t.dir.version + t.sf.version + t.st.version

(* ---- attribute write-back ---- *)

(* Push one dirty cached attribute back to its directory server (the
   paper's setattr write-back on commit or eviction), to the server that
   holds its attribute site: a re-send after silence or a bounce
   refreshes the tables first and goes to the site's holder by then. A
   server that does not know the file (ERR_STALE) is owed nothing. When
   the call gives up the attributes stay owed and the caller hears
   {!Rpc.Timeout}. *)
let rec writeback_one t (c : cached_attr) =
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
    try
      site_call t ~span:Trace.null t.dir ~holder:t.dir_holder ~site:c.ca_fh.Fh.attr_site
        (Nfs.Setattr (c.ca_fh, s))
    with Rpc.Timeout ->
      c.ca_dirty <- true;
      raise Rpc.Timeout
  end

and writeback_later t c = Engine.spawn t.eng (fun () -> writeback_one t c)

(* A fencing-epoch advance means a manager was deposed by a takeover:
   every metadata entry cached from the dead incarnation is suspect.
   Names and block maps are dropped outright. Attribute entries lose
   their lease so the next fast-path attempt revalidates at the new
   owner — except dirty ones, whose pending I/O state (sizes, mtimes of
   writes already acked to the client) must survive the takeover: they
   keep their bytes and are written back to the successor immediately. *)
and fence_invalidate t =
  Slot_lru.clear t.name_cache;
  Slot_lru.clear t.map_cache;
  Slot_lru.iter t.attrs (fun s ->
      let c = t.attr_val.(s) in
      if c.ca_dirty then begin
        Slot_lru.set_lease t.attrs s neg_infinity;
        writeback_later t c
      end
      else Slot_lru.drop t.attrs s);
  t.meta_epoch <- t.meta_epoch + 1;
  t.n_meta_inval <- t.n_meta_inval + 1;
  t.n_fence_inval <- t.n_fence_inval + 1

and refresh_tables t =
  refresh t.dir;
  refresh t.sf;
  refresh t.st;
  let ep = combined_epoch t in
  if ep > t.fence_seen then begin
    t.fence_seen <- ep;
    fence_invalidate t
  end

(* ---- metadata cache columns ---- *)

(* Cache [c] under file id [key]. A dirty entry the insert displaces
   still owes its directory server a write-back. Inlined, with
   [Slot_lru.add], so a computed lease is stored unboxed. *)
let[@inline] add_attr t key c ~lease =
  let s = Slot_lru.add t.attrs key ~lease in
  t.attr_val <- Slot_lru.fit t.attrs t.attr_val c;
  let old = t.attr_val.(s) in
  if Slot_lru.displaced t.attrs && old.ca_dirty then writeback_later t old;
  t.attr_val.(s) <- c

let cached_attr t (fh : Fh.t) =
  let key = Int64.to_int fh.Fh.file_id in
  let s = Slot_lru.find t.attrs key in
  if s >= 0 then t.attr_val.(s)
  else begin
    let c =
      {
        ca_fh = fh;
        ca_attr = Nfs.default_attr ~ftype:fh.Fh.ftype ~fileid:fh.Fh.file_id ~now:(Engine.now t.eng);
        ca_dirty = false;
      }
    in
    add_attr t key c ~lease:neg_infinity;
    c
  end

(* The same lookup keyed straight off the pending record's handle span;
   materializes the handle only when the entry must be created. *)
let cached_attr_of_pending t (pd : pending) =
  if pd.p_fh_off < 0 then cached_attr t Fh.root
  else
    let s = Slot_lru.find t.attrs (Fh.peek_file_id_int pd.p_buf pd.p_fh_off) in
    if s >= 0 then t.attr_val.(s) else cached_attr t (fh_at pd.p_buf pd.p_fh_off)

(* Name-cache key: the parent's file id folded into an FNV-1a hash of the
   name span. Distinct names may share a key; a slot answers only for the
   parent and bytes it stores ([name_slot]). *)
let[@hot] rec fnv_span (b : bytes) i stop h =
  if i >= stop then h
  else fnv_span b (i + 1) stop ((h lxor Char.code (Bytes.get b i)) * 0x100000001b3)

let[@hot] name_key dir_id (b : bytes) off len =
  fnv_span b off (off + len) (dir_id * 0x100000001b3)

let[@hot] rec same_bytes (s : string) (b : bytes) off i n =
  i >= n || (Char.equal (String.get s i) (Bytes.get b (off + i)) && same_bytes s b off (i + 1) n)

(* Whether name slot [s] holds parent [dir_id] and the name at
   [off, len) in [b], compared where the span sits. *)
let[@hot] holds_name t s dir_id (b : bytes) off len =
  t.name_dir.(s) = dir_id
  && String.length t.name_str.(s) = len
  && same_bytes t.name_str.(s) b off 0 len

(* The name-cache slot for parent [dir_id] and the span, or -1.
   Promotes nothing. *)
let[@hot] name_slot t dir_id (b : bytes) off len =
  let s = Slot_lru.slot t.name_cache (name_key dir_id b off len) in
  if s >= 0 && holds_name t s dir_id b off len then s else -1

(* Bind parent [dir_id] and the name span to [child] until [lease]. The
   name bytes are copied unless the slot already holds them. *)
let[@inline] add_name t dir_id (b : bytes) off len child ~lease =
  let s = Slot_lru.add t.name_cache (name_key dir_id b off len) ~lease in
  t.name_dir <- Slot_lru.fit t.name_cache t.name_dir 0;
  t.name_str <- Slot_lru.fit t.name_cache t.name_str "";
  t.name_child <- Slot_lru.fit t.name_cache t.name_child None;
  if not (Slot_lru.displaced t.name_cache && holds_name t s dir_id b off len) then begin
    t.name_dir.(s) <- dir_id;
    t.name_str.(s) <- Bytes.sub_string b off len
  end;
  t.name_child.(s) <- child

let add_map t fid gen sites =
  let s = Slot_lru.add t.map_cache fid ~lease:infinity in
  t.map_gen <- Slot_lru.fit t.map_cache t.map_gen 0;
  t.map_sites <- Slot_lru.fit t.map_cache t.map_sites [||];
  t.map_gen.(s) <- gen;
  t.map_sites.(s) <- sites

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

(* The walk visits records in the order they were last remembered,
   never in slot order, so the expiry order is as deterministic as the
   run. *)
let sweep t =
  t.sweep_armed <- false;
  let now = Engine.now t.eng in
  Slot_lru.iter t.pending (fun s ->
      if now -. t.pool_born.(s) >= pending_expiry then begin
        let pd = t.pool.(s) in
        Trace.unbind_xid pd.p_span (Slot_lru.key t.pending s);
        Trace.finish ~outcome:"expired" pd.p_span;
        release_slot t s;
        t.n_expired <- t.n_expired + 1
      end);
  if Slot_lru.count t.pending > 0 then arm_sweep t

(* ---- forwarding ---- *)

(* Record the request in the pending table, keyed by xid. Must run
   before any in-place rewrite (offset/cookie patches): the pooled buffer
   keeps the bytes the client sent, so a bounce or failover retry
   re-enters routing pristine — stripe offsets are never translated
   twice. *)
let remember t (cur : Codec.cursor) (payload : bytes) ~span ~klass ~rd_site ~mirrors ~retries =
  let xid = cur.Codec.c_xid in
  let slot = Slot_lru.add t.pending xid ~lease:infinity in
  if Slot_lru.displaced t.pending then begin
    (* a client retransmit replaces the record: close the superseded
       tree and reuse the slot *)
    let old = t.pool.(slot) in
    Trace.unbind_xid old.p_span xid;
    Trace.finish ~outcome:"superseded" old.p_span
  end
  else begin
    t.pool <- Slot_lru.fit t.pending t.pool no_pending;
    t.pool_born <- Slot_lru.fit t.pending t.pool_born 0.0;
    if t.pool.(slot) == no_pending then t.pool.(slot) <- fresh_pending ()
  end;
  let pd = t.pool.(slot) in
  Trace.bind_xid span xid;
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
  pd.p_tables_v <- tables_version t;
  pd.p_retries <- retries;
  pd.p_tenant <- (match t.qos with Some q -> q.q_tenant | None -> 0);
  pd.p_mirror_left <- mirrors;
  pd.p_worst <- 0;
  pd.p_span <- span;
  t.pool_born.(slot) <- Engine.now t.eng;
  arm_sweep t

let forward t (c : cost) (pkt : Packet.t) ~dst =
  charge t c `Rewrite rewrite_cost;
  Cksum.rewrite_dst pkt dst;
  charge t c `Softstate softstate_cost;
  after_cpu t c (fun () -> Net.inject t.net pkt)

(* Overwrite the 8 payload bytes at [off] with [t.scr8], adjusting the
   checksum. *)
let patch8 t (pkt : Packet.t) off = Cksum.patch_payload_bytes pkt ~off t.scr8 ~spos:0 ~len:8

let patch_offset t (c : cost) (pkt : Packet.t) (cur : Codec.cursor) v =
  if cur.Codec.c_off_field >= 0 then begin
    charge t c `Rewrite rewrite_cost;
    Codec.put_u64_be t.scr8 v;
    patch8 t pkt cur.Codec.c_off_field
  end

(* The two forwarding tails. A storage request goes to logical [site]:
   its wire offset becomes [local] tagged with the site, and the node is
   the one the snapshot binds [site] to. A directory request goes to the
   server of logical [site]; for a readdir [site] is also the site the
   reply's cookies are tagged with. *)
let to_storage t (c : cost) (pkt : Packet.t) (cur : Codec.cursor) ~site ~local ~mirrors ~retries =
  t.n_storage <- t.n_storage + 1;
  remember t cur pkt.Packet.payload ~span:c.c_span ~klass:KStorage ~rd_site:0 ~mirrors ~retries;
  patch_offset t c pkt cur (Routekey.site_offset_int ~site local);
  forward t c pkt ~dst:t.st.map.(site)

let to_dir t (c : cost) (pkt : Packet.t) (cur : Codec.cursor) ~site ~retries =
  t.n_dir <- t.n_dir + 1;
  remember t cur pkt.Packet.payload ~span:c.c_span ~klass:KName ~rd_site:site ~mirrors:1 ~retries;
  forward t c pkt ~dst:(phys t t.dir site)

(* ---- commit orchestration ---- *)

(* A reply from the virtual server to the client at [dst]:[dport]. *)
let client_reply t ~dst ~dport ~xid resp =
  Packet.make ~src:t.tg.virtual_addr ~dst ~sport:2049 ~dport (Codec.encode_reply ~xid resp)

(* The file's small-file site; -1 = none. *)
let smallfile_site t (fh : Fh.t) =
  if t.p.Params.threshold <= 0 || Array.length t.sf.map = 0 then -1
  else Routekey.file_site ~nsites:(Array.length t.sf.map) fh

let no_sites : Packet.addr array = [||]

let rec no_commit =
  {
    cm_xid = -1;
    cm_client = 0;
    cm_port = 0;
    cm_fh = Fh.root;
    cm_span = Trace.null;
    cm_sites = no_sites;
    cm_sf = -1;
    cm_failed = false;
    cm_next = no_commit;
    cm_start = ignore;
    cm_run = ignore;
    cm_job = ignore;
  }

let rec commit_in_flight cm xid =
  cm != no_commit && (cm.cm_xid = xid || commit_in_flight cm.cm_next xid)

let rec unlink_after prev cm =
  if prev.cm_next == cm then prev.cm_next <- cm.cm_next else unlink_after prev.cm_next cm

let unlink_commit t cm =
  if t.commits == cm then t.commits <- cm.cm_next else unlink_after t.commits cm

(* The pool's first record, or [no_commit] when it is empty. *)
let[@hot] take_commit t =
  let cm = t.free_commits in
  if cm != no_commit then begin
    t.free_commits <- cm.cm_next;
    cm.cm_next <- no_commit
  end;
  cm

(* Returning a record drops what it held, so the pool keeps no handle or
   span alive. *)
let[@hot] release_commit t cm =
  cm.cm_fh <- Fh.root;
  cm.cm_span <- Trace.null;
  cm.cm_sites <- no_sites;
  cm.cm_next <- t.free_commits;
  t.free_commits <- cm

(* The fan-out's jobs, one per target in this order: the coordinator, or
   else each data node in turn, then the small-file server, which is
   called at its site's holder. A timeout marks the whole commit failed. *)
let[@inline] by_coordinator t cm = Option.is_some t.coord && Array.length cm.cm_sites > 0
let[@inline] data_jobs t cm = if by_coordinator t cm then 1 else Array.length cm.cm_sites

let commit_job t cm k =
  let span = cm.cm_span in
  try
    if k >= data_jobs t cm then
      site_call t ~span t.sf ~holder:t.sf_holder ~site:cm.cm_sf (Nfs.Commit (cm.cm_fh, 0L, 0))
    else if by_coordinator t cm then
      ignore (ctrl_call t ~span (Ctrl.Commit_file { fh = cm.cm_fh; sites = cm.cm_sites }))
    else
      let xid = Rpc.fresh_xid t.rpc in
      ignore
        (Rpc.call t.rpc ~span ~timeout:2.0 ~dst:cm.cm_sites.(k) ~dport:2049
           (Codec.encode_call ~xid (Nfs.Commit (cm.cm_fh, 0L, 0))))
  with Rpc.Timeout -> cm.cm_failed <- true

(* A commit fails as a whole when a server it needs stays silent through
   every retransmission: the client hears ERR_IO, and attributes not yet
   pushed stay dirty for its next commit. The coordinator is asked when
   there is one and the file has data nodes. *)
let run_commit t cm =
  let fh = cm.cm_fh and span = cm.cm_span in
  cm.cm_failed <- false;
  cm.cm_sites <- Table.placement t.st.map ~nodes:t.st.nodes fh;
  cm.cm_sf <- smallfile_site t fh;
  Fiber.fan_out t.eng (data_jobs t cm + if cm.cm_sf >= 0 then 1 else 0) cm.cm_job;
  let resp =
    if cm.cm_failed then Error Nfs.ERR_IO
    else
      try
        (* Close any open mirrored-write intention, at the coordinator
           of the moment: a takeover may have come during the fan-out. *)
        let fid = Int64.to_int fh.Fh.file_id in
        (match Hashtbl.find_opt t.intents_open fid with
        | Some op_id ->
            Hashtbl.remove t.intents_open fid;
            ignore (ctrl_call t ~span (Ctrl.Complete { op_id }))
        | None -> ());
        (* Push modified attributes to the directory server (the
           paper's µproxy generates a setattr on NFS V3 commit). *)
        let c = cached_attr t fh in
        writeback_one t c;
        Ok (Nfs.RCommit c.ca_attr)
      with Rpc.Timeout -> Error Nfs.ERR_IO
  in
  (* Synthesize the commit reply to the client. *)
  Net.dispatch t.net (client_reply t ~dst:cm.cm_client ~dport:cm.cm_port ~xid:cm.cm_xid resp);
  (match resp with Ok _ -> Trace.finish span | Error _ -> Trace.finish ~outcome:"error" span);
  unlink_commit t cm;
  release_commit t cm

(* A retransmission whose COMMIT is still being orchestrated joins that
   fan-out: its reply answers both. One arriving after the reply starts
   a fan-out of its own. *)
let start_commit t cm =
  if commit_in_flight t.commits cm.cm_xid then begin
    Trace.finish ~outcome:"joined" cm.cm_span;
    release_commit t cm
  end
  else begin
    t.n_commits <- t.n_commits + 1;
    cm.cm_next <- t.commits;
    t.commits <- cm;
    Engine.spawn t.eng cm.cm_run
  end

(* Cold: the pool is empty. One new record, so the pool tracks the peak
   number of commits in flight. *)
let new_commit t =
  let rec cm =
    {
      no_commit with
      cm_next = no_commit;
      cm_start = (fun () -> start_commit t cm);
      cm_run = (fun () -> run_commit t cm);
      cm_job = (fun k -> commit_job t cm k);
    }
  in
  cm

(* Take a record for the COMMIT [pkt] carries, its handle at [fh_off]. *)
let acquire_commit t ~span (pkt : Packet.t) ~xid ~fh_off =
  let cm = take_commit t in
  let cm = if cm == no_commit then new_commit t else cm in
  let fh = Fh.read_at pkt.Packet.payload fh_off in
  cm.cm_xid <- xid;
  cm.cm_client <- pkt.Packet.src;
  cm.cm_port <- pkt.Packet.sport;
  cm.cm_fh <- fh;
  cm.cm_span <- span;
  cm

(* ---- mirrored-write intention (amortized across the file's writes) ---- *)

let open_intent_if_needed t (payload : bytes) fh_off =
  if Option.is_some t.coord then begin
    let fid = Fh.peek_file_id_int payload fh_off in
    if not (Hashtbl.mem t.intents_open fid) then begin
      let fh = fh_at payload fh_off in
      let op_id = Int64.of_int (Rpc.fresh_xid t.rpc) in
      Hashtbl.replace t.intents_open fid op_id;
      t.n_intents <- t.n_intents + 1;
      let participants = Table.placement t.st.map ~nodes:t.st.nodes fh in
      Engine.spawn t.eng (fun () ->
          ignore
            (ctrl_call t ~span:Trace.null
               (Ctrl.Intent { op_id; kind = Ctrl.K_mirror_write; fh; participants })))
    end
  end

(* ---- request routing ---- *)

let name_logical t (cur : Codec.cursor) (payload : bytes) =
  let nsites = Array.length t.dir.map in
  if nsites = 0 then 0 (* no dir sites: degenerate logical id; phys copes *)
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
  if site < Array.length t.dir_hist then t.dir_hist.(site) <- t.dir_hist.(site) + 1;
  (* readdir cookies travel tagged: the directory server decodes the
     (site, local-cookie) pair itself and owns-gates the site, so a
     server hosting several logical sites iterates the right one. *)
  to_dir t c pkt cur ~site ~retries

(* Bulk I/O routing. Storage placement is logical-site based: the chosen
   logical site is encoded into the wire offset's high bits
   ([Routekey.site_offset_int]) so a node hosting several logical sites keeps
   their extents apart, then bound to a physical node through the current
   table snapshot. *)
let rec route_io t (c : cost) (pkt : Packet.t) (cur : Codec.cursor) ~retries =
  let payload = pkt.Packet.payload in
  let fh_off = cur.Codec.c_fh_off in
  let off = if cur.Codec.c_off_field >= 0 then cur.Codec.c_offset else 0 in
  let nsf = Array.length t.sf.map in
  if t.p.Params.threshold > 0 && nsf > 0 && off < t.p.Params.threshold then begin
    let dst = t.sf.map.(Routekey.file_site_at ~nsites:nsf payload ~off:fh_off) in
    t.n_smallfile <- t.n_smallfile + 1;
    remember t cur payload ~span:c.c_span ~klass:KSmallfile ~rd_site:0 ~mirrors:1 ~retries;
    forward t c pkt ~dst
  end
  else begin
    let n = Array.length t.st.map in
    if n = 0 then
      (* No storage class configured: let a directory server reject it. *)
      to_dir t c pkt cur ~site:0 ~retries
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
        to_storage t c pkt cur ~site ~local:off ~mirrors:1 ~retries
      end
      else begin
        (* mirrored write: duplicate to both replicas; the copy is taken
           before the original's offset is patched *)
        open_intent_if_needed t payload fh_off;
        t.n_mirror_dup <- t.n_mirror_dup + 1;
        let copy = Packet.copy pkt in
        to_storage t c pkt cur ~site:r0 ~local:off ~mirrors:(if r0 = r1 then 1 else 2) ~retries;
        if r1 <> r0 then begin
          let c2 = { c_tot = [| 0.0 |]; c_span = c.c_span } in
          (* duplicate emission: requeue + checksum share of the data *)
          charge t c2 `Rewrite
            (rewrite_cost
            +. (mirror_dup_cost_per_byte
               *. float_of_int (if cur.Codec.c_count > 0 then cur.Codec.c_count else 0)));
          patch_offset t c2 copy cur (Routekey.site_offset_int ~site:r1 off);
          forward t c2 copy ~dst:t.st.map.(r1)
        end
      end
    end
    else begin
      let su = t.p.Params.stripe_unit in
      let chunk = Routekey.chunk_of_offset_int ~stripe_unit:su off in
      let local = Routekey.local_offset_int ~nsites:n ~stripe_unit:su off in
      match t.p.Params.io_policy with
      | Params.Static_striping ->
          let site = Routekey.stripe_site_at ~nsites:n ~stripe_unit:su payload ~off:fh_off off in
          to_storage t c pkt cur ~site ~local ~mirrors:1 ~retries
      | Params.Block_map -> (
          let fid = Fh.peek_file_id_int payload fh_off in
          let s = Slot_lru.find t.map_cache fid in
          let same_gen = s >= 0 && t.map_gen.(s) = Fh.peek_gen payload fh_off in
          if same_gen && chunk < Array.length t.map_sites.(s) then
            to_storage t c pkt cur ~site:(t.map_sites.(s).(chunk) mod n) ~local ~mirrors:1 ~retries
          else begin
            (* Map-fragment miss (including a generation mismatch from
               a recycled file-id): fetch from the coordinator, then
               re-route the absorbed request (the µproxy "interacts
               with the coordinators to fetch and cache fragments of
               the block maps"). Map entries are logical sites. The
               fiber re-peeks the request into the shared cursor when
               it resumes — the cursor holds no state across turns. *)
            t.n_map_fetch <- t.n_map_fetch + 1;
            charge t c `Softstate softstate_cost;
            let span = c.c_span in
            let fh = fh_at payload fh_off in
            after_cpu t c (fun () ->
                Engine.spawn t.eng (fun () ->
                    (match
                       ctrl_call t ~span (Ctrl.Get_map { fh; first_block = 0; count = chunk + 64 })
                     with
                    | Ctrl.Map { sites; _ } when Array.length sites > 0 -> add_map t fid fh.Fh.gen sites
                    | _ ->
                        (* no dynamic map: fall back to static *)
                        add_map t fid fh.Fh.gen
                          (Array.init (chunk + 64) (fun b ->
                               (Routekey.file_site ~nsites:n fh + b) mod n)));
                    let c2 = { c_tot = [| 0.0 |]; c_span = span } in
                    if Codec.peek_call_into t.cur pkt.Packet.payload then
                      route_io t c2 pkt t.cur ~retries))
          end)
    end
  end

(* ---- metadata fast path ----
   The SPECsfs mix is dominated by lookup/getattr/access; each of those
   today costs a directory-server round trip. The µproxy already sees
   every reply, so it can absorb repeats: name entries (including
   negative ones) live in [name_cache] under a TTL lease, and attribute
   entries are served while their slot's lease is live.
   Correctness is write-through invalidation (below) plus the lease
   bounding what another client's unseen mutation can cost us. *)

(* The one client-reply path: the virtual server answers [resp] under
   [xid] to the client at [dst]:[dport] once the packet's CPU is booked,
   and the request's span closes with [outcome]. *)
let answer t (c : cost) ?outcome ~dst ~dport ~xid (resp : Nfs.response) =
  charge t c `Rewrite rewrite_cost;
  let reply = client_reply t ~dst ~dport ~xid resp in
  let span = c.c_span in
  (* two continuations, so the common one does not carry an outcome *)
  match outcome with
  | None -> after_cpu t c (fun () -> Net.dispatch t.net reply; Trace.finish span)
  | Some outcome -> after_cpu t c (fun () -> Net.dispatch t.net reply; Trace.finish ~outcome span)

(* Returns true when the request was answered at the proxy. *)
let try_meta_fast_path t (c : cost) (pkt : Packet.t) (cur : Codec.cursor) =
  let payload = pkt.Packet.payload in
  let now = Engine.now t.eng in
  charge t c `Softstate softstate_cost;
  let fid = Fh.peek_file_id_int payload cur.Codec.c_fh_off in
  let hit resp =
    t.n_meta_hit <- t.n_meta_hit + 1;
    answer t c ~dst:pkt.Packet.src ~dport:pkt.Packet.sport ~xid:cur.Codec.c_xid resp;
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
  | 1 ->
      let s = Slot_lru.find t.attrs fid in
      if s < 0 then miss ()
      else if Slot_lru.lease t.attrs s > now then hit (Ok (Nfs.RGetattr t.attr_val.(s).ca_attr))
      else stale ()
  | 4 ->
      let s = Slot_lru.find t.attrs fid in
      if s < 0 then miss ()
      else if Slot_lru.lease t.attrs s > now && cur.Codec.c_access >= 0 then
        (* the directory server grants the full requested mask (see
           Dirserver's Access handler), so echoing it is faithful *)
        hit (Ok (Nfs.RAccess (cur.Codec.c_access, t.attr_val.(s).ca_attr)))
      else stale ()
  | 3 ->
      if cur.Codec.c_name_len < 0 then miss ()
      else begin
        let s = name_slot t fid payload cur.Codec.c_name_off cur.Codec.c_name_len in
        if s < 0 then miss ()
        else if not (Slot_lru.fresh t.name_cache s ~now) then stale ()
        else
          match t.name_child.(s) with
          | Some child ->
              (* a positive hit must also produce attributes; serve only
                 if the child's attr lease is live too *)
              let a = Slot_lru.find t.attrs (Int64.to_int child.Fh.file_id) in
              if a < 0 then miss ()
              else if Slot_lru.lease t.attrs a > now then
                hit (Ok (Nfs.RLookup (child, t.attr_val.(a).ca_attr)))
              else stale ()
          | None ->
              t.n_meta_neg_hit <- t.n_meta_neg_hit + 1;
              answer t c ~dst:pkt.Packet.src ~dport:pkt.Packet.sport ~xid:cur.Codec.c_xid
                (Error Nfs.ERR_NOENT);
              true
      end
  | _ -> false

(* Write-through invalidation: drop or revoke every cached entry a
   mutating op can falsify, *before* the op is forwarded — a later hit
   can then never contradict the server. Attr entries are revoked (lease
   zeroed) rather than removed so dirty I/O state keeps its write-back;
   entries for a removed file are dropped outright. The epoch bump makes
   in-flight replies from before the mutation unable to repopulate.
   Name-cache surgery is gated on [meta_enabled]: the cache is empty
   otherwise. Names are matched where they sit in the request. *)
let revoke_attr t (fid : int) =
  let s = Slot_lru.find t.attrs fid in
  if s >= 0 then Slot_lru.set_lease t.attrs s neg_infinity

let drop_child t (fid : int) =
  Slot_lru.remove t.attrs fid;
  Slot_lru.remove t.map_cache fid

(* Drop the name entry for [dir_id] and the span, first applying [f] to
   the child it binds, if any. *)
let forget_name t dir_id (b : bytes) off len f =
  let s = name_slot t dir_id b off len in
  if s >= 0 then begin
    (match t.name_child.(s) with Some child -> f t (Int64.to_int child.Fh.file_id) | None -> ());
    Slot_lru.drop t.name_cache s
  end

let ignore_child _ _ = ()

let invalidate_meta t (cur : Codec.cursor) (payload : bytes) =
  let bump () =
    t.meta_epoch <- t.meta_epoch + 1;
    t.n_meta_inval <- t.n_meta_inval + 1
  in
  (* a request without a name matches the empty name *)
  let noff = if cur.Codec.c_name_len < 0 then 0 else cur.Codec.c_name_off in
  let nlen = if cur.Codec.c_name_len < 0 then 0 else cur.Codec.c_name_len in
  let fid = Fh.peek_file_id_int payload cur.Codec.c_fh_off in
  match cur.Codec.c_proc with
  | 2 ->
      (* setattr: attributes change; a truncation also invalidates the
         block map (a re-created file must not route I/O to placement
         decided for the old extent) *)
      revoke_attr t fid;
      if cur.Codec.c_has_set_size then Slot_lru.remove t.map_cache fid;
      bump ()
  | 8 | 9 | 10 ->
      (* create/mkdir/symlink: kill any negative entry under this name;
         the directory's own attrs (mtime, size) change *)
      if meta_enabled t then forget_name t fid payload noff nlen ignore_child;
      revoke_attr t fid;
      bump ()
  | 12 | 13 ->
      (* remove/rmdir: the child is gone for good — drop everything known
         about it (its dirty state has nowhere to go anyway) *)
      if meta_enabled t then forget_name t fid payload noff nlen drop_child;
      revoke_attr t fid;
      bump ()
  | 14 ->
      (* rename: the source name vanishes but the file persists (keep its
         dirty attr state, just revoke the lease — ctime changed); any
         previous destination target is silently deleted *)
      if meta_enabled t then forget_name t fid payload noff nlen revoke_attr;
      if cur.Codec.c_fh2_off >= 0 && cur.Codec.c_name2_len >= 0 then begin
        let fid2 = Fh.peek_file_id_int payload cur.Codec.c_fh2_off in
        if meta_enabled t then
          forget_name t fid2 payload cur.Codec.c_name2_off cur.Codec.c_name2_len drop_child;
        revoke_attr t fid2
      end;
      revoke_attr t fid;
      bump ()
  | 15 ->
      (* link: a new entry appears in dir2; the file's nlink changes *)
      revoke_attr t fid;
      if cur.Codec.c_fh2_off >= 0 then begin
        let fid2 = Fh.peek_file_id_int payload cur.Codec.c_fh2_off in
        if meta_enabled t then forget_name t fid2 payload noff nlen ignore_child;
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
  charge t c `Intercept intercept_cost;
  let cur = t.cur in
  if not (Codec.peek_call_into cur pkt.Packet.payload) then
    (* not an NFS call: the virtual server has nothing else behind it *)
    charge t c `Decode decode_cost_per_item
  else begin
    c.c_span <- Trace.root t.trace ~op:(op_of_proc cur.Codec.c_proc) ~site:(Host.name t.host);
    charge t c `Decode (decode_cost_per_item *. float_of_int cur.Codec.c_items);
    if cur.Codec.c_fh_off < 0 then
      (* NULL: any directory server can answer *)
      to_dir t c pkt cur ~site:0 ~retries
    else
      match cur.Codec.c_proc with
      | 6 | 7 when Fh.peek_ftype_code pkt.Packet.payload cur.Codec.c_fh_off = 1 ->
          route_io t c pkt cur ~retries
      | 21 when Fh.peek_ftype_code pkt.Packet.payload cur.Codec.c_fh_off = 1 ->
          charge t c `Softstate softstate_cost;
          let cm =
            acquire_commit t ~span:c.c_span pkt ~xid:cur.Codec.c_xid ~fh_off:cur.Codec.c_fh_off
          in
          after_cpu t c cm.cm_start
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


let pass_through ?outcome span pkt =
  Trace.finish ?outcome span;
  Some pkt

(* readdir iteration across hash sites: tag each local cookie with its
   site and splice sites together at EOF boundaries, in place in the
   server's reply. Nothing else holds these bytes: a server's request
   table keeps the response and re-encodes it for a retransmission. *)
let translate_readdir t (c : cost) ~rd_site ~span (pkt : Packet.t) =
  let payload = pkt.Packet.payload in
  match Codec.reply_status payload with
  | exception Codec.Malformed _ -> pass_through span pkt
  | Nfs.OK -> (
      match Codec.reply_body payload ~tag:16 with
      | exception Codec.Malformed _ -> pass_through span pkt
      | body when body < 0 -> pass_through span pkt
      | body ->
          charge t c `Decode
            (decode_cost_per_item *. float_of_int (4 + (3 * Codec.readdir_count payload body)));
          let more = rd_site + 1 < Array.length t.dir.map in
          Cksum.adjust_sum pkt (Codec.splice_readdir payload ~body ~site:rd_site ~more);
          charge t c `Rewrite rewrite_cost;
          Cksum.rewrite_src pkt t.tg.virtual_addr;
          after_cpu t c (fun () ->
              Net.dispatch t.net pkt;
              Trace.finish span);
          None)
  | _ -> pass_through ~outcome:"error" span pkt

let patch_reply_attrs t (c : cost) (pd : pending) (pkt : Packet.t) =
  let payload = pkt.Packet.payload in
  let off = Codec.reply_attr_offset_i payload in
  if off >= 0 then begin
    charge t c `Decode (decode_cost_per_item *. 13.0);
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
            (* the box [mtime] now holds, so [now] boxes once *)
            ca.ca_attr.Nfs.ctime <- ca.ca_attr.Nfs.mtime;
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
        patch8 t pkt (off + Codec.attr_size_field_off);
        Codec.put_time_be t.scr8 a.Nfs.atime;
        patch8 t pkt (off + Codec.attr_atime_field_off);
        Codec.put_time_be t.scr8 a.Nfs.mtime;
        patch8 t pkt (off + Codec.attr_mtime_field_off);
        charge t c `Rewrite (3.0 *. rewrite_cost);
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
            charge t c `Rewrite rewrite_cost
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
        let granted = meta_enabled t && pd.p_epoch = t.meta_epoch in
        let rfh_off = Codec.reply_fh_after_attr_off payload in
        if rfh_off >= 0 || pd.p_fh_off >= 0 then begin
          let keyed =
            Int64.to_int (Bytes.get_int64_be payload (off + Codec.attr_fileid_field_off))
          in
          let s = Slot_lru.find t.attrs keyed in
          if s >= 0 then begin
            let ca = t.attr_val.(s) in
            if ca.ca_dirty then begin
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
              patch8 t pkt (off + Codec.attr_size_field_off);
              Codec.put_time_be t.scr8 mtime;
              patch8 t pkt (off + Codec.attr_mtime_field_off);
              charge t c `Rewrite (2.0 *. rewrite_cost);
              t.n_attr_patch <- t.n_attr_patch + 1
            end
            else ca.ca_attr <- Codec.decode_attr_at payload off;
            if granted then Slot_lru.set_lease t.attrs s (now +. t.p.Params.meta_cache_ttl)
          end
          else if meta_enabled t then begin
            (* Creating entries only matters to the metadata fast path;
               with it off, skip the handle/attr decode. *)
            let fh_opt =
              if rfh_off >= 0 then Fh.decode_at payload rfh_off
              else Fh.decode_at pd.p_buf pd.p_fh_off
            in
            match fh_opt with
            | None -> ()
            | Some fh ->
                let ca =
                  { ca_fh = fh; ca_attr = Codec.decode_attr_at payload off; ca_dirty = false }
                in
                add_attr t keyed ca
                  ~lease:(if granted then now +. t.p.Params.meta_cache_ttl else neg_infinity)
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
    let lease = Engine.now t.eng +. t.p.Params.meta_cache_ttl in
    let st = reply_status pkt.Packet.payload in
    match pd.p_proc with
    | (3 | 8 | 9 | 10) when st = 0 ->
        let off = Codec.reply_fh_after_attr_off pkt.Packet.payload in
        if off >= 0 then
          add_name t dir_id pd.p_buf pd.p_name_off pd.p_name_len
            (Some (fh_at pkt.Packet.payload off))
            ~lease
    | 3 when st = Codec.int_of_status Nfs.ERR_NOENT ->
        add_name t dir_id pd.p_buf pd.p_name_off pd.p_name_len None ~lease
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
  charge t c `Intercept intercept_cost;
  charge t c `Softstate softstate_cost;
  t.n_replies <- t.n_replies + 1;
  let st = reply_status pkt.Packet.payload in
  if pd.p_mirror_left > 1 then begin
    (* first mirror ack: wait for the slower replica, but keep the worst
       status seen — acking a write the first replica failed would lose
       data silently. *)
    pd.p_mirror_left <- pd.p_mirror_left - 1;
    if st > 0 then pd.p_worst <- st;
    after_cpu t c (fun () -> ());
    None
  end
  else begin
    (* pending record already unbound by the caller, keyed on xid *)
    if st = 20001 || pd.p_worst = 20001 then begin
      t.n_stale <- t.n_stale + 1;
      (* a bounced storage request may have been routed by a stale block
         map fragment: refetch it on the retry *)
      (match pd.p_klass with
      | KStorage when pd.p_fh_off >= 0 ->
          Slot_lru.remove t.map_cache (Fh.peek_file_id_int pd.p_buf pd.p_fh_off)
      | _ -> ());
      refresh_tables t;
      let moved = tables_version t <> pd.p_tables_v in
      let span = pd.p_span in
      let retries = pd.p_retries in
      let orig = Bytes.sub pd.p_buf 0 pd.p_len in
      let csrc = pkt.Packet.dst and csport = pkt.Packet.dport in
      after_cpu t c (fun () ->
          (* The retry re-enters routing and opens a fresh root: at
             once if the tables moved, else after Rpc's pause, since a
             migration is mid-drain, up to Rpc's budget of transmissions.
             Then the client's own retransmission drives the next. *)
          Trace.finish ~outcome:"bounced" span;
          if moved then retry_misdirected t ~src:csrc ~sport:csport orig
          else if retries < Rpc.attempts - 1 then
            Engine.schedule t.eng (Rpc.pause *. float_of_int (retries + 1)) (fun () ->
                retry_misdirected ~retries:(retries + 1) t ~src:csrc ~sport:csport orig));
      None
    end
    else if pd.p_worst > 0 && st = 0 then begin
      (* Mirrored write: an earlier replica failed but the last one
         succeeded. Forward the failure so the client retries — the
         success reply would hide a half-written mirror pair. *)
      let status =
        try Codec.status_of_int pd.p_worst with Codec.Malformed _ -> Nfs.ERR_IO
      in
      answer t c ~outcome:"mirror_error" ~dst:pkt.Packet.dst ~dport:pkt.Packet.dport
        ~xid:(Codec.xid_of pkt.Packet.payload) (Error status);
      None
    end
    else if pd.p_proc = 16 && t.p.Params.name_policy = Params.Name_hashing then
      translate_readdir t c ~rd_site:pd.p_rd_site ~span:pd.p_span pkt
    else begin
      patch_reply_attrs t c pd pkt;
      learn_name t pd pkt;
      charge t c `Rewrite rewrite_cost;
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
    let slot = Slot_lru.slot t.pending xid in
    if slot < 0 then Some pkt
    else begin
      let pd = t.pool.(slot) in
      let last = pd.p_mirror_left <= 1 in
      if last then begin
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

let install host ?(params = Params.default) ?(seed = 7) ?trace ?qos targets =
  let net = host.Host.net in
  let rec t =
    {
      host;
      net;
      eng = host.Host.eng;
      p = params;
      trace;
      qos;
      tg = targets;
      prng = Prng.create (seed + (host.Host.addr * 7919));
      rpc = Rpc.create net host.Host.addr ~port:rpc_port;
      coord = Option.map (fun _ -> Ctrl.holder targets.coordinator) (targets.coordinator ());
      dir_holder = (fun site -> refresh_tables t; phys t t.dir site);
      sf_holder = (fun site -> refresh_tables t; phys t t.sf site);
      pending = Slot_lru.create ~capacity:max_int;
      pool = [||];
      pool_born = [||];
      attrs = Slot_lru.create ~capacity:attr_cache_capacity;
      attr_val = [||];
      name_cache = Slot_lru.create ~capacity:params.Params.name_cache_capacity;
      name_dir = [||];
      name_str = [||];
      name_child = [||];
      map_cache = Slot_lru.create ~capacity:map_cache_capacity;
      map_gen = [||];
      map_sites = [||];
      (* lint: bounded — one row per file with an open mirrored-write intent; commit closes it *)
      intents_open = Hashtbl.create 16;
      commits = no_commit;
      free_commits = no_commit;
      meta_epoch = 0;
      fence_seen = 0;
      n_fence_inval = 0;
      dir = snap (Some targets.dir_table);
      sf = snap targets.smallfile_table;
      st = snap targets.storage;
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
  t.fence_seen <- combined_epoch t;
  t.sweep_fn <- (fun () -> sweep t);
  Net.add_egress_filter net host.Host.addr (egress_filter t);
  Net.add_ingress_filter net host.Host.addr (ingress_filter t);
  t

let discard_soft_state t =
  Slot_lru.iter t.pending (release_slot t);
  Slot_lru.clear t.attrs;
  Slot_lru.clear t.name_cache;
  Slot_lru.clear t.map_cache;
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
let pending_size t = Slot_lru.count t.pending

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
  let slot = Slot_lru.slot t.pending xid in
  if slot < 0 then None else Some t.pool.(slot).p_tenant
