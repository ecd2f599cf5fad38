module Engine = Slice_sim.Engine
module Trace = Slice_trace.Trace
module Enc = Slice_xdr.Xdr.Enc
module Crc32 = Slice_hash.Crc32

let record_magic = 0x57414C52l (* "WALR" *)

(* The stable image grows a fixed-size chunk at a time: appending never
   copies what is already there, and a long log holds one chunk of slack
   instead of a doubling buffer's half-empty tail. *)
let chunk_bits = 16
let chunk_size = 1 lsl chunk_bits

type sink =
  | Immediate
  | Disk of Engine.t * Slice_disk.Disk.t

type t = {
  sink : sink;
  name : string;
  mutable chunks : bytes array; (* stable image; unused slots are [Bytes.empty] *)
  mutable stable_len : int;
  mutable pending : Enc.t; (* appended but not yet in a round *)
  mutable spare : Enc.t; (* empty, or the bytes of the round in flight *)
  mutable lsn : int64;
  mutable synced : int64;
  mutable appended_bytes : int;
  mutable syncs : int;
  mutable sync_inflight : bool;
  mutable gen : int; (* crashes so far *)
  joiners : Engine.queue; (* waiting for the round in flight *)
}

exception Crashed

let make name sink =
  {
    sink;
    name;
    chunks = [||];
    stable_len = 0;
    pending = Enc.owned 1024;
    spare = Enc.owned 1024;
    lsn = 0L;
    synced = 0L;
    appended_bytes = 0;
    syncs = 0;
    sync_inflight = false;
    gen = 0;
    joiners = Engine.queue ();
  }

let create ?eng ?disk ~name () =
  match (eng, disk) with
  | Some eng, Some disk -> make name (Disk (eng, disk))
  | None, None -> make name Immediate
  | Some _, None ->
      (* Silently dropping the engine here used to skip group commit
         entirely — an engine only makes sense with a disk to drive. *)
      invalid_arg "Wal.create: an engine needs a disk"
  | None, Some _ -> invalid_arg "Wal.create: a disk needs an engine"

(* Record: magic(4) lsn(8) rtype(4) len(4) payload crc(4); crc covers
   magic..payload. [append_with] writes the header and the payload
   straight into the pending area; [seal] then fills in the length and
   stamps the CRC over the bytes where they sit. *)
let put32 b off v =
  Bytes.set_uint16_be b off ((v lsr 16) land 0xFFFF);
  Bytes.set_uint16_be b (off + 2) (v land 0xFFFF)

let[@hot] seal b start len =
  put32 b (start + 16) len;
  put32 b (start + 20 + len) (Crc32.sum b ~pos:start ~len:(20 + len))

let append_with t ~rtype write v =
  (* Read back from the field, the new LSN is boxed once: a let-bound
     [Int64.succ] would be boxed afresh at each of its three uses. *)
  t.lsn <- Int64.succ t.lsn;
  let lsn = t.lsn in
  let e = t.pending in
  let start = Enc.length e in
  Enc.u32 e (Int32.to_int record_magic);
  Enc.u64 e lsn;
  Enc.u32 e rtype;
  Enc.u32 e 0 (* length, stamped by [seal] *);
  write e v;
  let len = Enc.length e - start - 20 in
  Enc.u32 e 0 (* CRC, stamped by [seal] *);
  seal (Enc.buffer e) start len;
  t.appended_bytes <- t.appended_bytes + 24 + len;
  lsn

let append t ~rtype payload = append_with t ~rtype Enc.raw payload

(* ---- stable image ---- *)

let chunk t i =
  if i = Array.length t.chunks then begin
    let a = Array.make (max 4 (2 * i)) Bytes.empty in
    Array.blit t.chunks 0 a 0 i;
    t.chunks <- a
  end;
  let c = t.chunks.(i) in
  if c != Bytes.empty then c
  else begin
    let c = Bytes.create chunk_size in
    t.chunks.(i) <- c;
    c
  end

let rec stable_add t src off n =
  if n > 0 then begin
    let at = t.stable_len land (chunk_size - 1) in
    let take = min n (chunk_size - at) in
    Bytes.blit src off (chunk t (t.stable_len lsr chunk_bits)) at take;
    t.stable_len <- t.stable_len + take;
    stable_add t src (off + take) (n - take)
  end

(* Harden one encoder's contents, the records up to [lsn], and empty it
   for reuse. *)
let harden t e lsn =
  stable_add t (Enc.buffer e) 0 (Enc.length e);
  Enc.clear e;
  if Int64.compare lsn t.synced > 0 then t.synced <- lsn;
  t.syncs <- t.syncs + 1

(* ---- group commit ---- *)

(* Group commit: one fiber leads a round covering everything pending;
   fibers arriving mid-round wait and (if anything new is pending) lead
   the next round. The joiners resume last parked first, and return at
   once if [target], the last LSN when they came, is stable. The round's
   bytes move to the spare area for the disk write, so appends during
   the write fill the emptied pending area. A record is stable exactly
   when [sync] returns to the fiber that appended it. [gen] is the
   crashes before the caller came. A round that lands after a crash is
   not hardened, and a caller parked across one, or leading a round the
   crash dropped, raises [Crashed] unless [target] was stable: it runs
   on when the dropped round's write lands, before any later round can
   harden, so [synced] is still the crash's stable prefix. *)
let survive_crash t target = if Int64.compare t.synced target < 0 then raise Crashed

let rec sync_round t eng disk span gen target =
  if t.gen <> gen then survive_crash t target
  else if Int64.compare t.synced target >= 0 then ()
  else if t.sync_inflight then begin
    Engine.wait eng t.joiners;
    sync_round t eng disk span gen target
  end
  else if Enc.length t.pending > 0 then begin
    t.sync_inflight <- true;
    let round = t.pending in
    t.pending <- t.spare;
    t.spare <- round;
    let covered_lsn = t.lsn in
    let sp = Trace.child span ~hop:"wal" ~site:t.name () in
    Slice_disk.Disk.write disk ~span:sp ~sequential:true ~bytes:(Enc.length round) ();
    Trace.finish sp;
    if t.gen = gen then harden t round covered_lsn;
    t.sync_inflight <- false;
    Engine.wake_all t.joiners;
    if t.gen <> gen then survive_crash t target
  end

let sync ?(span = Trace.null) t =
  match t.sink with
  | Immediate -> if Enc.length t.pending > 0 then harden t t.pending t.lsn
  | Disk (eng, disk) -> sync_round t eng disk span t.gen t.lsn

let synced_lsn t = t.synced
let bytes_appended t = t.appended_bytes
let sync_count t = t.syncs

(* The stable chunks stay as they are; the pending tail and the round
   in flight (whose writer skips hardening it) are dropped. *)
let crash t =
  Enc.clear t.pending;
  Enc.clear t.spare;
  t.lsn <- t.synced;
  t.gen <- t.gen + 1

(* The big-endian integer of the [n] stable bytes at [off]: a record
   header may straddle two chunks. *)
let rec stable_int t off n acc =
  if n = 0 then acc
  else
    let b = Bytes.get_uint8 t.chunks.(off lsr chunk_bits) (off land (chunk_size - 1)) in
    stable_int t (off + 1) (n - 1) ((acc lsl 8) lor b)

(* Offset of the first stable record whose LSN is [from] or more. *)
let rec offset_of t from off =
  if off >= t.stable_len || stable_int t (off + 4) 8 0 >= from then off
  else offset_of t from (off + 24 + stable_int t (off + 16) 4 0)

(* Move [n] stable bytes down from [src] to [dst < src], a chunk piece
   at a time, so no piece is overwritten before it is read. *)
let rec stable_move t ~src ~dst n =
  if n > 0 then begin
    let src_at = src land (chunk_size - 1) and dst_at = dst land (chunk_size - 1) in
    let take = min n (min (chunk_size - src_at) (chunk_size - dst_at)) in
    Bytes.blit t.chunks.(src lsr chunk_bits) src_at t.chunks.(dst lsr chunk_bits) dst_at take;
    stable_move t ~src:(src + take) ~dst:(dst + take) (n - take)
  end

let checkpoint t ~from =
  sync t;
  let cut = offset_of t (Int64.to_int from) 0 in
  stable_move t ~src:cut ~dst:0 (t.stable_len - cut);
  t.stable_len <- t.stable_len - cut

(* The stable image followed by [extra] bytes of the pending area. *)
let snapshot t extra =
  let b = Bytes.create (t.stable_len + extra) in
  let rec copy i off =
    if off < t.stable_len then begin
      let n = min chunk_size (t.stable_len - off) in
      Bytes.blit t.chunks.(i) 0 b off n;
      copy (i + 1) (off + n)
    end
  in
  copy 0 0;
  Bytes.blit (Enc.buffer t.pending) 0 b t.stable_len extra;
  Bytes.unsafe_to_string b

let image t = snapshot t 0

let crash_image t ~keep_unsynced_bytes =
  if keep_unsynced_bytes < 0 then invalid_arg "Wal.crash_image";
  snapshot t (min keep_unsynced_bytes (Enc.length t.pending))

let replay img f =
  let buf = Bytes.unsafe_of_string img in
  let total = Bytes.length buf in
  let rec loop pos count =
    if pos + 24 > total then count
    else if Bytes.get_int32_be buf pos <> record_magic then count
    else begin
      let lsn = Bytes.get_int64_be buf (pos + 4) in
      let rtype = Int32.to_int (Bytes.get_int32_be buf (pos + 12)) in
      let len = Int32.to_int (Bytes.get_int32_be buf (pos + 16)) in
      if len < 0 || pos + 24 + len > total then count
      else begin
        let crc = Bytes.get_int32_be buf (pos + 20 + len) in
        if Crc32.bytes buf ~pos ~len:(20 + len) <> crc then count
        else begin
          let payload = Bytes.sub_string buf (pos + 20) len in
          f ~lsn ~rtype payload;
          loop (pos + 24 + len) (count + 1)
        end
      end
    end
  in
  loop 0 0
