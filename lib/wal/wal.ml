module Engine = Slice_sim.Engine
module Trace = Slice_trace.Trace
module Enc = Slice_xdr.Xdr.Enc
module Crc32 = Slice_hash.Crc32

let record_magic = 0x57414C52l (* "WALR" *)

(* A site's stable image grows a fixed-size chunk at a time: appending
   never copies what is already there, and a long log holds one chunk of
   slack instead of a doubling buffer's half-empty tail. *)
let chunk_bits = 16
let chunk_size = 1 lsl chunk_bits

type sink =
  | Immediate
  | Disk of Engine.t * Slice_disk.Disk.t

(* One site's records: [len] stable bytes in LSN order (unused chunk
   slots are [Bytes.empty]), then the ones not yet stable. *)
type image = {
  mutable chunks : bytes array;
  mutable len : int;
  mutable pending : Enc.t; (* appended but not yet in a round *)
  mutable spare : Enc.t; (* empty, or the site's part of the round in flight *)
}

type t = {
  sink : sink;
  name : string;
  mutable images : image array; (* by site *)
  mutable unsynced : int; (* pending bytes, over every site *)
  mutable lsn : int64;
  mutable synced : int64;
  mutable floor : int64; (* the last LSN of any image handed in *)
  mutable appended_bytes : int;
  mutable syncs : int;
  mutable sync_inflight : bool;
  mutable gen : int; (* crashes so far *)
  joiners : Engine.queue; (* waiting for the round in flight *)
}

exception Crashed

let empty_image _ = { chunks = [||]; len = 0; pending = Enc.owned 1024; spare = Enc.owned 1024 }

let make name sink =
  {
    sink;
    name;
    images = [||];
    unsynced = 0;
    lsn = 0L;
    synced = 0L;
    floor = 0L;
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
  | Some _, None -> invalid_arg "Wal.create: an engine needs a disk"
  | None, Some _ -> invalid_arg "Wal.create: a disk needs an engine"

let image_of t site =
  let n = Array.length t.images in
  if site >= n then t.images <- Array.append t.images (Array.init (max (site + 1 - n) n) empty_image);
  t.images.(site)

(* Record: magic(4) lsn(8) rtype(4) len(4) payload crc(4); crc covers
   magic..payload. [append_with] writes the header and the payload
   straight into the site's pending area; [seal] then fills in the length
   and stamps the CRC over the bytes where they sit. *)
let put32 b off v =
  Bytes.set_uint16_be b off ((v lsr 16) land 0xFFFF);
  Bytes.set_uint16_be b (off + 2) (v land 0xFFFF)

let[@hot] seal b start len =
  put32 b (start + 16) len;
  put32 b (start + 20 + len) (Crc32.sum b ~pos:start ~len:(20 + len))

let append_with t ~site ~rtype write v =
  (* Read back from the field, the new LSN is boxed once: a let-bound
     [Int64.succ] would be boxed afresh at each of its three uses. *)
  t.lsn <- Int64.succ t.lsn;
  let lsn = t.lsn in
  let e = (image_of t site).pending in
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
  t.unsynced <- t.unsynced + 24 + len;
  lsn

(* ---- stable images ---- *)

let chunk img i =
  if i = Array.length img.chunks then begin
    let a = Array.make (max 4 (2 * i)) Bytes.empty in
    Array.blit img.chunks 0 a 0 i;
    img.chunks <- a
  end;
  let c = img.chunks.(i) in
  if c != Bytes.empty then c
  else begin
    let c = Bytes.create chunk_size in
    img.chunks.(i) <- c;
    c
  end

let rec stable_add img src off n =
  if n > 0 then begin
    let at = img.len land (chunk_size - 1) in
    let take = min n (chunk_size - at) in
    Bytes.blit src off (chunk img (img.len lsr chunk_bits)) at take;
    img.len <- img.len + take;
    stable_add img src (off + take) (n - take)
  end

let start_site img =
  let round = img.pending in
  img.pending <- img.spare;
  img.spare <- round

(* A round takes every site's pending records at once; returns its bytes. *)
let start_round t =
  let bytes = t.unsynced in
  t.unsynced <- 0;
  Array.iter start_site t.images;
  bytes

let harden_site img =
  stable_add img (Enc.buffer img.spare) 0 (Enc.length img.spare);
  Enc.clear img.spare

(* Harden the round, the records up to [lsn], each site's into its own
   image. *)
let harden t lsn =
  Array.iter harden_site t.images;
  if Int64.compare lsn t.synced > 0 then t.synced <- lsn;
  t.syncs <- t.syncs + 1

(* ---- group commit ---- *)

(* Group commit: one fiber leads a round covering everything pending,
   whatever the sites; fibers arriving mid-round wait and (if anything
   new is pending) lead the next round. The joiners resume last parked
   first, and return at once if [target], the last LSN when they came,
   is stable. The round's bytes move to the spare areas for the disk
   write, so appends during the write fill the emptied pending areas. A
   record is stable exactly when [sync] returns to the fiber that
   appended it. [gen] is the crashes before the caller came. A round
   that lands after a crash is not hardened, and a caller parked across
   one, or leading a round the crash dropped, raises [Crashed] unless
   [target] was stable: it runs on when the dropped round's write lands,
   before any later round can harden, so [synced] is still the crash's
   stable prefix. *)
let survive_crash t target = if Int64.compare t.synced target < 0 then raise Crashed

let rec sync_round t eng disk span gen target =
  if t.gen <> gen then survive_crash t target
  else if Int64.compare t.synced target >= 0 then ()
  else if t.sync_inflight then begin
    Engine.wait eng t.joiners;
    sync_round t eng disk span gen target
  end
  else if t.unsynced > 0 then begin
    t.sync_inflight <- true;
    let bytes = start_round t in
    let covered_lsn = t.lsn in
    let sp = Trace.child span ~hop:"wal" ~site:t.name () in
    Slice_disk.Disk.write disk ~span:sp ~sequential:true ~bytes ();
    Trace.finish sp;
    if t.gen = gen then harden t covered_lsn;
    t.sync_inflight <- false;
    Engine.wake_all t.joiners;
    if t.gen <> gen then survive_crash t target
  end

let sync ?(span = Trace.null) t =
  match t.sink with
  | Immediate -> if start_round t > 0 then harden t t.lsn
  | Disk (eng, disk) -> sync_round t eng disk span t.gen t.lsn

let synced_lsn t = t.synced
let bytes_appended t = t.appended_bytes
let sync_count t = t.syncs

(* The stable chunks stay as they are; the pending tail and the round
   in flight (whose writer skips hardening it) are dropped. *)
let crash t =
  Array.iter
    (fun img ->
      Enc.clear img.pending;
      Enc.clear img.spare)
    t.images;
  t.unsynced <- 0;
  t.lsn <- (if Int64.compare t.floor t.synced > 0 then t.floor else t.synced);
  t.gen <- t.gen + 1

let rec settle t ~site =
  let img = image_of t site in
  if Enc.length img.pending > 0 || (t.sync_inflight && Enc.length img.spare > 0) then begin
    sync t;
    settle t ~site
  end

(* The big-endian integer of the [n] stable bytes at [off]: a record
   header may straddle two chunks. *)
let rec stable_int img off n acc =
  if n = 0 then acc
  else
    let b = Bytes.get_uint8 img.chunks.(off lsr chunk_bits) (off land (chunk_size - 1)) in
    stable_int img (off + 1) (n - 1) ((acc lsl 8) lor b)

(* Offset of the first record whose LSN is [from] or more. *)
let rec offset_of img from off =
  if off >= img.len || stable_int img (off + 4) 8 0 >= from then off
  else offset_of img from (off + 24 + stable_int img (off + 16) 4 0)

(* Move [n] stable bytes down from [src] to [dst < src], a chunk piece
   at a time, so no piece is overwritten before it is read. *)
let rec stable_move img ~src ~dst n =
  if n > 0 then begin
    let src_at = src land (chunk_size - 1) and dst_at = dst land (chunk_size - 1) in
    let take = min n (min (chunk_size - src_at) (chunk_size - dst_at)) in
    Bytes.blit img.chunks.(src lsr chunk_bits) src_at img.chunks.(dst lsr chunk_bits) dst_at take;
    stable_move img ~src:(src + take) ~dst:(dst + take) (n - take)
  end

let checkpoint t ~from =
  sync t;
  let from = Int64.to_int from in
  for i = 0 to Array.length t.images - 1 do
    let img = t.images.(i) in
    let cut = offset_of img from 0 in
    stable_move img ~src:cut ~dst:0 (img.len - cut);
    img.len <- img.len - cut
  done

(* LSN of the last record in [img]; 0 when it is empty. *)
let rec last_lsn img off last =
  if off >= img.len then Int64.of_int last
  else last_lsn img (off + 24 + stable_int img (off + 16) 4 0) (stable_int img (off + 4) 8 0)

let hand_over t ~site ~to_ =
  let img = image_of t site and into = image_of to_ site in
  into.chunks <- img.chunks;
  into.len <- img.len;
  img.chunks <- [||];
  img.len <- 0;
  let last = last_lsn into 0 0 in
  if Int64.compare last to_.lsn > 0 then to_.lsn <- last;
  if Int64.compare last to_.floor > 0 then to_.floor <- last

let crash_image t ~site ~keep_unsynced_bytes =
  if keep_unsynced_bytes < 0 then invalid_arg "Wal.crash_image";
  let img = image_of t site in
  let extra = min keep_unsynced_bytes (Enc.length img.pending) in
  let b = Bytes.create (img.len + extra) in
  let rec copy i off =
    if off < img.len then begin
      let n = min chunk_size (img.len - off) in
      Bytes.blit img.chunks.(i) 0 b off n;
      copy (i + 1) (off + n)
    end
  in
  copy 0 0;
  Bytes.blit (Enc.buffer img.pending) 0 b img.len extra;
  Bytes.unsafe_to_string b

let image t ~site = crash_image t ~site ~keep_unsynced_bytes:0

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
