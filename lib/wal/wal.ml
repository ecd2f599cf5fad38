module Engine = Slice_sim.Engine
module Trace = Slice_trace.Trace

let record_magic = 0x57414C52l (* "WALR" *)

type sink =
  | Immediate
  | Disk of Engine.t * Slice_disk.Disk.t
  | Fn of Engine.t * (int -> unit)

type t = {
  sink : sink;
  name : string;
  stable : Buffer.t; (* synced image *)
  pending : Buffer.t; (* appended but not yet synced *)
  mutable lsn : int64;
  mutable synced : int64;
  mutable appended_bytes : int;
  mutable syncs : int;
  mutable sync_inflight : bool;
  mutable sync_waiters : (unit -> unit) list;
}

let make name sink =
  {
    sink;
    name;
    stable = Buffer.create 4096;
    pending = Buffer.create 1024;
    lsn = 0L;
    synced = 0L;
    appended_bytes = 0;
    syncs = 0;
    sync_inflight = false;
    sync_waiters = [];
  }

let create ?eng ?disk ?sync_fn ~name () =
  match (eng, disk, sync_fn) with
  | Some eng, Some disk, None -> make name (Disk (eng, disk))
  | Some eng, None, Some fn -> make name (Fn (eng, fn))
  | None, None, None -> make name Immediate
  | Some _, None, None ->
      (* Silently dropping the engine here used to skip group commit
         entirely — an engine only makes sense with a sink to drive. *)
      invalid_arg "Wal.create: an engine needs a disk or a sync_fn"
  | _ -> invalid_arg "Wal.create: give a disk or a sync_fn, not both"

(* Record: magic(4) lsn(8) rtype(4) len(4) payload crc(4); crc covers
   magic..payload. *)
let encode_record ~lsn ~rtype payload =
  let len = String.length payload in
  let b = Bytes.create (24 + len) in
  Bytes.set_int32_be b 0 record_magic;
  Bytes.set_int64_be b 4 lsn;
  Bytes.set_int32_be b 12 (Int32.of_int rtype);
  Bytes.set_int32_be b 16 (Int32.of_int len);
  Bytes.blit_string payload 0 b 20 len;
  let crc = Slice_hash.Crc32.bytes b ~pos:0 ~len:(20 + len) in
  Bytes.set_int32_be b (20 + len) crc;
  Bytes.unsafe_to_string b

let append t ~rtype payload =
  t.lsn <- Int64.add t.lsn 1L;
  let rec_bytes = encode_record ~lsn:t.lsn ~rtype payload in
  Buffer.add_string t.pending rec_bytes;
  t.appended_bytes <- t.appended_bytes + String.length rec_bytes;
  t.lsn

let wait_round t eng =
  Engine.suspend (fun wake ->
      ignore eng;
      t.sync_waiters <- (fun () -> wake ()) :: t.sync_waiters)

let wake_waiters t =
  let ws = t.sync_waiters in
  t.sync_waiters <- [];
  List.iter (fun w -> w ()) ws

(* Group commit: one fiber leads a round covering everything pending;
   fibers arriving mid-round wait and (if anything new is pending) lead
   the next round. A record is stable exactly when [sync] returns to the
   fiber that appended it. *)
let rec sync ?(span = Trace.null) t =
  match t.sink with
  | Immediate ->
      if Buffer.length t.pending > 0 then begin
        Buffer.add_buffer t.stable t.pending;
        Buffer.clear t.pending;
        t.synced <- t.lsn;
        t.syncs <- t.syncs + 1
      end
  | Disk (eng, disk) ->
      sync_round t eng span (fun sp n ->
          Slice_disk.Disk.write disk ~span:sp ~sequential:true ~bytes:n ())
  | Fn (eng, fn) -> sync_round t eng span (fun _sp n -> fn n)

and sync_round t eng span write =
  if t.sync_inflight then begin
    wait_round t eng;
    sync ~span t
  end
  else if Buffer.length t.pending > 0 then begin
    t.sync_inflight <- true;
    let data = Buffer.contents t.pending in
    let covered_lsn = t.lsn in
    Buffer.clear t.pending;
    let sp = Trace.child span ~hop:"wal" ~site:t.name () in
    write sp (String.length data);
    Trace.finish sp;
    Buffer.add_string t.stable data;
    if Int64.compare covered_lsn t.synced > 0 then t.synced <- covered_lsn;
    t.syncs <- t.syncs + 1;
    t.sync_inflight <- false;
    wake_waiters t
  end

let synced_lsn t = t.synced
let bytes_appended t = t.appended_bytes
let sync_count t = t.syncs

let checkpoint t =
  Buffer.clear t.stable;
  Buffer.clear t.pending;
  t.synced <- t.lsn

let image t = Buffer.contents t.stable

let crash_image t ~keep_unsynced_bytes =
  let unsynced = Buffer.contents t.pending in
  let keep = min keep_unsynced_bytes (String.length unsynced) in
  Buffer.contents t.stable ^ String.sub unsynced 0 keep

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
        if Slice_hash.Crc32.bytes buf ~pos ~len:(20 + len) <> crc then count
        else begin
          let payload = Bytes.sub_string buf (pos + 20) len in
          f ~lsn ~rtype payload;
          loop (pos + 24 + len) (count + 1)
        end
      end
    end
  in
  loop 0 0
