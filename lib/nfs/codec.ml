module Enc = Slice_xdr.Xdr.Enc
module Dec = Slice_xdr.Xdr.Dec

exception Malformed of string

let nfs_program = 100003
let nfs_version = 3

(* ---- primitive helpers ---- *)

(* Handles are written into the encoder and read from the decoder's span
   in place: no intermediate 32-byte string either way. *)
let enc_fh e fh = Enc.opaque_with e Fh.wire_length Fh.write_into fh

let dec_fh d buf =
  Dec.opaque_span d;
  let off = Dec.span_off d in
  if not (Fh.peek_valid buf off (Dec.span_len d)) then raise (Malformed "bad file handle");
  Fh.read_at buf off

let enc_time e (t : Nfs.time) =
  let secs = int_of_float (Float.floor t) in
  let nsecs = int_of_float ((t -. Float.floor t) *. 1e9) in
  Enc.u32 e secs;
  Enc.u32 e (min nsecs 999_999_999)

let dec_time d =
  let secs = Dec.u32 d in
  let nsecs = Dec.u32 d in
  float_of_int secs +. (float_of_int nsecs /. 1e9)

let enc_opt e enc = function
  | None -> Enc.bool e false
  | Some v ->
      Enc.bool e true;
      enc e v

let dec_opt d dec = if Dec.bool d then Some (dec d) else None

let enc_sattr e (s : Nfs.sattr) =
  enc_opt e (fun e v -> Enc.u32 e v) s.set_mode;
  enc_opt e (fun e v -> Enc.u32 e v) s.set_uid;
  enc_opt e (fun e v -> Enc.u32 e v) s.set_gid;
  enc_opt e (fun e v -> Enc.u64 e v) s.set_size;
  enc_opt e enc_time s.set_atime;
  enc_opt e enc_time s.set_mtime

let dec_sattr d : Nfs.sattr =
  let set_mode = dec_opt d Dec.u32 in
  let set_uid = dec_opt d Dec.u32 in
  let set_gid = dec_opt d Dec.u32 in
  let set_size = dec_opt d Dec.u64 in
  let set_atime = dec_opt d dec_time in
  let set_mtime = dec_opt d dec_time in
  { set_mode; set_uid; set_gid; set_size; set_atime; set_mtime }

let enc_wdata e = function
  | Nfs.Data s ->
      Enc.bool e false;
      Enc.opaque e s
  | Nfs.Synthetic n ->
      Enc.bool e true;
      Enc.u32 e n

let dec_wdata d =
  if Dec.bool d then Nfs.Synthetic (Dec.u32 d) else Nfs.Data (Dec.opaque d)

let int_of_stable = function Nfs.Unstable -> 0 | Nfs.Data_sync -> 1 | Nfs.File_sync -> 2

let[@hot] stable_of_int = function
  | 0 -> Nfs.Unstable
  | 1 -> Nfs.Data_sync
  | 2 -> Nfs.File_sync
  | n -> raise (Malformed (Printf.sprintf "bad stable_how %d" n))

let int_of_ftype = function Fh.Reg -> 1 | Fh.Dir -> 2 | Fh.Lnk -> 5

let[@hot] ftype_of_int = function
  | 1 -> Fh.Reg
  | 2 -> Fh.Dir
  | 5 -> Fh.Lnk
  | n -> raise (Malformed (Printf.sprintf "bad ftype %d" n))

(* fattr block: fixed 84-byte layout (offsets documented in the mli). *)
let attr_wire_size = 84
let attr_size_field_off = 20
let attr_fileid_field_off = 52
let attr_atime_field_off = 60
let attr_mtime_field_off = 68

let enc_fattr e (a : Nfs.fattr) =
  Enc.u32 e (int_of_ftype a.ftype);
  Enc.u32 e a.mode;
  Enc.u32 e a.nlink;
  Enc.u32 e a.uid;
  Enc.u32 e a.gid;
  Enc.u64 e a.size;
  Enc.u64 e a.used;
  Enc.u64 e 0L (* rdev *);
  Enc.u64 e 0L (* fsid *);
  Enc.u64 e a.fileid;
  enc_time e a.atime;
  enc_time e a.mtime;
  enc_time e a.ctime

let dec_fattr d : Nfs.fattr =
  let ftype = ftype_of_int (Dec.u32 d) in
  let mode = Dec.u32 d in
  let nlink = Dec.u32 d in
  let uid = Dec.u32 d in
  let gid = Dec.u32 d in
  let size = Dec.u64 d in
  let used = Dec.u64 d in
  let _rdev = Dec.u64 d in
  let _fsid = Dec.u64 d in
  let fileid = Dec.u64 d in
  let atime = dec_time d in
  let mtime = dec_time d in
  let ctime = dec_time d in
  { ftype; mode; nlink; uid; gid; size; used; fileid; atime; mtime; ctime }

(* ---- RPC call header ---- *)

(* AUTH_UNIX credential: stamp, machine name, uid, gid, gid list. The
   variable-length machine name and gid list are what make call headers
   variable-length (the paper's decode-cost culprit). The body is the
   same on every call, so it is encoded once. *)
let machine_name = "slice-client"
let aux_gids = [ 0; 10; 100 ]

let cred_body =
  let e = Enc.create ~size:64 () in
  Enc.u32 e 0 (* stamp *);
  Enc.str e machine_name;
  Enc.u32 e 0 (* uid *);
  Enc.u32 e 0 (* gid *);
  Enc.u32 e (List.length aux_gids);
  List.iter (Enc.u32 e) aux_gids;
  Bytes.unsafe_to_string (Enc.to_bytes e)

let enc_call_header e ~xid ~proc =
  Enc.u32 e xid;
  Enc.u32 e 0 (* CALL *);
  Enc.u32 e 2 (* RPC version *);
  Enc.u32 e nfs_program;
  Enc.u32 e nfs_version;
  Enc.u32 e proc;
  (* cred *)
  Enc.u32 e 1 (* AUTH_UNIX *);
  Enc.opaque e cred_body;
  (* verf *)
  Enc.u32 e 0;
  Enc.u32 e 0

(* Returns (xid, proc) with the decoder positioned at the args. The
   credential and verifier bodies are skipped as spans. *)
let dec_call_header d =
  let xid = Dec.u32 d in
  let mtype = Dec.u32 d in
  if mtype <> 0 then raise (Malformed "not a call");
  let rpcvers = Dec.u32 d in
  if rpcvers <> 2 then raise (Malformed "bad RPC version");
  let prog = Dec.u32 d in
  let vers = Dec.u32 d in
  if prog <> nfs_program || vers <> nfs_version then raise (Malformed "not NFSv3");
  let proc = Dec.u32 d in
  let _cred_flavor = Dec.u32 d in
  Dec.opaque_span d;
  let _verf_flavor = Dec.u32 d in
  Dec.opaque_span d;
  (xid, proc)

(* ---- calls ---- *)

let encode_call ~xid (c : Nfs.call) =
  let e = Enc.create ~size:256 () in
  enc_call_header e ~xid ~proc:(Nfs.proc_of_call c);
  (match c with
  | Null -> ()
  | Getattr fh | Readlink fh | Fsstat fh -> enc_fh e fh
  | Setattr (fh, s) ->
      enc_fh e fh;
      enc_sattr e s
  | Lookup (fh, n) | Create (fh, n) | Mkdir (fh, n) | Remove (fh, n) | Rmdir (fh, n) ->
      enc_fh e fh;
      Enc.str e n
  | Access (fh, m) ->
      enc_fh e fh;
      Enc.u32 e m
  | Read (fh, off, count) ->
      enc_fh e fh;
      Enc.u64 e off;
      Enc.u32 e count
  | Write (fh, off, stable, data) ->
      enc_fh e fh;
      Enc.u64 e off;
      Enc.u32 e (Nfs.wdata_length data);
      Enc.u32 e (int_of_stable stable);
      enc_wdata e data
  | Symlink (fh, n, target) ->
      enc_fh e fh;
      Enc.str e n;
      Enc.str e target
  | Rename (fh1, n1, fh2, n2) ->
      enc_fh e fh1;
      Enc.str e n1;
      enc_fh e fh2;
      Enc.str e n2
  | Link (file, dir, n) ->
      enc_fh e file;
      enc_fh e dir;
      Enc.str e n
  | Readdir (fh, cookie, count) ->
      enc_fh e fh;
      Enc.u64 e cookie;
      Enc.u32 e count
  | Commit (fh, off, count) ->
      enc_fh e fh;
      Enc.u64 e off;
      Enc.u32 e count);
  Enc.to_bytes e

let decode_call buf =
  let d = Dec.of_bytes buf in
  try
    let xid, proc = dec_call_header d in
    let call : Nfs.call =
      match proc with
      | 0 -> Null
      | 1 -> Getattr (dec_fh d buf)
      | 2 ->
          let fh = dec_fh d buf in
          Setattr (fh, dec_sattr d)
      | 3 ->
          let fh = dec_fh d buf in
          Lookup (fh, Dec.str d)
      | 4 ->
          let fh = dec_fh d buf in
          Access (fh, Dec.u32 d)
      | 5 -> Readlink (dec_fh d buf)
      | 6 ->
          let fh = dec_fh d buf in
          let off = Dec.u64 d in
          Read (fh, off, Dec.u32 d)
      | 7 ->
          let fh = dec_fh d buf in
          let off = Dec.u64 d in
          let _count = Dec.u32 d in
          let stable = stable_of_int (Dec.u32 d) in
          Write (fh, off, stable, dec_wdata d)
      | 8 ->
          let fh = dec_fh d buf in
          Create (fh, Dec.str d)
      | 9 ->
          let fh = dec_fh d buf in
          Mkdir (fh, Dec.str d)
      | 10 ->
          let fh = dec_fh d buf in
          let n = Dec.str d in
          Symlink (fh, n, Dec.str d)
      | 12 ->
          let fh = dec_fh d buf in
          Remove (fh, Dec.str d)
      | 13 ->
          let fh = dec_fh d buf in
          Rmdir (fh, Dec.str d)
      | 14 ->
          let fh1 = dec_fh d buf in
          let n1 = Dec.str d in
          let fh2 = dec_fh d buf in
          Rename (fh1, n1, fh2, Dec.str d)
      | 15 ->
          let file = dec_fh d buf in
          let dir = dec_fh d buf in
          Link (file, dir, Dec.str d)
      | 16 ->
          let fh = dec_fh d buf in
          let cookie = Dec.u64 d in
          Readdir (fh, cookie, Dec.u32 d)
      | 18 -> Fsstat (dec_fh d buf)
      | 21 ->
          let fh = dec_fh d buf in
          let off = Dec.u64 d in
          Commit (fh, off, Dec.u32 d)
      | n -> raise (Malformed (Printf.sprintf "unsupported proc %d" n))
    in
    (xid, call)
  with Slice_xdr.Xdr.Truncated -> raise (Malformed "truncated call")

let extra_size_of_call = function
  | Nfs.Write (_, _, _, Nfs.Synthetic n) -> n
  | _ -> 0

(* ---- replies ---- *)

(* Header: xid(4) mtype(4) reply_stat(4) verf(8) accept_stat(4) = 24 bytes,
   then status(4); an OK reply carrying attributes has attr_present(4) at
   28 and the fattr block at 32. *)
let reply_status_off = 24
let reply_attr_present_off = 28
let reply_attr_block_off = 32

let[@hot] int_of_status : Nfs.status -> int = function
  | OK -> 0
  | ERR_PERM -> 1
  | ERR_NOENT -> 2
  | ERR_IO -> 5
  | ERR_EXIST -> 17
  | ERR_NOTDIR -> 20
  | ERR_ISDIR -> 21
  | ERR_NOSPC -> 28
  | ERR_NOTEMPTY -> 66
  | ERR_STALE -> 70
  | ERR_BADHANDLE -> 10001
  | ERR_JUKEBOX -> 10008
  | ERR_MISDIRECTED -> 20001

let status_of_int : int -> Nfs.status = function
  | 0 -> OK
  | 1 -> ERR_PERM
  | 2 -> ERR_NOENT
  | 5 -> ERR_IO
  | 17 -> ERR_EXIST
  | 20 -> ERR_NOTDIR
  | 21 -> ERR_ISDIR
  | 28 -> ERR_NOSPC
  | 66 -> ERR_NOTEMPTY
  | 70 -> ERR_STALE
  | 10001 -> ERR_BADHANDLE
  | 10008 -> ERR_JUKEBOX
  | 20001 -> ERR_MISDIRECTED
  | n -> raise (Malformed (Printf.sprintf "bad status %d" n))

let enc_reply_header e ~xid =
  Enc.u32 e xid;
  Enc.u32 e 1 (* REPLY *);
  Enc.u32 e 0 (* MSG_ACCEPTED *);
  Enc.u32 e 0 (* verf flavor *);
  Enc.u32 e 0 (* verf length *);
  Enc.u32 e 0 (* SUCCESS *)

let[@hot] reply_tag : Nfs.reply -> int = function
  | RNull -> 0
  | RGetattr _ -> 1
  | RSetattr _ -> 2
  | RLookup _ -> 3
  | RAccess _ -> 4
  | RReadlink _ -> 5
  | RRead _ -> 6
  | RWrite _ -> 7
  | RCreate _ -> 8
  | RMkdir _ -> 9
  | RSymlink _ -> 10
  | RRemove -> 12
  | RRmdir -> 13
  | RRename -> 14
  | RLink _ -> 15
  | RReaddir _ -> 16
  | RFsstat _ -> 18
  | RCommit _ -> 21

let encode_reply ~xid (r : Nfs.response) =
  let e = Enc.create ~size:256 () in
  enc_reply_header e ~xid;
  (match r with
  | Error st -> Enc.u32 e (int_of_status st)
  | Ok reply -> (
      Enc.u32 e 0 (* NFS3_OK, at reply_status_off *);
      (* attr_present + fattr at fixed offsets, enabling in-flight patch *)
      (match Nfs.reply_attr reply with
      | Some a ->
          Enc.u32 e 1;
          enc_fattr e a
      | None -> Enc.u32 e 0);
      Enc.u32 e (reply_tag reply);
      match reply with
      | RNull | RRemove | RRmdir | RRename -> ()
      | RGetattr _ | RSetattr _ | RLink _ | RCommit _ -> ()
      | RLookup (fh, _) | RCreate (fh, _) | RMkdir (fh, _) | RSymlink (fh, _) -> enc_fh e fh
      | RAccess (m, _) -> Enc.u32 e m
      | RReadlink (target, _) -> Enc.str e target
      | RRead (data, eof, _) ->
          Enc.u32 e (Nfs.wdata_length data);
          Enc.bool e eof;
          enc_wdata e data
      | RWrite (count, stable, _) ->
          Enc.u32 e count;
          Enc.u32 e (int_of_stable stable)
      | RReaddir (entries, cookie, eof) ->
          Enc.u32 e (List.length entries);
          List.iter
            (fun (en : Nfs.entry) ->
              Enc.u64 e en.entry_id;
              Enc.str e en.entry_name;
              Enc.u64 e en.entry_cookie)
            entries;
          Enc.u64 e cookie;
          Enc.bool e eof
      | RFsstat fs ->
          Enc.u64 e fs.total_bytes;
          Enc.u64 e fs.free_bytes;
          Enc.u64 e fs.total_files;
          Enc.u64 e fs.free_files));
  Enc.to_bytes e

let decode_reply buf =
  let d = Dec.of_bytes buf in
  try
    let xid = Dec.u32 d in
    let mtype = Dec.u32 d in
    if mtype <> 1 then raise (Malformed "not a reply");
    let _reply_stat = Dec.u32 d in
    let _verf_flavor = Dec.u32 d in
    let _verf_len = Dec.u32 d in
    let _accept_stat = Dec.u32 d in
    let status = status_of_int (Dec.u32 d) in
    match status with
    | OK ->
        let attr = if Dec.bool d then Some (dec_fattr d) else None in
        let need_attr label =
          match attr with
          | Some a -> a
          | None -> raise (Malformed (label ^ ": missing attributes"))
        in
        let tag = Dec.u32 d in
        let reply : Nfs.reply =
          match tag with
          | 0 -> RNull
          | 1 -> RGetattr (need_attr "getattr")
          | 2 -> RSetattr (need_attr "setattr")
          | 3 -> RLookup (dec_fh d buf, need_attr "lookup")
          | 4 -> RAccess (Dec.u32 d, need_attr "access")
          | 5 -> RReadlink (Dec.str d, need_attr "readlink")
          | 6 ->
              let _count = Dec.u32 d in
              let eof = Dec.bool d in
              RRead (dec_wdata d, eof, need_attr "read")
          | 7 ->
              let count = Dec.u32 d in
              RWrite (count, stable_of_int (Dec.u32 d), need_attr "write")
          | 8 -> RCreate (dec_fh d buf, need_attr "create")
          | 9 -> RMkdir (dec_fh d buf, need_attr "mkdir")
          | 10 -> RSymlink (dec_fh d buf, need_attr "symlink")
          | 12 -> RRemove
          | 13 -> RRmdir
          | 14 -> RRename
          | 15 -> RLink (need_attr "link")
          | 16 ->
              let n = Dec.u32 d in
              let entries =
                List.init n (fun _ ->
                    let entry_id = Dec.u64 d in
                    let entry_name = Dec.str d in
                    let entry_cookie = Dec.u64 d in
                    ({ entry_id; entry_name; entry_cookie } : Nfs.entry))
              in
              let cookie = Dec.u64 d in
              RReaddir (entries, cookie, Dec.bool d)
          | 18 ->
              let total_bytes = Dec.u64 d in
              let free_bytes = Dec.u64 d in
              let total_files = Dec.u64 d in
              RFsstat { total_bytes; free_bytes; total_files; free_files = Dec.u64 d }
          | 21 -> RCommit (need_attr "commit")
          | n -> raise (Malformed (Printf.sprintf "bad reply tag %d" n))
        in
        (xid, Ok reply)
    | st -> (xid, Error st)
  with Slice_xdr.Xdr.Truncated -> raise (Malformed "truncated reply")

let extra_size_of_response = function
  | Ok (Nfs.RRead (Nfs.Synthetic n, _, _)) -> n
  | _ -> 0

(* ---- µproxy partial decode: the cursor peek ----

   One long-lived cursor per µproxy instance; [peek_call_into] re-reads
   it from a packet buffer, recording field positions instead of
   materializing handles and names. Absent fields are -1 (offsets/counts)
   — the record is all-mutable and reset on every call, so steady-state
   interception allocates nothing. [c_items] counts the XDR items walked
   (header, credential, routed arguments); it drives the decode cost
   model, so every simulated timing depends on it. *)

type cursor = {
  cr : Dec.t;
  mutable c_xid : int;
  mutable c_proc : int;
  mutable c_fh_off : int;  (* span offset of the first handle, -1 = none *)
  mutable c_fh2_off : int;
  mutable c_name_off : int;
  mutable c_name_len : int;  (* -1 = none *)
  mutable c_name2_off : int;
  mutable c_name2_len : int;
  mutable c_offset : int;  (* valid iff c_off_field >= 0 *)
  mutable c_off_field : int;
  mutable c_count : int;  (* -1 = none *)
  mutable c_stable : int;  (* wire stable_how, -1 = none *)
  mutable c_has_set_size : bool;
  mutable c_set_size : int;  (* valid iff c_has_set_size *)
  mutable c_access : int;  (* -1 = none *)
  mutable c_items : int;
}

let cursor () =
  {
    cr = Dec.of_bytes (Bytes.create 0);
    c_xid = 0;
    c_proc = -1;
    c_fh_off = -1;
    c_fh2_off = -1;
    c_name_off = -1;
    c_name_len = -1;
    c_name2_off = -1;
    c_name2_len = -1;
    c_offset = 0;
    c_off_field = -1;
    c_count = -1;
    c_stable = -1;
    c_has_set_size = false;
    c_set_size = 0;
    c_access = -1;
    c_items = 0;
  }

exception Bad_peek

(* Consume a handle-sized opaque and validate it in place. *)
let[@hot] cur_fh d buf =
  Dec.opaque_span d;
  let off = Dec.span_off d in
  if not (Fh.peek_valid buf off (Dec.span_len d)) then raise Bad_peek;
  off

(* sattr walk mirroring [dec_sattr]: same item counts (times read as two
   u32 words each, like [dec_time]), only the size field retained. *)
let[@hot] cur_sattr c d =
  if Dec.bool d then ignore (Dec.u32 d);
  if Dec.bool d then ignore (Dec.u32 d);
  if Dec.bool d then ignore (Dec.u32 d);
  (if Dec.bool d then begin
     c.c_has_set_size <- true;
     c.c_set_size <- Dec.u64_int d
   end);
  (if Dec.bool d then begin
     ignore (Dec.u32 d);
     ignore (Dec.u32 d)
   end);
  if Dec.bool d then begin
    ignore (Dec.u32 d);
    ignore (Dec.u32 d)
  end

let[@hot] peek_call_into c buf =
  let d = c.cr in
  Dec.reset d buf ~pos:0 ~len:(Bytes.length buf);
  c.c_fh_off <- -1;
  c.c_fh2_off <- -1;
  c.c_name_off <- -1;
  c.c_name_len <- -1;
  c.c_name2_off <- -1;
  c.c_name2_len <- -1;
  c.c_offset <- 0;
  c.c_off_field <- -1;
  c.c_count <- -1;
  c.c_stable <- -1;
  c.c_has_set_size <- false;
  c.c_set_size <- 0;
  c.c_access <- -1;
  c.c_items <- 0;
  try
    c.c_xid <- Dec.u32 d;
    if Dec.u32 d <> 0 then raise Bad_peek;
    if Dec.u32 d <> 2 then raise Bad_peek;
    if Dec.u32 d <> nfs_program then raise Bad_peek;
    if Dec.u32 d <> nfs_version then raise Bad_peek;
    let proc = Dec.u32 d in
    c.c_proc <- proc;
    ignore (Dec.u32 d) (* cred flavor *);
    Dec.opaque_span d (* cred body stays in place: no per-packet string *);
    ignore (Dec.u32 d) (* verf flavor *);
    Dec.opaque_span d;
    (match proc with
    | 0 -> ()
    | 1 | 5 | 18 -> c.c_fh_off <- cur_fh d buf
    | 2 ->
        c.c_fh_off <- cur_fh d buf;
        cur_sattr c d
    | 3 | 8 | 9 | 10 | 12 | 13 ->
        c.c_fh_off <- cur_fh d buf;
        Dec.opaque_span d;
        c.c_name_off <- Dec.span_off d;
        c.c_name_len <- Dec.span_len d
    | 4 ->
        c.c_fh_off <- cur_fh d buf;
        c.c_access <- Dec.u32 d
    | 6 ->
        c.c_fh_off <- cur_fh d buf;
        c.c_off_field <- Dec.pos d;
        c.c_offset <- Dec.u64_int d;
        c.c_count <- Dec.u32 d
    | 7 ->
        c.c_fh_off <- cur_fh d buf;
        c.c_off_field <- Dec.pos d;
        c.c_offset <- Dec.u64_int d;
        c.c_count <- Dec.u32 d;
        let stable = Dec.u32 d in
        if stable > 2 then raise Bad_peek;
        c.c_stable <- stable
    | 14 ->
        c.c_fh_off <- cur_fh d buf;
        Dec.opaque_span d;
        c.c_name_off <- Dec.span_off d;
        c.c_name_len <- Dec.span_len d;
        c.c_fh2_off <- cur_fh d buf;
        Dec.opaque_span d;
        c.c_name2_off <- Dec.span_off d;
        c.c_name2_len <- Dec.span_len d
    | 15 ->
        c.c_fh_off <- cur_fh d buf;
        c.c_fh2_off <- cur_fh d buf;
        Dec.opaque_span d;
        c.c_name_off <- Dec.span_off d;
        c.c_name_len <- Dec.span_len d
    | 16 | 21 ->
        c.c_fh_off <- cur_fh d buf;
        c.c_off_field <- Dec.pos d;
        c.c_offset <- Dec.u64_int d;
        c.c_count <- Dec.u32 d
    | _ -> raise Bad_peek);
    c.c_items <- Dec.items_read d;
    true
  with Slice_xdr.Xdr.Truncated | Bad_peek -> false

let[@hot] is_call buf =
  Bytes.length buf >= 8 && Int32.to_int (Bytes.get_int32_be buf 4) = 0

let[@hot] xid_of buf =
  if Bytes.length buf < 4 then raise (Malformed "short packet");
  Int32.to_int (Bytes.get_int32_be buf 0) land 0xFFFFFFFF

(* ---- reply attribute patching ---- *)

(* Byte offset of the post-op attribute block in an OK reply carrying
   one, -1 when absent: constant-time header inspection. *)
let[@hot] reply_attr_offset_i buf =
  if Bytes.length buf < reply_attr_block_off then -1
  else if Int32.to_int (Bytes.get_int32_be buf 4) <> 1 then -1
  else if Int32.to_int (Bytes.get_int32_be buf reply_status_off) <> 0 then -1
  else if Int32.to_int (Bytes.get_int32_be buf reply_attr_present_off) <> 1 then -1
  else reply_attr_block_off

let decode_attr_at buf off =
  let d = Dec.of_bytes ~pos:off buf in
  try dec_fattr d with Slice_xdr.Xdr.Truncated -> raise (Malformed "truncated attr")

(* Scratch renderings: the µproxy writes patch values into a reused
   8-byte scratch and splices with [Cksum.patch_payload_bytes]. Single
   byte stores keep the int path free of boxed int32/int64. *)
let[@hot] put_u64_be b v =
  for j = 0 to 7 do
    Bytes.set_uint8 b j ((v lsr (8 * (7 - j))) land 0xFF)
  done

(* Not a lint root: the static model charges the local float chain (the
   compiler unboxes it; the runtime Gc probes confirm zero allocation). *)
let put_time_be b t =
  let secs = int_of_float (Float.floor t) in
  let nsecs = int_of_float ((t -. Float.floor t) *. 1e9) in
  let ns = if nsecs > 999_999_999 then 999_999_999 else nsecs in
  for j = 0 to 3 do
    Bytes.set_uint8 b j ((secs lsr (8 * (3 - j))) land 0xFF);
    Bytes.set_uint8 b (4 + j) ((ns lsr (8 * (3 - j))) land 0xFF)
  done

(* For replies whose body leads with a file handle (lookup/create/mkdir/
   symlink): the handle's span offset, without a full decode; -1 means
   absent. *)
let[@hot] reply_fh_after_attr_off buf =
  let off = reply_attr_offset_i buf in
  if off < 0 then -1
  else begin
    let tag_off = off + attr_wire_size in
    if Bytes.length buf < tag_off + 8 then -1
    else
      let tag = Int32.to_int (Bytes.get_int32_be buf tag_off) in
      if tag = 3 || tag = 8 || tag = 9 || tag = 10 then begin
        let len = Int32.to_int (Bytes.get_int32_be buf (tag_off + 4)) land 0xFFFFFFFF in
        let fh_off = tag_off + 8 in
        if fh_off + len <= Bytes.length buf && Fh.peek_valid buf fh_off len then fh_off else -1
      end
      else -1
  end
