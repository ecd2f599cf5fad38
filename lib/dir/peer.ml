module Enc = Slice_xdr.Xdr.Enc
module Dec = Slice_xdr.Xdr.Dec
module Fh = Slice_nfs.Fh
module Nfs = Slice_nfs.Nfs
module Codec = Slice_nfs.Codec

(* Wire tags 2, 6 and 7 (messages) and 3 (reply) belonged to retired
   messages and are not reused. *)
type msg =
  | Getattr of Fh.t
  | Nlink of { op_id : int64; fh : Fh.t; delta : int }
  | Entry_count of { op_id : int64; dir : Fh.t; delta : int; mtime : float }
  | Add_entry of { op_id : int64; dir : Fh.t; name : string; child : Fh.t }

type reply = Ack | Rattr of Nfs.fattr | Rerr of Nfs.status

let port = 2051

let enc_i e v = Enc.u32 e (v land 0xFFFFFFFF)

let dec_i d =
  let v = Dec.u32 d in
  (* sign-extend deltas encoded as u32 *)
  if v land 0x80000000 <> 0 then v - (1 lsl 32) else v

let enc_attr e (a : Nfs.fattr) =
  Enc.u32 e (Codec.int_of_ftype a.ftype);
  Enc.u32 e a.mode;
  Enc.u32 e a.nlink;
  Enc.u32 e a.uid;
  Enc.u32 e a.gid;
  Enc.u64 e a.size;
  Enc.u64 e a.used;
  Enc.u64 e a.fileid;
  Codec.enc_time e a.atime;
  Codec.enc_time e a.mtime;
  Codec.enc_time e a.ctime

let dec_attr d : Nfs.fattr =
  let ftype = Codec.ftype_of_int (Dec.u32 d) in
  let mode = Dec.u32 d in
  let nlink = Dec.u32 d in
  let uid = Dec.u32 d in
  let gid = Dec.u32 d in
  let size = Dec.u64 d in
  let used = Dec.u64 d in
  let fileid = Dec.u64 d in
  let atime = Codec.dec_time d in
  let mtime = Codec.dec_time d in
  let ctime = Codec.dec_time d in
  { ftype; mode; nlink; uid; gid; size; used; fileid; atime; mtime; ctime }

let enc_msg e xid msg =
  Enc.u32 e xid;
  match msg with
  | Getattr fh ->
      Enc.u32 e 1;
      Codec.enc_fh e fh
  | Nlink { op_id; fh; delta } ->
      Enc.u32 e 3;
      Enc.u64 e op_id;
      Codec.enc_fh e fh;
      enc_i e delta
  | Entry_count { op_id; dir; delta; mtime } ->
      Enc.u32 e 4;
      Enc.u64 e op_id;
      Codec.enc_fh e dir;
      enc_i e delta;
      Codec.enc_time e mtime
  | Add_entry { op_id; dir; name; child } ->
      Enc.u32 e 5;
      Enc.u64 e op_id;
      Codec.enc_fh e dir;
      Enc.str e name;
      Codec.enc_fh e child

let encode_msg ~xid msg = Enc.build enc_msg xid msg

(* One decoder serves every message: decoding never yields. *)
let dec = Dec.of_bytes Bytes.empty

let decode_msg buf =
  let d = dec in
  Dec.reset d buf ~pos:0 ~len:(Bytes.length buf);
  try
    ignore (Dec.u32 d) (* xid *);
    match Dec.u32 d with
    | 1 -> Getattr (Codec.dec_fh d buf)
    | 3 ->
        let op_id = Dec.u64 d in
        let fh = Codec.dec_fh d buf in
        Nlink { op_id; fh; delta = dec_i d }
    | 4 ->
        let op_id = Dec.u64 d in
        let dir = Codec.dec_fh d buf in
        let delta = dec_i d in
        Entry_count { op_id; dir; delta; mtime = Codec.dec_time d }
    | 5 ->
        let op_id = Dec.u64 d in
        let dir = Codec.dec_fh d buf in
        let name = Dec.str d in
        Add_entry { op_id; dir; name; child = Codec.dec_fh d buf }
    | n -> raise (Codec.Malformed (Printf.sprintf "bad peer message %d" n))
  with Slice_xdr.Xdr.Truncated -> raise (Codec.Malformed "truncated peer message")

let enc_reply e xid reply =
  Enc.u32 e xid;
  match reply with
  | Ack -> Enc.u32 e 1
  | Rattr a ->
      Enc.u32 e 2;
      enc_attr e a
  | Rerr st ->
      Enc.u32 e 4;
      Enc.u32 e (Codec.int_of_status st)

let encode_reply ~xid reply = Enc.build enc_reply xid reply

let decode_reply buf =
  let d = dec in
  Dec.reset d buf ~pos:0 ~len:(Bytes.length buf);
  try
    ignore (Dec.u32 d) (* xid *);
    match Dec.u32 d with
    | 1 -> Ack
    | 2 -> Rattr (dec_attr d)
    | 4 -> Rerr (Codec.status_of_int (Dec.u32 d))
    | n -> raise (Codec.Malformed (Printf.sprintf "bad peer reply %d" n))
  with Slice_xdr.Xdr.Truncated -> raise (Codec.Malformed "truncated peer reply")

(* the xid, then tag 4 ([Rerr]) and the status *)
let misdirected buf =
  Bytes.length buf >= 12 && Int32.to_int (Bytes.get_int32_be buf 4) = 4
  && Int32.to_int (Bytes.get_int32_be buf 8) = Codec.int_of_status Nfs.ERR_MISDIRECTED
