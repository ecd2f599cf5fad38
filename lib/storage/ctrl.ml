module Enc = Slice_xdr.Xdr.Enc
module Dec = Slice_xdr.Xdr.Dec
module Fh = Slice_nfs.Fh
module Codec = Slice_nfs.Codec

(* Kind 4 belonged to a retired truncate intent and is not reused. *)
type kind = K_remove | K_commit | K_mirror_write

let kind_to_int = function K_remove -> 1 | K_commit -> 2 | K_mirror_write -> 3

let kind_of_int = function
  | 1 -> K_remove
  | 2 -> K_commit
  | 3 -> K_mirror_write
  | n -> raise (Codec.Malformed (Printf.sprintf "bad intent kind %d" n))

type msg =
  | Intent of { op_id : int64; kind : kind; fh : Fh.t; participants : int array }
  | Complete of { op_id : int64 }
  | Remove_file of { fh : Fh.t; sites : int array }
  | Commit_file of { fh : Fh.t; sites : int array }
  | Get_map of { fh : Fh.t; first_block : int; count : int }

type reply = Ack | Nack | Map of { first_block : int; sites : int array }

(* A count of u32 words read off the wire, rejected before anything is
   sized from it when the rest of the buffer cannot hold that many. *)
let dec_count d buf =
  let n = Dec.u32 d in
  if n > (Bytes.length buf - Dec.pos d) / 4 then
    raise (Codec.Malformed (Printf.sprintf "count %d overruns buffer" n));
  n

let enc_sites e sites =
  Enc.u32 e (Array.length sites);
  for i = 0 to Array.length sites - 1 do
    Enc.u32 e sites.(i)
  done

let dec_sites d buf =
  let n = dec_count d buf in
  Array.init n (fun _ -> Dec.u32 d)

let enc_msg e ~xid msg =
  Enc.u32 e xid;
  (match msg with
  | Intent { op_id; kind; fh; participants } ->
      Enc.u32 e 1;
      Enc.u64 e op_id;
      Enc.u32 e (kind_to_int kind);
      Codec.enc_fh e fh;
      enc_sites e participants
  | Complete { op_id } ->
      Enc.u32 e 2;
      Enc.u64 e op_id
  | Remove_file { fh; sites } ->
      Enc.u32 e 3;
      Codec.enc_fh e fh;
      enc_sites e sites
  | Commit_file { fh; sites } ->
      Enc.u32 e 4;
      Codec.enc_fh e fh;
      enc_sites e sites
  | Get_map { fh; first_block; count } ->
      Enc.u32 e 5;
      Codec.enc_fh e fh;
      Enc.u32 e first_block;
      Enc.u32 e count)

let encode_msg ~xid msg = Enc.build (fun e xid msg -> enc_msg e ~xid msg) xid msg

(* One decoder serves every message: decoding never yields. *)
let dec = Dec.of_bytes Bytes.empty

let decode_msg buf =
  let d = dec in
  Dec.reset d buf ~pos:0 ~len:(Bytes.length buf);
  try
    ignore (Dec.u32 d) (* xid *);
    match Dec.u32 d with
    | 1 ->
        let op_id = Dec.u64 d in
        let kind = kind_of_int (Dec.u32 d) in
        let fh = Codec.dec_fh d buf in
        Intent { op_id; kind; fh; participants = dec_sites d buf }
    | 2 -> Complete { op_id = Dec.u64 d }
    | 3 ->
        let fh = Codec.dec_fh d buf in
        Remove_file { fh; sites = dec_sites d buf }
    | 4 ->
        let fh = Codec.dec_fh d buf in
        Commit_file { fh; sites = dec_sites d buf }
    | 5 ->
        let fh = Codec.dec_fh d buf in
        let first_block = Dec.u32 d in
        Get_map { fh; first_block; count = Dec.u32 d }
    | n -> raise (Codec.Malformed (Printf.sprintf "bad ctrl message %d" n))
  with Slice_xdr.Xdr.Truncated -> raise (Codec.Malformed "truncated ctrl message")

let enc_reply e xid reply =
  Enc.u32 e xid;
  match reply with
  | Ack -> Enc.u32 e 1
  | Nack -> Enc.u32 e 2
  | Map { first_block; sites } ->
      Enc.u32 e 3;
      Enc.u32 e first_block;
      enc_sites e sites

let encode_reply ~xid reply = Enc.build enc_reply xid reply

let decode_reply buf =
  let d = dec in
  Dec.reset d buf ~pos:0 ~len:(Bytes.length buf);
  try
    ignore (Dec.u32 d) (* xid *);
    match Dec.u32 d with
    | 1 -> Ack
    | 2 -> Nack
    | 3 ->
        let first_block = Dec.u32 d in
        Map { first_block; sites = dec_sites d buf }
    | n -> raise (Codec.Malformed (Printf.sprintf "bad ctrl reply %d" n))
  with Slice_xdr.Xdr.Truncated -> raise (Codec.Malformed "truncated ctrl reply")

(* ---- calls to the coordinator ---- *)

let port = 2050

let holder coordinator (_ : int) = match coordinator () with Some addr -> addr | None -> -1
let deposed reply = match decode_reply reply with Nack -> true | _ | (exception Codec.Malformed _) -> false

let call rpc ~span ~holder msg =
  let xid = Slice_net.Rpc.fresh_xid rpc in
  decode_reply
    (Slice_net.Rpc.call_role rpc ~span ~timeout:2.0 ~holder ~site:0 ~dst:(holder 0) ~dport:port
       ~refused:deposed ~extra_size:0 (encode_msg ~xid msg))
