module Engine = Slice_sim.Engine
module Fiber = Slice_sim.Fiber
module Rpc = Slice_net.Rpc
module Nfs = Slice_nfs.Nfs
module Fh = Slice_nfs.Fh
module Codec = Slice_nfs.Codec
module Host = Slice_storage.Host

(* Client CPU: a fixed cost per RPC (syscall + RPC layers), and per byte
   the 40 MB/s copy-and-checksum write ceiling and the ~65 MB/s zero-copy
   read ceiling through the FreeBSD NFS/UDP stack (Table 2 discussion). *)
let per_op = 25e-6
let read_per_byte = 1.0 /. 65e6
let write_per_byte = 1.0 /. 40e6

(* Sequential streams keep this many requests in flight: the read-ahead
   pipeline and the deeper write-behind window. *)
let readahead = 4
let write_window = 8

type t = {
  host : Host.t;
  rpc : Rpc.t;
  server : Slice_net.Packet.addr;
  io_size : int;
  mutable ops : int;
  mutable errs : int;
}

let create host ~server ?(port = 1000) ?(io_size = 32768) () =
  {
    host;
    rpc = Rpc.create host.Host.net host.Host.addr ~port;
    server;
    io_size;
    ops = 0;
    errs = 0;
  }

exception Unexpected_reply of string

(* One synchronous NFS RPC, charging client CPU. The reply is checked in
   place against the call's procedure; it comes back with the offset of
   its body, or -1 when it carries an error status. *)
let exchange t (c : Nfs.call) =
  let data_cost =
    match c with
    | Nfs.Write (_, _, _, d) -> write_per_byte *. float_of_int (Nfs.wdata_length d)
    | _ -> 0.0
  in
  Host.cpu t.host (per_op +. data_cost);
  let xid = Rpc.fresh_xid t.rpc in
  let payload = Codec.encode_call ~xid c in
  (* commits cover arbitrarily much dirty data; give them a longer
     retransmission timer, like real clients do for COMMIT/stable writes *)
  let timeout = match c with Nfs.Commit _ -> 1.0 | _ -> 0.1 in
  (* hard-mount behaviour: keep retrying; servers dedup via their DRC *)
  let reply =
    Rpc.call t.rpc ~timeout ~retries:40 ~dst:t.server ~dport:2049
      ~extra_size:(Codec.extra_size_of_call c) payload
  in
  let body =
    match Codec.reply_status reply with
    | Nfs.OK ->
        let body = Codec.reply_body reply ~tag:(Nfs.proc_of_call c) in
        if body < 0 then raise (Unexpected_reply (Nfs.call_name c));
        body
    | _ -> -1
  in
  (* receive-path cost for data read *)
  (match c with
  | Nfs.Read _ when body >= 0 ->
      Host.cpu t.host (read_per_byte *. float_of_int (Codec.read_length reply body))
  | _ -> ());
  t.ops <- t.ops + 1;
  if body < 0 then t.errs <- t.errs + 1;
  (reply, body)

let failure reply = Error (Codec.reply_status reply)

let call t c =
  let reply, body = exchange t c in
  if body < 0 then failure reply else Ok ()

(* Replies carrying post-op attributes and nothing else the caller reads. *)
let attr_call t c =
  let reply, body = exchange t c in
  if body < 0 then failure reply else Ok (Codec.reply_attr reply)

(* Replies leading with the new object's handle. *)
let handle_call t c =
  let reply, body = exchange t c in
  if body < 0 then failure reply else Ok (Codec.handle_at reply body, Codec.reply_attr reply)

let lookup t dir name = handle_call t (Nfs.Lookup (dir, name))
let create_file t dir name = handle_call t (Nfs.Create (dir, name))
let mkdir t dir name = handle_call t (Nfs.Mkdir (dir, name))
let symlink t dir name ~target = handle_call t (Nfs.Symlink (dir, name, target))
let remove t dir name = call t (Nfs.Remove (dir, name))
let rmdir t dir name = call t (Nfs.Rmdir (dir, name))
let rename t od on nd nn = call t (Nfs.Rename (od, on, nd, nn))
let link t file ~dir name = attr_call t (Nfs.Link (file, dir, name))
let getattr t fh = attr_call t (Nfs.Getattr fh)
let setattr t fh s = attr_call t (Nfs.Setattr (fh, s))
let access t fh = attr_call t (Nfs.Access (fh, 0x3F))

let readlink t fh =
  let reply, body = exchange t (Nfs.Readlink fh) in
  if body < 0 then failure reply else Ok (Codec.string_at reply body)

let readdir_all t dir =
  let rec loop cookie acc =
    let reply, body = exchange t (Nfs.Readdir (dir, cookie, 64)) in
    if body < 0 then failure reply
    else
      let acc, next, eof = Codec.readdir_page reply body acc in
      if eof then Ok (List.rev acc) else loop next acc
  in
  loop 0L []

let write_at t fh ~off ~data ?(stable = Nfs.Unstable) () =
  attr_call t (Nfs.Write (fh, off, stable, data))

let read_at t fh ~off ~count =
  let reply, body = exchange t (Nfs.Read (fh, off, count)) in
  if body < 0 then failure reply else Ok (Codec.read_data reply body, Codec.read_eof reply body)

let commit_call t fh = call t (Nfs.Commit (fh, 0L, 0))
let commit = commit_call

let chunks_of ~io_size ~bytes =
  let n = Int64.to_int (Int64.div bytes (Int64.of_int io_size)) in
  let rem = Int64.to_int (Int64.rem bytes (Int64.of_int io_size)) in
  (n, rem)

let sequential_write t ?(commit = true) fh ~bytes =
  let full, rem = chunks_of ~io_size:t.io_size ~bytes in
  let total = full + if rem > 0 then 1 else 0 in
  Fiber.parallel_window t.host.Host.eng ~window:write_window total (fun i ->
      let len = if i < full then t.io_size else rem in
      let off = Int64.of_int (i * t.io_size) in
      ignore (write_at t fh ~off ~data:(Nfs.Synthetic len) ()));
  if commit then ignore (commit_call t fh)

let sequential_read t fh ~bytes =
  let full, rem = chunks_of ~io_size:t.io_size ~bytes in
  let total = full + if rem > 0 then 1 else 0 in
  Fiber.parallel_window t.host.Host.eng ~window:readahead total (fun i ->
      let len = if i < full then t.io_size else rem in
      let off = Int64.of_int (i * t.io_size) in
      ignore (read_at t fh ~off ~count:len))

let[@inline] now t = Engine.now t.host.Host.eng
let ops_completed t = t.ops
let errors t = t.errs
let retransmissions t = Rpc.retransmissions t.rpc
