module Engine = Slice_sim.Engine
module Fiber = Slice_sim.Fiber
module Rpc = Slice_net.Rpc
module Nfs = Slice_nfs.Nfs
module Fh = Slice_nfs.Fh
module Codec = Slice_nfs.Codec
module Host = Slice_storage.Host
module Stats = Slice_util.Stats

type costs = { per_op : float; read_per_byte : float; write_per_byte : float }

(* 40 MB/s write ceiling and ~65 MB/s zero-copy read ceiling through the
   FreeBSD NFS/UDP stack (Table 2 discussion). *)
let default_costs = { per_op = 25e-6; read_per_byte = 1.0 /. 65e6; write_per_byte = 1.0 /. 40e6 }

type t = {
  host : Host.t;
  rpc : Rpc.t;
  server : Slice_net.Packet.addr;
  costs : costs;
  io_size : int;
  readahead : int;
  write_window : int;
  latency : Stats.t;
  mutable ops : int;
  mutable errs : int;
}

let create host ~server ?(port = 1000) ?(costs = default_costs) ?(io_size = 32768)
    ?(readahead = 4) ?(write_window = 8) () =
  {
    host;
    rpc = Rpc.create host.Host.net host.Host.addr ~port;
    server;
    costs;
    io_size;
    readahead;
    write_window;
    latency = Stats.create ();
    ops = 0;
    errs = 0;
  }

exception Unexpected_reply of string

let call t (c : Nfs.call) : Nfs.response =
  let start = Engine.now t.host.Host.eng in
  let data_cost =
    match c with
    | Nfs.Write (_, _, _, d) -> t.costs.write_per_byte *. float_of_int (Nfs.wdata_length d)
    | _ -> 0.0
  in
  Host.cpu t.host (t.costs.per_op +. data_cost);
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
  let _, resp = Codec.decode_reply reply in
  (* receive-path cost for data read *)
  (match resp with
  | Ok (Nfs.RRead (d, _, _)) ->
      Host.cpu t.host (t.costs.read_per_byte *. float_of_int (Nfs.wdata_length d))
  | _ -> ());
  t.ops <- t.ops + 1;
  Stats.add t.latency (Engine.now t.host.Host.eng -. start);
  (match resp with Error _ -> t.errs <- t.errs + 1 | Ok _ -> ());
  resp

let wrong name = raise (Unexpected_reply name)

let lookup t dir name =
  match call t (Nfs.Lookup (dir, name)) with
  | Ok (Nfs.RLookup (fh, a)) -> Ok (fh, a)
  | Error st -> Error st
  | Ok _ -> wrong "lookup"

let create_file t dir name =
  match call t (Nfs.Create (dir, name)) with
  | Ok (Nfs.RCreate (fh, a)) -> Ok (fh, a)
  | Error st -> Error st
  | Ok _ -> wrong "create"

let mkdir t dir name =
  match call t (Nfs.Mkdir (dir, name)) with
  | Ok (Nfs.RMkdir (fh, a)) -> Ok (fh, a)
  | Error st -> Error st
  | Ok _ -> wrong "mkdir"

let symlink t dir name ~target =
  match call t (Nfs.Symlink (dir, name, target)) with
  | Ok (Nfs.RSymlink (fh, a)) -> Ok (fh, a)
  | Error st -> Error st
  | Ok _ -> wrong "symlink"

let remove t dir name =
  match call t (Nfs.Remove (dir, name)) with
  | Ok Nfs.RRemove -> Ok ()
  | Error st -> Error st
  | Ok _ -> wrong "remove"

let rmdir t dir name =
  match call t (Nfs.Rmdir (dir, name)) with
  | Ok Nfs.RRmdir -> Ok ()
  | Error st -> Error st
  | Ok _ -> wrong "rmdir"

let rename t od on nd nn =
  match call t (Nfs.Rename (od, on, nd, nn)) with
  | Ok Nfs.RRename -> Ok ()
  | Error st -> Error st
  | Ok _ -> wrong "rename"

let link t file ~dir name =
  match call t (Nfs.Link (file, dir, name)) with
  | Ok (Nfs.RLink a) -> Ok a
  | Error st -> Error st
  | Ok _ -> wrong "link"

let getattr t fh =
  match call t (Nfs.Getattr fh) with
  | Ok (Nfs.RGetattr a) -> Ok a
  | Error st -> Error st
  | Ok _ -> wrong "getattr"

let setattr t fh s =
  match call t (Nfs.Setattr (fh, s)) with
  | Ok (Nfs.RSetattr a) -> Ok a
  | Error st -> Error st
  | Ok _ -> wrong "setattr"

let access t fh =
  match call t (Nfs.Access (fh, 0x3F)) with
  | Ok (Nfs.RAccess (_, a)) -> Ok a
  | Error st -> Error st
  | Ok _ -> wrong "access"

let readdir_all t dir =
  let rec loop cookie acc =
    match call t (Nfs.Readdir (dir, cookie, 64)) with
    | Ok (Nfs.RReaddir (entries, next, eof)) ->
        let acc = List.rev_append entries acc in
        if eof then Ok (List.rev acc) else loop next acc
    | Error st -> Error st
    | Ok _ -> wrong "readdir"
  in
  loop 0L []

let write_at t fh ~off ~data ?(stable = Nfs.Unstable) () =
  match call t (Nfs.Write (fh, off, stable, data)) with
  | Ok (Nfs.RWrite (_, _, a)) -> Ok a
  | Error st -> Error st
  | Ok _ -> wrong "write"

let read_at t fh ~off ~count =
  match call t (Nfs.Read (fh, off, count)) with
  | Ok (Nfs.RRead (d, eof, _)) -> Ok (d, eof)
  | Error st -> Error st
  | Ok _ -> wrong "read"

let commit_call t fh =
  match call t (Nfs.Commit (fh, 0L, 0)) with
  | Ok (Nfs.RCommit _) -> Ok ()
  | Error st -> Error st
  | Ok _ -> wrong "commit"

let commit = commit_call

let chunks_of ~io_size ~bytes =
  let n = Int64.to_int (Int64.div bytes (Int64.of_int io_size)) in
  let rem = Int64.to_int (Int64.rem bytes (Int64.of_int io_size)) in
  (n, rem)

let sequential_write t ?(commit = true) fh ~bytes =
  let full, rem = chunks_of ~io_size:t.io_size ~bytes in
  let total = full + if rem > 0 then 1 else 0 in
  Fiber.parallel_window t.host.Host.eng ~window:t.write_window total (fun i ->
      let len = if i < full then t.io_size else rem in
      let off = Int64.of_int (i * t.io_size) in
      ignore (write_at t fh ~off ~data:(Nfs.Synthetic len) ()));
  if commit then ignore (commit_call t fh)

let sequential_read t fh ~bytes =
  let full, rem = chunks_of ~io_size:t.io_size ~bytes in
  let total = full + if rem > 0 then 1 else 0 in
  Fiber.parallel_window t.host.Host.eng ~window:t.readahead total (fun i ->
      let len = if i < full then t.io_size else rem in
      let off = Int64.of_int (i * t.io_size) in
      ignore (read_at t fh ~off ~count:len))

let now t = Engine.now t.host.Host.eng
let ops_completed t = t.ops
let op_latency t = t.latency
let errors t = t.errs
let retransmissions t = Rpc.retransmissions t.rpc
