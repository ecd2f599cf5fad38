(** NFS client stack model.

    Calibrated to the paper's FreeBSD 4.0 clients: the write path copies
    and checksums data and "saturates the client CPU below 40 MB/s"; the
    read path is zero-copy ("we modified the FreeBSD client for zero-copy
    reading") and tops out near 65 MB/s; sequential reads keep a
    read-ahead pipeline of 4 × 32 KB blocks in flight, writes a deeper
    write-behind window of 8 followed by NFS V3 commit. Each RPC costs
    25 µs of client CPU plus its data bytes at those two ceilings. *)

type t

val create :
  Slice_storage.Host.t ->
  server:Slice_net.Packet.addr ->
  ?port:int ->
  ?io_size:int ->
  unit ->
  t
(** [server] is the (virtual) NFS server address; [port] is this client
    endpoint's own port — give each concurrent client process on a host a
    distinct port. [io_size] defaults to 32 KB. *)

exception Unexpected_reply of string

(** {2 Calls (fiber context)}

    Each is one synchronous NFS RPC, charging client CPU. The reply is
    read in place ({!Slice_nfs.Codec.reply_body}): it is checked whole,
    and only what the function returns is built. An NFS error comes back
    as [Error status]; a reply to another procedure raises
    {!Unexpected_reply}; a malformed one raises
    [Slice_nfs.Codec.Malformed]. *)

val call : t -> Slice_nfs.Nfs.call -> (unit, Slice_nfs.Nfs.status) result
(** Any call, for its status alone. *)

val lookup : t -> Slice_nfs.Fh.t -> string ->
  (Slice_nfs.Fh.t * Slice_nfs.Nfs.fattr, Slice_nfs.Nfs.status) result

val create_file : t -> Slice_nfs.Fh.t -> string ->
  (Slice_nfs.Fh.t * Slice_nfs.Nfs.fattr, Slice_nfs.Nfs.status) result

val mkdir : t -> Slice_nfs.Fh.t -> string ->
  (Slice_nfs.Fh.t * Slice_nfs.Nfs.fattr, Slice_nfs.Nfs.status) result

val symlink : t -> Slice_nfs.Fh.t -> string -> target:string ->
  (Slice_nfs.Fh.t * Slice_nfs.Nfs.fattr, Slice_nfs.Nfs.status) result

val remove : t -> Slice_nfs.Fh.t -> string -> (unit, Slice_nfs.Nfs.status) result
val rmdir : t -> Slice_nfs.Fh.t -> string -> (unit, Slice_nfs.Nfs.status) result

val rename : t -> Slice_nfs.Fh.t -> string -> Slice_nfs.Fh.t -> string ->
  (unit, Slice_nfs.Nfs.status) result

val link : t -> Slice_nfs.Fh.t -> dir:Slice_nfs.Fh.t -> string ->
  (Slice_nfs.Nfs.fattr, Slice_nfs.Nfs.status) result

val getattr : t -> Slice_nfs.Fh.t -> (Slice_nfs.Nfs.fattr, Slice_nfs.Nfs.status) result

val setattr : t -> Slice_nfs.Fh.t -> Slice_nfs.Nfs.sattr ->
  (Slice_nfs.Nfs.fattr, Slice_nfs.Nfs.status) result

val access : t -> Slice_nfs.Fh.t -> (Slice_nfs.Nfs.fattr, Slice_nfs.Nfs.status) result

val readlink : t -> Slice_nfs.Fh.t -> (string, Slice_nfs.Nfs.status) result
(** The link's target. *)

val readdir_all : t -> Slice_nfs.Fh.t -> (Slice_nfs.Nfs.entry list, Slice_nfs.Nfs.status) result
(** Iterate a directory to EOF (follows the µproxy's cross-site cookie
    chain under name hashing). The one call that builds entries: each
    page's are read in place onto the list. *)

(** {2 Data I/O} *)

val write_at : t -> Slice_nfs.Fh.t -> off:int64 -> data:Slice_nfs.Nfs.wdata ->
  ?stable:Slice_nfs.Nfs.stable_how -> unit -> (Slice_nfs.Nfs.fattr, Slice_nfs.Nfs.status) result

val read_at : t -> Slice_nfs.Fh.t -> off:int64 -> count:int ->
  (Slice_nfs.Nfs.wdata * bool, Slice_nfs.Nfs.status) result

val commit : t -> Slice_nfs.Fh.t -> (unit, Slice_nfs.Nfs.status) result

val sequential_write : t -> ?commit:bool -> Slice_nfs.Fh.t -> bytes:int64 -> unit
(** dd-style: stream [bytes] of synthetic data in io_size requests with
    the write-behind window, then (by default) commit. [~commit:false]
    returns when the last write RPC completes — dd's own notion of
    elapsed time, which excludes the server-side flush tail. *)

val sequential_read : t -> Slice_nfs.Fh.t -> bytes:int64 -> unit
(** dd-style: stream with the read-ahead pipeline. *)

(** {2 Statistics} *)

val now : t -> float
(** Current simulated time at this client. *)

val ops_completed : t -> int
val errors : t -> int
(** NFS error statuses received. *)

val retransmissions : t -> int
