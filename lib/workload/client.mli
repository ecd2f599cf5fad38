(** NFS client stack model.

    Calibrated to the paper's FreeBSD 4.0 clients: the write path copies
    and checksums data and "saturates the client CPU below 40 MB/s"; the
    read path is zero-copy ("we modified the FreeBSD client for zero-copy
    reading") and tops out near 65 MB/s; sequential reads keep a
    read-ahead pipeline of 4 × 32 KB blocks in flight, writes a deeper
    write-behind window followed by NFS V3 commit. *)

type costs = {
  per_op : float;  (** fixed client CPU per RPC (syscall + RPC layers) *)
  read_per_byte : float;  (** zero-copy receive path *)
  write_per_byte : float;  (** copy + checksum transmit path *)
}

type t

val create :
  Slice_storage.Host.t ->
  server:Slice_net.Packet.addr ->
  ?port:int ->
  ?costs:costs ->
  ?io_size:int ->
  ?readahead:int ->
  ?write_window:int ->
  unit ->
  t
(** [server] is the (virtual) NFS server address; [port] is this client
    endpoint's own port — give each concurrent client process on a host a
    distinct port. Defaults: io_size 32 KB, readahead 4, write window 8. *)

val call : t -> Slice_nfs.Nfs.call -> Slice_nfs.Nfs.response
(** Fiber: one synchronous NFS RPC, charging client CPU and recording
    latency. *)

exception Unexpected_reply of string

(** {2 Name-space sugar (fiber context; raise {!Unexpected_reply} on
    protocol mismatch, return [Error status] on NFS errors)} *)

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

val readdir_all : t -> Slice_nfs.Fh.t -> (Slice_nfs.Nfs.entry list, Slice_nfs.Nfs.status) result
(** Iterate a directory to EOF (follows the µproxy's cross-site cookie
    chain under name hashing). *)

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
val op_latency : t -> Slice_util.Stats.t
val errors : t -> int
(** NFS error statuses received. *)

val retransmissions : t -> int
