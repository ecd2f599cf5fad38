(** Byte-level codec for NFS V3 over ONC RPC.

    Calls carry a realistic variable-length AUTH_UNIX credential — the
    paper attributes nearly half the µproxy's decode cost to locating the
    request type and arguments past variable-length RPC/NFS header fields,
    and this codec reproduces that structure.

    Replies place the post-op attribute block at a fixed offset
    ({!reply_attr_offset_i}) so the µproxy can patch cached attributes into
    forwarded responses with incremental checksum repair. *)

exception Malformed of string

val encode_call : xid:int -> Nfs.call -> bytes
val decode_call : bytes -> int * Nfs.call
(** @raise Malformed on garbage. *)

val encode_reply : xid:int -> Nfs.response -> bytes
val decode_reply : bytes -> int * Nfs.response

val extra_size_of_call : Nfs.call -> int
(** Unmaterialized (synthetic) payload bytes, for [Packet.extra_size]. *)

val extra_size_of_response : Nfs.response -> int

val int_of_status : Nfs.status -> int
val status_of_int : int -> Nfs.status
(** The NFS V3 wire values ([ERR_MISDIRECTED] is Slice's 20001).
    @raise Malformed on an unknown code. *)

(** {2 µproxy partial decode}

    Decode exactly the fields the µproxy routes on ("the µproxy examines
    up to four fields of each request"). One long-lived all-mutable
    cursor per µproxy instance records field {e positions} in the packet
    buffer instead of materializing handles and names, so steady-state
    interception allocates nothing. *)

type cursor = {
  cr : Slice_xdr.Xdr.Dec.t;
  mutable c_xid : int;
  mutable c_proc : int;
  mutable c_fh_off : int;
      (** span offset of the first handle's 32 wire bytes; -1 = none *)
  mutable c_fh2_off : int;  (** rename/link second handle; -1 = none *)
  mutable c_name_off : int;
  mutable c_name_len : int;  (** -1 = none *)
  mutable c_name2_off : int;
  mutable c_name2_len : int;  (** rename destination name; -1 = none *)
  mutable c_offset : int;  (** valid iff [c_off_field >= 0] *)
  mutable c_off_field : int;
      (** byte offset of the 8-byte offset/cookie field; -1 = none *)
  mutable c_count : int;  (** -1 = none *)
  mutable c_stable : int;  (** wire stable_how (0/1/2); -1 = none *)
  mutable c_has_set_size : bool;
  mutable c_set_size : int;  (** valid iff [c_has_set_size] *)
  mutable c_access : int;  (** -1 = none *)
  mutable c_items : int;  (** XDR items consumed — decode cost model *)
}

val cursor : unit -> cursor

val peek_call_into : cursor -> bytes -> bool
(** [false] if the payload is not a well-formed NFS V3 call (truncated
    buffers and oversized length fields included — bounds are enforced
    before any read). On [false] the cursor contents are unspecified. *)

val is_call : bytes -> bool
val xid_of : bytes -> int
(** XID of either a call or a reply (first word). *)

(** {2 Reply attribute patching} *)

val reply_attr_offset_i : bytes -> int
(** Byte offset of the 84-byte post-op fattr block in an OK reply carrying
    one, else -1. Constant-time header inspection. *)

val attr_wire_size : int
(** 84. *)

val attr_size_field_off : int
(** Offset of the 8-byte [size] within a fattr block (20). *)

val attr_fileid_field_off : int
(** Offset of the 8-byte [fileid] within a fattr block (52) — the
    µproxy's attribute-cache key, readable without decoding the block. *)

val attr_atime_field_off : int
val attr_mtime_field_off : int

val decode_attr_at : bytes -> int -> Nfs.fattr

val reply_fh_after_attr_off : bytes -> int
(** Span offset of the validated handle led by an OK lookup / create /
    mkdir / symlink reply body, else -1. Nothing is materialized; the
    handle reads in place ({!Fh.decode_at} when it must outlive the
    buffer). *)

val put_u64_be : bytes -> int -> unit
(** Render an int value big-endian into the first 8 bytes of a reused
    scratch buffer, for [Cksum.patch_payload_bytes]. *)

val put_time_be : bytes -> Nfs.time -> unit
(** Render a timestamp as its 8-byte (seconds, nanoseconds) wire form
    into the first 8 bytes of a reused scratch buffer. *)
