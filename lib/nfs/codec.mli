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
(** Written through {!Slice_xdr.Xdr.Enc.build}: the payload is the
    encode's only allocation. *)

val call_of_payload : bytes -> Nfs.call
(** The servers' full decode, built on {!peek_call_into}: each call's
    argument layout is read in one place. It builds the call and nothing
    around it; the xid stays in the payload's first word ({!xid_of}).
    @raise Malformed on garbage. *)

val decode_call : bytes -> int * Nfs.call
(** {!call_of_payload} paired with the xid, for callers that keep both
    (tests and the benchmark's replay). *)

val encode_reply : xid:int -> Nfs.response -> bytes
(** Written through {!Slice_xdr.Xdr.Enc.build}, like {!encode_call}. *)

val decode_reply : bytes -> int * Nfs.response
(** The materializing decode of a whole reply: the reference the reply
    readers below are held to, and the benchmark's replay decoder. No
    library path calls it. @raise Malformed on garbage. *)

val extra_size_of_call : Nfs.call -> int
(** Unmaterialized (synthetic) payload bytes, for [Packet.extra_size]. *)

val extra_size_of_response : Nfs.response -> int

(** {2 Field codecs}

    The one encoding of each protocol field, shared by the manager
    protocols ([Slice_dir.Peer], [Slice_storage.Ctrl]) that ride the
    same XDR framing. *)

val enc_fh : Slice_xdr.Xdr.Enc.t -> Fh.t -> unit
(** A handle as a 32-byte XDR opaque, written in place. *)

val dec_fh : Slice_xdr.Xdr.Dec.t -> bytes -> Fh.t
(** [dec_fh d buf] reads a handle opaque from [d], whose underlying
    buffer is [buf]. @raise Malformed on a bad handle. *)

val enc_time : Slice_xdr.Xdr.Enc.t -> Nfs.time -> unit
(** (seconds, nanoseconds) as two u32 words. *)

val dec_time : Slice_xdr.Xdr.Dec.t -> Nfs.time

val int_of_ftype : Fh.ftype -> int
val ftype_of_int : int -> Fh.ftype
(** NFS V3 ftype codes (1 = Reg, 2 = Dir, 5 = Lnk).
    @raise Malformed on any other code. *)

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
(** The 84-byte attribute block at an offset, read field by field.
    @raise Malformed if it runs past the buffer or has a bad ftype. *)

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

(** {2 Reply readers}

    Replies read where they sit, the way the µproxy reads calls: each
    field at its offset in the reply's bytes, every bound checked before
    the read, nothing built that the caller does not ask for. A reader
    raises only {!Malformed}. The layout: header and status (28 bytes),
    the attribute-present word and, when set, the attribute block at 32,
    the procedure tag (equal to the call's procedure number), then the
    body. *)

val reply_status : bytes -> Nfs.status
(** Checks the RPC reply header and reads the NFS status.
    @raise Malformed on a short buffer, a call, or an unknown status. *)

val misdirected : bytes -> bool
(** The reply is a well-formed [ERR_MISDIRECTED] bounce. *)

val reply_body : bytes -> tag:int -> int
(** For an OK reply: checks everything of it that {!decode_reply} would
    decode (the attribute block's bounds and ftype, the tag, and every
    field and length of the body) and returns the offset of the body,
    just past the tag, if the tag is [tag]; -1 if the reply is a
    well-formed answer to another procedure. Builds nothing.
    @raise Malformed where {!decode_reply} would. *)

(** The field readers take a reply {!reply_body} accepted and the body
    offset it returned. *)

val reply_attr : bytes -> Nfs.fattr
(** The post-op attributes. @raise Malformed if the reply carries none. *)

val handle_at : bytes -> int -> Fh.t
(** The handle opaque whose length word is at the offset: the body of a
    lookup, create, mkdir or symlink reply. *)

val string_at : bytes -> int -> string
(** The string whose length word is at the offset: a readlink target. *)

val read_data : bytes -> int -> Nfs.wdata
val read_eof : bytes -> int -> bool

val read_length : bytes -> int -> int
(** The length of a read reply's data, building none of it. *)

val readdir_count : bytes -> int -> int
(** The number of entries in a readdir page. *)

val readdir_page : bytes -> int -> Nfs.entry list -> Nfs.entry list * int64 * bool
(** [readdir_page buf body acc] conses a readdir page's entries onto
    [acc], last entry first, and returns them with the page's cookie and
    eof flag. *)

val splice_readdir : bytes -> body:int -> site:int -> more:bool -> int
(** The µproxy's readdir splice under name hashing, in place: every
    entry cookie and the page cookie become [(site lsl 32) lor cookie];
    when the page is the site's last ([eof]) and [more] sites follow,
    the page cookie becomes [(site + 1) lsl 32] and [eof] false instead.
    Returns the sum, over every 16-bit word rewritten, of
    [(0xFFFF - old) + new], which {!Slice_net.Cksum.adjust_sum} folds
    into the packet's checksum (RFC 1624). Allocates nothing. *)
