(** Peer-peer protocol between directory servers (Section 4.3). Four
    messages, each sent by {!Dirserver} when a name-space update touches
    state held at another site:

    - [Getattr]: read an attribute cell at its home site (a lookup or
      rmdir whose child's cell lives elsewhere);
    - [Nlink]: change a file's link count (link, rename, remove and
      rmdir of an entry whose attribute cell lives elsewhere);
    - [Entry_count]: update a parent directory's entry count and modify
      time (create, remove or rename under a name-hashed parent whose
      attribute cell lives elsewhere);
    - [Add_entry]: install a name entry at its site (the orphaned
      directory of a redirected mkdir under mkdir switching, or a rename
      or link whose target entry lives elsewhere), and count it at the
      parent's cell wherever that lives, through an [Entry_count] of the
      receiver's own when that is a third site.

    Every state-changing message carries an operation id; receivers keep a
    logged dedup set, making re-delivery after crash recovery idempotent —
    the foundation of the light two-phase commit used for the infrequent
    cross-site ("orphaned directory") operations of mkdir switching.

    Field codecs (handles, times, file types, statuses) are
    {!Slice_nfs.Codec}'s; decoders raise {!Slice_nfs.Codec.Malformed}. *)

type msg =
  | Getattr of Slice_nfs.Fh.t
  | Nlink of { op_id : int64; fh : Slice_nfs.Fh.t; delta : int }
  | Entry_count of { op_id : int64; dir : Slice_nfs.Fh.t; delta : int; mtime : float }
  | Add_entry of {
      op_id : int64;
      dir : Slice_nfs.Fh.t;
      name : string;
      child : Slice_nfs.Fh.t;
    }

type reply = Ack | Rattr of Slice_nfs.Nfs.fattr | Rerr of Slice_nfs.Nfs.status

val port : int
(** The peer port every directory server serves (2051). *)

val encode_msg : xid:int -> msg -> bytes
(** Written through {!Slice_xdr.Xdr.Enc.build}: the payload is the
    encode's only allocation. *)

val decode_msg : bytes -> msg
(** The message, without its xid: that stays in the payload's first
    word ({!Slice_nfs.Codec.xid_of}). Decoding reuses one decoder, so it
    builds only the message. *)

val encode_reply : xid:int -> reply -> bytes

val decode_reply : bytes -> reply
(** Like {!decode_msg}. *)

val misdirected : bytes -> bool
(** The reply is a refusal, [Rerr ERR_MISDIRECTED]: the receiver's site
    gate did not admit the message, so it goes again to the site's
    holder. Read in place, it allocates nothing. *)

val enc_attr : Slice_xdr.Xdr.Enc.t -> Slice_nfs.Nfs.fattr -> unit
(** Compact 68-byte attribute encoding (no rdev/fsid), shared by peer
    replies and the directory server's log records. *)

val dec_attr : Slice_xdr.Xdr.Dec.t -> Slice_nfs.Nfs.fattr
