(** Control-plane messages of the block service coordinator: intention
    begin/complete, orchestrated multi-site remove and commit, and
    block-map fragment fetch (Sections 2.2, 3.1 and 3.3.2 of the paper).
    Encoded over XDR with an RPC-compatible XID first word so the generic
    {!Slice_net.Rpc} endpoint carries them. Handles use
    {!Slice_nfs.Codec}'s field codec; decoders raise
    {!Slice_nfs.Codec.Malformed}, before allocating for any count the
    buffer cannot hold. *)

type kind = K_remove | K_commit | K_mirror_write

type msg =
  | Intent of { op_id : int64; kind : kind; fh : Slice_nfs.Fh.t; participants : int array }
      (** Declare a multi-site operation before acting; the coordinator
          logs it and will drive redo if no completion arrives. *)
  | Complete of { op_id : int64 }
  | Remove_file of { fh : Slice_nfs.Fh.t; sites : int array }
      (** Coordinator-orchestrated remove of all backing objects. *)
  | Commit_file of { fh : Slice_nfs.Fh.t; sites : int array }
      (** NFS V3 write commitment across the file's storage sites. *)
  | Get_map of { fh : Slice_nfs.Fh.t; first_block : int; count : int }
      (** Fetch a fragment of the per-file block map. *)

type reply =
  | Ack
  | Nack  (** a deposed coordinator's refusal *)
  | Map of { first_block : int; sites : int array }  (** empty without block maps *)

val encode_msg : xid:int -> msg -> bytes
(** Written through {!Slice_xdr.Xdr.Enc.build}: the payload is the
    encode's only allocation. *)

val enc_msg : Slice_xdr.Xdr.Enc.t -> xid:int -> msg -> unit
(** {!encode_msg}'s wire form written into an encoder the caller holds
    (the coordinator's intentions log encodes records in place). *)

val decode_msg : bytes -> msg
(** The message, without its xid: that stays in the payload's first
    word ({!Slice_nfs.Codec.xid_of}). Decoding reuses one decoder, so it
    builds only the message. *)

val encode_reply : xid:int -> reply -> bytes

val decode_reply : bytes -> reply
(** Like {!decode_msg}. *)

(** {2 Calls to the coordinator} *)

val port : int
(** The control port every coordinator serves. *)

val holder : (unit -> Slice_net.Packet.addr option) -> int -> Slice_net.Packet.addr
(** [holder coordinator], built once, names the coordinator [coordinator ()]
    resolves to at each transmission, whatever the site (-1: none). *)

val call :
  Slice_net.Rpc.t -> span:Slice_trace.Trace.span -> holder:(int -> Slice_net.Packet.addr) -> msg -> reply
(** [msg] to the coordinator by {!Slice_net.Rpc.call_role} (2 s first
    timeout): a Nack sends it again, to the successor once there is
    one. *)
