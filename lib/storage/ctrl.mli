(** Control-plane messages of the block service coordinator: intention
    begin/complete, orchestrated multi-site remove and commit, and
    block-map fragment fetch (Sections 2.2, 3.1 and 3.3.2 of the paper).
    Encoded over XDR with an RPC-compatible XID first word so the generic
    {!Slice_net.Rpc} endpoint carries them. *)

type kind = K_remove | K_commit | K_mirror_write | K_truncate

type msg =
  | Intent of { op_id : int64; kind : kind; fh : Slice_nfs.Fh.t; participants : int list }
      (** Declare a multi-site operation before acting; the coordinator
          logs it and will drive redo if no completion arrives. *)
  | Complete of { op_id : int64 }
  | Remove_file of { fh : Slice_nfs.Fh.t; sites : int list }
      (** Coordinator-orchestrated remove of all backing objects. *)
  | Commit_file of { fh : Slice_nfs.Fh.t; sites : int list }
      (** NFS V3 write commitment across the file's storage sites. *)
  | Get_map of { fh : Slice_nfs.Fh.t; first_block : int; count : int }
      (** Fetch a fragment of the per-file block map. *)

type reply =
  | Ack
  | Nack
  | Map of { first_block : int; sites : int array }

val encode_msg : xid:int -> msg -> bytes
val decode_msg : bytes -> int * msg
val encode_reply : xid:int -> reply -> bytes
val decode_reply : bytes -> int * reply

exception Malformed
