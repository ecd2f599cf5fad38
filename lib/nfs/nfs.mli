(** NFS V3 protocol subset (the operations of the paper's Table 1, plus
    [access], [readlink], [fsstat] and [commit], which the SPECsfs97 mix
    and the untar trace exercise). *)

type time = float
(** Seconds since epoch; encoded as (seconds, nanoseconds) on the wire. *)

type fattr = {
  ftype : Fh.ftype;
  mode : int;
  nlink : int;
  uid : int;
  gid : int;
  mutable size : int64;
  mutable used : int64;
  fileid : int64;
  mutable atime : time;
  mutable mtime : time;
  mutable ctime : time;
}
(** The I/O-tracked fields ([size]/[used]/times) are mutable so the
    µproxy's attribute cache can update a cached record in place on the
    per-packet path. *)

val default_attr : ftype:Fh.ftype -> fileid:int64 -> now:time -> fattr

val data_attr : Fh.t -> int -> fattr
(** [data_attr fh size]: the attributes a data server (storage node or
    small-file server) answers with for a file of [size] bytes —
    {!default_attr} of the handle's type and fileID at time 0, with
    [size] and [used] both set. One record, and one boxed size shared by
    the two fields. *)

type sattr = {
  set_mode : int option;
  set_uid : int option;
  set_gid : int option;
  set_size : int64 option;
  set_atime : time option;
  set_mtime : time option;
}

val sattr_empty : sattr
val sattr_size : int64 -> sattr
val sattr_times : ?mtime:time -> unit -> sattr

type status =
  | OK
  | ERR_PERM
  | ERR_NOENT
  | ERR_IO
  | ERR_EXIST
  | ERR_NOTDIR
  | ERR_ISDIR
  | ERR_NOSPC
  | ERR_NOTEMPTY
  | ERR_STALE
  | ERR_BADHANDLE
  | ERR_JUKEBOX
  | ERR_MISDIRECTED
      (** Not in RFC 1813: a Slice server's answer to a request routed by a
          stale µproxy routing table; triggers a lazy table refresh
          (Section 3.3.1 of the paper). *)

val status_name : status -> string

type wdata =
  | Data of string  (** materialized bytes (small-file paths, tests) *)
  | Synthetic of int
      (** bulk payload of the given length, carried as wire size only *)

val wdata_length : wdata -> int

type stable_how = Unstable | Data_sync | File_sync

type call =
  | Null
  | Getattr of Fh.t
  | Setattr of Fh.t * sattr
  | Lookup of Fh.t * string
  | Access of Fh.t * int
  | Readlink of Fh.t
  | Read of Fh.t * int64 * int
  | Write of Fh.t * int64 * stable_how * wdata
  | Create of Fh.t * string
  | Mkdir of Fh.t * string
  | Symlink of Fh.t * string * string  (** dir, name, target *)
  | Remove of Fh.t * string
  | Rmdir of Fh.t * string
  | Rename of Fh.t * string * Fh.t * string
  | Link of Fh.t * Fh.t * string  (** file, destination dir, new name *)
  | Readdir of Fh.t * int64 * int  (** dir, cookie, max entries *)
  | Fsstat of Fh.t
  | Commit of Fh.t * int64 * int

val call_name : call -> string

val proc_of_call : call -> int
(** RFC 1813 procedure numbers. *)

type entry = { entry_id : int64; entry_name : string; entry_cookie : int64 }

type fsinfo = {
  total_bytes : int64;
  free_bytes : int64;
  total_files : int64;
  free_files : int64;
}

type reply =
  | RNull
  | RGetattr of fattr
  | RSetattr of fattr
  | RLookup of Fh.t * fattr
  | RAccess of int * fattr
  | RReadlink of string * fattr
  | RRead of wdata * bool * fattr  (** data, eof, post-op attr *)
  | RWrite of int * stable_how * fattr  (** count written *)
  | RCreate of Fh.t * fattr
  | RMkdir of Fh.t * fattr
  | RSymlink of Fh.t * fattr
  | RRemove
  | RRmdir
  | RRename
  | RLink of fattr
  | RReaddir of entry list * int64 * bool  (** entries, cookie, eof *)
  | RFsstat of fsinfo
  | RCommit of fattr

type response = (reply, status) result

val apply_sattr : fattr -> sattr -> now:time -> fattr
(** Attribute update semantics: applies requested fields and bumps ctime. *)
