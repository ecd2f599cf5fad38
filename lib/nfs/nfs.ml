type time = float

(* The I/O-tracked fields are mutable so the µproxy's attribute cache can
   fold write/read traffic into a cached record in place on the per-packet
   path (no replacement record per reply). *)
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

let default_attr ~ftype ~fileid ~now =
  {
    ftype;
    mode = (match ftype with Fh.Dir -> 0o755 | _ -> 0o644);
    nlink = (match ftype with Fh.Dir -> 2 | _ -> 1);
    uid = 0;
    gid = 0;
    size = 0L;
    used = 0L;
    fileid;
    atime = now;
    mtime = now;
    ctime = now;
  }

let data_attr (fh : Fh.t) size =
  let size = Int64.of_int size in
  {
    ftype = fh.ftype;
    mode = (match fh.ftype with Fh.Dir -> 0o755 | _ -> 0o644);
    nlink = (match fh.ftype with Fh.Dir -> 2 | _ -> 1);
    uid = 0;
    gid = 0;
    size;
    used = size;
    fileid = fh.file_id;
    atime = 0.0;
    mtime = 0.0;
    ctime = 0.0;
  }

type sattr = {
  set_mode : int option;
  set_uid : int option;
  set_gid : int option;
  set_size : int64 option;
  set_atime : time option;
  set_mtime : time option;
}

let sattr_empty =
  { set_mode = None; set_uid = None; set_gid = None; set_size = None; set_atime = None; set_mtime = None }

let sattr_size size = { sattr_empty with set_size = Some size }
let sattr_times ?mtime () = { sattr_empty with set_mtime = mtime }

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

let status_name = function
  | OK -> "NFS3_OK"
  | ERR_PERM -> "NFS3ERR_PERM"
  | ERR_NOENT -> "NFS3ERR_NOENT"
  | ERR_IO -> "NFS3ERR_IO"
  | ERR_EXIST -> "NFS3ERR_EXIST"
  | ERR_NOTDIR -> "NFS3ERR_NOTDIR"
  | ERR_ISDIR -> "NFS3ERR_ISDIR"
  | ERR_NOSPC -> "NFS3ERR_NOSPC"
  | ERR_NOTEMPTY -> "NFS3ERR_NOTEMPTY"
  | ERR_STALE -> "NFS3ERR_STALE"
  | ERR_BADHANDLE -> "NFS3ERR_BADHANDLE"
  | ERR_JUKEBOX -> "NFS3ERR_JUKEBOX"
  | ERR_MISDIRECTED -> "SLICE_MISDIRECTED"

type wdata = Data of string | Synthetic of int

let wdata_length = function Data s -> String.length s | Synthetic n -> n

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
  | Symlink of Fh.t * string * string
  | Remove of Fh.t * string
  | Rmdir of Fh.t * string
  | Rename of Fh.t * string * Fh.t * string
  | Link of Fh.t * Fh.t * string
  | Readdir of Fh.t * int64 * int
  | Fsstat of Fh.t
  | Commit of Fh.t * int64 * int

let call_name = function
  | Null -> "null"
  | Getattr _ -> "getattr"
  | Setattr _ -> "setattr"
  | Lookup _ -> "lookup"
  | Access _ -> "access"
  | Readlink _ -> "readlink"
  | Read _ -> "read"
  | Write _ -> "write"
  | Create _ -> "create"
  | Mkdir _ -> "mkdir"
  | Symlink _ -> "symlink"
  | Remove _ -> "remove"
  | Rmdir _ -> "rmdir"
  | Rename _ -> "rename"
  | Link _ -> "link"
  | Readdir _ -> "readdir"
  | Fsstat _ -> "fsstat"
  | Commit _ -> "commit"

let proc_of_call = function
  | Null -> 0
  | Getattr _ -> 1
  | Setattr _ -> 2
  | Lookup _ -> 3
  | Access _ -> 4
  | Readlink _ -> 5
  | Read _ -> 6
  | Write _ -> 7
  | Create _ -> 8
  | Mkdir _ -> 9
  | Symlink _ -> 10
  | Remove _ -> 12
  | Rmdir _ -> 13
  | Rename _ -> 14
  | Link _ -> 15
  | Readdir _ -> 16
  | Fsstat _ -> 18
  | Commit _ -> 21

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
  | RRead of wdata * bool * fattr
  | RWrite of int * stable_how * fattr
  | RCreate of Fh.t * fattr
  | RMkdir of Fh.t * fattr
  | RSymlink of Fh.t * fattr
  | RRemove
  | RRmdir
  | RRename
  | RLink of fattr
  | RReaddir of entry list * int64 * bool
  | RFsstat of fsinfo
  | RCommit of fattr

type response = (reply, status) result

let apply_sattr attr s ~now =
  let attr = match s.set_mode with Some m -> { attr with mode = m } | None -> attr in
  let attr = match s.set_uid with Some u -> { attr with uid = u } | None -> attr in
  let attr = match s.set_gid with Some g -> { attr with gid = g } | None -> attr in
  let attr =
    match s.set_size with
    | Some sz -> { attr with size = sz; used = sz; mtime = now }
    | None -> attr
  in
  let attr = match s.set_atime with Some t -> { attr with atime = t } | None -> attr in
  let attr = match s.set_mtime with Some t -> { attr with mtime = t } | None -> attr in
  { attr with ctime = now }
