module Engine = Slice_sim.Engine
module Net = Slice_net.Net
module Rpc = Slice_net.Rpc
module Packet = Slice_net.Packet
module Nfs = Slice_nfs.Nfs
module Fh = Slice_nfs.Fh
module Codec = Slice_nfs.Codec
module Routekey = Slice_nfs.Routekey
module Dirlist = Slice_nfs.Dirlist
module Wal = Slice_wal.Wal
module Host = Slice_storage.Host
module Tenure = Slice_storage.Tenure
module Nfs_endpoint = Slice_storage.Nfs_endpoint
module Ctrl = Slice_storage.Ctrl
module Enc = Slice_xdr.Xdr.Enc
module Dec = Slice_xdr.Xdr.Dec
module Trace = Slice_trace.Trace

type config = {
  logical_id : int;
  nsites : int;
  policy : Routekey.name_policy;
  resolve : int -> Packet.addr;
  data_sites : Fh.t -> Packet.addr list;
  coordinator : unit -> Packet.addr option;
  mirror_new_files : bool;
  cap_secret : string option;
  also_owns : int list;
}

(* CPU per name-space request (~166 µs: the paper's 6000 ops/s
   saturation; log records land around 83 bytes/update, matching its
   ~0.5 MB/s of log traffic at saturation) and per peer message. *)
let per_op_cost = 166e-6
let per_peer_op_cost = 60e-6

type cell = {
  mutable attr : Nfs.fattr;
  mutable entries : int; (* live name entries, for directories *)
  mutable symlink : string option;
}

(* One logical site's state: the cells and entries whose site it is, the
   dedup rows of the peer updates applied to them, and the two-phase
   updates whose local half is here. Its journal is the WAL's image for
   the site, so the site moves, fails over and restarts as one unit. *)
type site = {
  id : int;
  attrs : (int64, cell) Hashtbl.t;
  dir_index : Dirlist.index; (* each directory's sorted listing of this site's entries *)
  applied : (int64, unit) Hashtbl.t; (* peer-op dedup *)
  prepares : (int64, int * string) Hashtbl.t; (* op_id -> (peer site, msg) awaiting commit *)
}

type t = {
  host : Host.t;
  cfg : config;
  sites : site array; (* by logical site id *)
  rpc : Rpc.t;
  coord : int -> Packet.addr; (* the coordinator's holder *)
  trace : Trace.t option;
  tenure : Tenure.t; (* logical sites hosted here, drains, load, fencing lease *)
  wal : Wal.t; (* one image per site, one group commit for all *)
  mutable dirty : bool; (* the running fiber logged a record no round covers *)
  mutable next_file : int;
  mutable next_op : int64;
  mutable ops : int;
  mutable peer_ops : int;
  mutable peer_calls : int;
}

(* ---- log records ---- *)

let rt_add_entry = 1
let rt_remove_entry = 2
let rt_set_cell = 3
let rt_remove_cell = 4
let rt_prepare = 5
let rt_commit = 6
let rt_applied = 7
let rt_snapshot = 8

let enc_cell e (fid, (c : cell)) =
  Enc.u64 e fid;
  Peer.enc_attr e c.attr;
  Enc.u32 e c.entries;
  match c.symlink with
  | None -> Enc.bool e false
  | Some s ->
      Enc.bool e true;
      Enc.str e s

let dec_cell d =
  let fid = Dec.u64 d in
  let attr = Peer.dec_attr d in
  let entries = Dec.u32 d in
  let symlink = if Dec.bool d then Some (Dec.str d) else None in
  (fid, { attr; entries; symlink })

(* Record payload writers: each encodes straight into the log's pending
   area through [Wal.append_with]. *)
let enc_add_entry e (parent, name, child) =
  Enc.u64 e parent;
  Enc.str e name;
  Codec.enc_fh e child

let enc_remove_entry e (parent, name) =
  Enc.u64 e parent;
  Enc.str e name

let enc_prepare e (op_id, site, msg) =
  Enc.u64 e op_id;
  Enc.u32 e site;
  Enc.opaque e msg

(* Every record goes to the journal of the site whose state it changes:
   a cell's to its handle's attribute site, an entry's to its entry
   site, a dedup row's to the site of the cell or entry it guards, a
   prepare's and its commit's to the site of the request's local half.
   Helpers only log; a fiber forces the journal ([harden]) just before
   something leaves the server: a peer prepare, a call to the
   coordinator, a reply ([answer]). [log] sets [dirty] until then, so it
   never survives a switch of fibers, and a request that logged nothing
   waits on no round. An [append]ed record, a commit, rides the next
   round; a re-send makes it good. *)
let append t (s : site) rtype write v = ignore (Wal.append_with t.wal ~site:s.id ~rtype write v)

let log t s rtype write v =
  append t s rtype write v;
  t.dirty <- true

let harden ?(span = Trace.null) t =
  if t.dirty then begin
    t.dirty <- false;
    Wal.sync ~span t.wal
  end

let log_cell t s fid c = log t s rt_set_cell enc_cell (fid, c)
let log_add_entry t s parent name child = log t s rt_add_entry enc_add_entry (parent, name, child)
let log_remove_entry t s parent name = log t s rt_remove_entry enc_remove_entry (parent, name)
let log_remove_cell t s fid = log t s rt_remove_cell Enc.u64 fid

(* ---- helpers ---- *)

let[@inline] now t = Engine.now t.host.Host.eng

let fresh_op t =
  t.next_op <- Int64.add t.next_op 1L;
  t.next_op

let site t i = t.sites.(i)
let owns t site = Tenure.owns t.tenure site
let local_cell (s : site) fid = Hashtbl.find_opt s.attrs fid

(* [attr_site] must be a logical site this server currently owns (and is
   not drained), or the minted handle's attribute ops would bounce.  The
   fileID keeps the server's own id as residue so ids stay volume-unique
   no matter how sites move. *)
let mint_fh t ~ftype ~mirrored ~attr_site =
  t.next_file <- t.next_file + 1;
  let fh =
    {
      Fh.file_id = Int64.of_int ((t.next_file * 4096) + t.cfg.logical_id);
      gen = 1;
      ftype;
      mirrored;
      attr_site;
      cap = 0L;
    }
  in
  match t.cfg.cap_secret with
  | Some secret -> Slice_nfs.Cap.seal ~secret fh
  | None -> fh

(* Preferred site for cells not tied to an entry site: the server's own
   primary when it still owns it (the pre-reconfiguration behavior),
   otherwise its lowest owned site not being drained. *)
let mint_site t =
  let usable s = owns t s && not (Tenure.in_drain t.tenure s) in
  if usable t.cfg.logical_id then t.cfg.logical_id
  else
    match List.find_opt usable (Tenure.owned_sites t.tenure) with
    | Some s -> s
    | None -> t.cfg.logical_id

let attr_of_cell (c : cell) =
  match c.attr.Nfs.ftype with
  | Fh.Dir -> { c.attr with size = Int64.of_int (c.entries * 24); used = Int64.of_int (c.entries * 24) }
  | _ -> c.attr

(* Link-count change on a local attribute cell of site [s], shared by the
   local and peer paths; the last link frees the cell. Returns the
   attributes as of the change. *)
let apply_nlink t s fid (c : cell) delta =
  c.attr <- { c.attr with nlink = c.attr.Nfs.nlink + delta; ctime = now t };
  let attr = attr_of_cell c in
  if c.attr.Nfs.nlink <= 0 then begin
    Hashtbl.remove s.attrs fid;
    log_remove_cell t s fid
  end
  else log_cell t s fid c;
  attr

(* Entry-count change on a local directory cell of site [s], shared by
   the local and peer paths. *)
let apply_entry_count t s fid (c : cell) ~delta ~mtime =
  c.entries <- c.entries + delta;
  c.attr <- { c.attr with mtime; ctime = now t };
  log_cell t s fid c

let entry_site t (dfh : Fh.t) name =
  match t.cfg.policy with
  | Routekey.Mkdir_switching -> dfh.Fh.attr_site
  | Routekey.Name_hashing -> Routekey.name_site ~nsites:t.cfg.nsites dfh name

(* ---- peer communication ---- *)

(* An encoded peer message, its xid drawn here, goes to the site's holder
   by the one re-send rule, with [Rpc.call]'s first timeout, 0.1 s. *)
let peer_call ?(span = Trace.null) t ~site payload =
  t.peer_calls <- t.peer_calls + 1;
  Bytes.set_int32_be payload 0 (Int32.of_int (Rpc.fresh_xid t.rpc));
  Peer.decode_reply
    (Rpc.call_role t.rpc ~span ~timeout:0.1 ~holder:t.cfg.resolve ~site ~dst:(t.cfg.resolve site)
       ~dport:Peer.port ~refused:Peer.misdirected ~extra_size:0 payload)

let commit t s op_id =
  Hashtbl.remove s.prepares op_id;
  append t s rt_commit Enc.u64 op_id

(* Two-phase cross-site update from [home], the site of the request's
   local half: log the prepared message and force it with whatever the
   request logged before it (the write-ahead point), apply it at the peer
   (which dedups and logs), then append the commit. Recovery re-sends
   prepared-but-uncommitted messages. The message is encoded once. *)
let peer_update ?(span = Trace.null) t ~home ~site build =
  let op_id = fresh_op t in
  let payload = Peer.encode_msg ~xid:0 (build op_id) in
  let msg_bytes = Bytes.to_string payload in
  Hashtbl.replace home.prepares op_id (site, msg_bytes);
  log t home rt_prepare enc_prepare (op_id, site, msg_bytes);
  harden ~span t;
  let reply = peer_call ~span t ~site payload in
  commit t home op_id;
  reply

(* ---- data-plane cleanup (remove / truncate) ---- *)

let remove_file_data ?(span = Trace.null) t (fh : Fh.t) =
  (* Fire-and-forget: the coordinator's intention log owns completion.
     An unreachable coordinator ends the fiber, not the run; no intent
     was logged then, so the data stays behind. *)
  match (t.cfg.data_sites fh, t.cfg.coordinator ()) with
  | [], _ | _, None -> ()
  | sites, Some _ ->
      harden ~span t;
      Engine.spawn t.host.Host.eng (fun () ->
          let msg = Ctrl.Remove_file { fh; sites = Array.of_list sites } in
          try ignore (Ctrl.call t.rpc ~span:Trace.null ~holder:t.coord msg) with Rpc.Timeout -> ())

(* ---- attribute access across sites ---- *)

let attr_reply = function Peer.Rattr a -> Ok a | Peer.Rerr st -> Error st | _ -> Error Nfs.ERR_IO
let ack_reply = function Peer.Ack -> Ok () | Peer.Rerr st -> Error st | _ -> Error Nfs.ERR_IO

let child_attr ?(span = Trace.null) t (fh : Fh.t) =
  if owns t fh.Fh.attr_site then
    match local_cell (site t fh.Fh.attr_site) fh.Fh.file_id with
    | Some c -> Ok (attr_of_cell c)
    | None -> Error Nfs.ERR_STALE
  else attr_reply (peer_call ~span t ~site:fh.Fh.attr_site (Peer.encode_msg ~xid:0 (Peer.Getattr fh)))

(* The local halves below pass [handle]'s update gate: a site this
   server owns but drains takes the peer path, whose re-send waits for
   the move to land, so no change lands behind a migration's back. *)
let bump_nlink ?(span = Trace.null) t ~home (fh : Fh.t) delta =
  if Tenure.admit_write t.tenure fh.Fh.attr_site then
    let s = site t fh.Fh.attr_site in
    match local_cell s fh.Fh.file_id with
    | None -> Error Nfs.ERR_STALE
    | Some c -> Ok (apply_nlink t s fh.Fh.file_id c delta)
  else
    attr_reply
      (peer_update ~span t ~home ~site:fh.Fh.attr_site (fun op_id -> Peer.Nlink { op_id; fh; delta }))

let bump_parent ?(span = Trace.null) t ~home (dfh : Fh.t) delta =
  if not (Tenure.admit_write t.tenure dfh.Fh.attr_site) then
    ignore
      (peer_update ~span t ~home ~site:dfh.Fh.attr_site (fun op_id ->
           Peer.Entry_count { op_id; dir = dfh; delta; mtime = now t }))
  else
    let s = site t dfh.Fh.attr_site in
    match local_cell s dfh.Fh.file_id with
    | Some c -> apply_entry_count t s dfh.Fh.file_id c ~delta ~mtime:(now t)
    | None -> ()

(* ---- NFS request handling ---- *)

let misdirected = Error Nfs.ERR_MISDIRECTED

(* While a failure detector renews the lease the server serves
   normally; once it expires the server wedges — every request bounces
   SLICE_MISDIRECTED — so a zombie deposed by a takeover cannot serve
   state from its dead incarnation. *)
let wedged t = Tenure.wedged t.tenure ~now:(now t)

(* Run [ok] on site [i] if its gate admits the request, else bounce it.
   Reads pass a drained site; updates bounce, so no name-space update can
   land behind a migration's back, and the µproxy retries after the move
   commits or aborts. *)
let reading t i ok = if Tenure.admit_read t.tenure i then ok (site t i) else misdirected
let writing t i ok = if Tenure.admit_write t.tenure i then ok (site t i) else misdirected

(* Install a name entry on its site [es], then count it at the parent's
   cell, wherever that lives: a create, the local branch of
   [add_entry_somewhere] and a peer's [Add_entry] all come here. *)
let add_entry_here ?(span = Trace.null) t es (dfh : Fh.t) name child =
  Dirlist.add es.dir_index dfh.Fh.file_id name child;
  log_add_entry t es dfh.Fh.file_id name child;
  bump_parent ~span t ~home:es dfh 1

(* Drop a name entry held on its site [es]. The child's link count, whose
   cell usually lives with the entry, changes by [delta] before the
   parent's count, which may live at another site: the local records then
   go out in the round of that update's prepare. Returns the child's
   attributes as of the change. *)
let unlink ?(span = Trace.null) t es (dfh : Fh.t) name child delta =
  Dirlist.remove es.dir_index dfh.Fh.file_id name;
  log_remove_entry t es dfh.Fh.file_id name;
  let attr = bump_nlink ~span t ~home:es child delta in
  bump_parent ~span t ~home:es dfh (-1);
  attr

let do_create ?(span = Trace.null) t es (dfh : Fh.t) name ~ftype ~symlink =
  if dfh.Fh.ftype <> Fh.Dir then Error Nfs.ERR_NOTDIR
  else if Dirlist.mem es.dir_index dfh.Fh.file_id name then Error Nfs.ERR_EXIST
  else begin
    let mirrored = ftype = Fh.Reg && t.cfg.mirror_new_files in
    (* The attribute cell lives on the entry's own site, so a migration
       of that site carries entry and attrs together. *)
    let fh = mint_fh t ~ftype ~mirrored ~attr_site:es.id in
    let attr = Nfs.default_attr ~ftype ~fileid:fh.Fh.file_id ~now:(now t) in
    let c = { attr; entries = 0; symlink } in
    Hashtbl.replace es.attrs fh.Fh.file_id c;
    log_cell t es fh.Fh.file_id c;
    add_entry_here ~span t es dfh name fh;
    let a = attr_of_cell c in
    Ok
      (match ftype with
      | Fh.Dir -> Nfs.RMkdir (fh, a)
      | Fh.Lnk -> Nfs.RSymlink (fh, a)
      | _ -> Nfs.RCreate (fh, a))
  end

(* Install [name] in [dfh] at its entry site [es], here or at a peer;
   [home] is the site of the request's local half. *)
let add_entry_somewhere ?(span = Trace.null) t ~home (dfh : Fh.t) name es child =
  if not (Tenure.admit_write t.tenure es) then
    ack_reply
      (peer_update ~span t ~home ~site:es (fun op_id -> Peer.Add_entry { op_id; dir = dfh; name; child }))
  else
    let es = site t es in
    if Dirlist.mem es.dir_index dfh.Fh.file_id name then Error Nfs.ERR_EXIST
    else begin
      add_entry_here ~span t es dfh name child;
      Ok ()
    end

(* Redirected mkdir (mkdir switching): this site was chosen by the µproxy
   to host the orphaned directory; mint it here, then install the name
   entry at the parent's site [es] as a two-phase peer update. *)
let do_remote_mkdir ?(span = Trace.null) t (dfh : Fh.t) name es =
  let ms = site t (mint_site t) in
  let fh = mint_fh t ~ftype:Fh.Dir ~mirrored:false ~attr_site:ms.id in
  let attr = Nfs.default_attr ~ftype:Fh.Dir ~fileid:fh.Fh.file_id ~now:(now t) in
  let c = { attr; entries = 0; symlink = None } in
  Hashtbl.replace ms.attrs fh.Fh.file_id c;
  log_cell t ms fh.Fh.file_id c;
  match add_entry_somewhere ~span t ~home:ms dfh name es fh with
  | Ok () -> Ok (Nfs.RMkdir (fh, attr_of_cell c))
  | Error st ->
      Hashtbl.remove ms.attrs fh.Fh.file_id;
      log_remove_cell t ms fh.Fh.file_id;
      Error st

let handle t span (call : Nfs.call) : Nfs.response =
  t.ops <- t.ops + 1;
  (* Expired lease: the server is (or must assume it is) deposed. Wedge
     everything — reads included, since a takeover peer may already be
     serving newer state for our sites. The µproxy treats the bounce
     like any soft-state miss: refresh tables, retry at the new owner. *)
  if wedged t then begin
    Tenure.note_fence t.tenure;
    misdirected
  end
  else
  match call with
  | Nfs.Null -> Ok Nfs.RNull
  | Nfs.Getattr fh ->
      reading t fh.Fh.attr_site (fun s ->
          match local_cell s fh.Fh.file_id with
          | Some c -> Ok (Nfs.RGetattr (attr_of_cell c))
          | None -> Error Nfs.ERR_STALE)
  | Nfs.Setattr (fh, sa) ->
      writing t fh.Fh.attr_site (fun s ->
          match local_cell s fh.Fh.file_id with
          | None -> Error Nfs.ERR_STALE
          | Some c ->
              let old_size = c.attr.Nfs.size in
              c.attr <- Nfs.apply_sattr c.attr sa ~now:(now t);
              log_cell t s fh.Fh.file_id c;
              (match sa.Nfs.set_size with
              | Some nsz when fh.Fh.ftype = Fh.Reg && Int64.compare nsz old_size < 0 ->
                  (* Shrinking truncate: multi-site data trim through the
                     coordinator's intention protocol. *)
                  if Int64.compare nsz 0L = 0 then remove_file_data ~span t fh
              | _ -> ());
              Ok (Nfs.RSetattr (attr_of_cell c)))
  | Nfs.Lookup (dfh, name) ->
      if dfh.Fh.ftype <> Fh.Dir then Error Nfs.ERR_NOTDIR
      else
        reading t (entry_site t dfh name) (fun s ->
            match Dirlist.find s.dir_index dfh.Fh.file_id name with
            | None -> Error Nfs.ERR_NOENT
            | Some child -> (
                match child_attr ~span t child with
                | Ok a -> Ok (Nfs.RLookup (child, a))
                | Error st -> Error st))
  | Nfs.Access (fh, mode) ->
      reading t fh.Fh.attr_site (fun s ->
          match local_cell s fh.Fh.file_id with
          | Some c -> Ok (Nfs.RAccess (mode, attr_of_cell c))
          | None -> Error Nfs.ERR_STALE)
  | Nfs.Readlink fh ->
      reading t fh.Fh.attr_site (fun s ->
          match local_cell s fh.Fh.file_id with
          | Some ({ symlink = Some target; _ } as c) -> Ok (Nfs.RReadlink (target, attr_of_cell c))
          | Some _ -> Error Nfs.ERR_IO
          | None -> Error Nfs.ERR_STALE)
  | Nfs.Create (dfh, name) ->
      writing t (entry_site t dfh name) (fun s -> do_create ~span t s dfh name ~ftype:Fh.Reg ~symlink:None)
  | Nfs.Mkdir (dfh, name) ->
      if dfh.Fh.ftype <> Fh.Dir then Error Nfs.ERR_NOTDIR
      else begin
        let es = entry_site t dfh name in
        (* elsewhere, the µproxy redirected this mkdir here on purpose *)
        if owns t es then writing t es (fun s -> do_create ~span t s dfh name ~ftype:Fh.Dir ~symlink:None)
        else do_remote_mkdir ~span t dfh name es
      end
  | Nfs.Symlink (dfh, name, target) ->
      writing t (entry_site t dfh name) (fun s ->
          do_create ~span t s dfh name ~ftype:Fh.Lnk ~symlink:(Some target))
  | Nfs.Remove (dfh, name) ->
      writing t (entry_site t dfh name) (fun s ->
          match Dirlist.find s.dir_index dfh.Fh.file_id name with
          | None -> Error Nfs.ERR_NOENT
          | Some child when child.Fh.ftype = Fh.Dir -> Error Nfs.ERR_ISDIR
          | Some child ->
              (match unlink ~span t s dfh name child (-1) with
              | Ok a when a.Nfs.nlink <= 0 && child.Fh.ftype = Fh.Reg -> remove_file_data ~span t child
              | _ -> ());
              Ok Nfs.RRemove)
  | Nfs.Rmdir (dfh, name) ->
      writing t (entry_site t dfh name) (fun s ->
          match Dirlist.find s.dir_index dfh.Fh.file_id name with
          | None -> Error Nfs.ERR_NOENT
          | Some child when child.Fh.ftype <> Fh.Dir -> Error Nfs.ERR_NOTDIR
          | Some child -> (
              match child_attr ~span t child with
              | Error st -> Error st
              | Ok a when Int64.compare a.Nfs.size 0L > 0 -> Error Nfs.ERR_NOTEMPTY
              (* the entry may have gone while [child_attr] asked a peer *)
              | Ok _ when not (Dirlist.mem s.dir_index dfh.Fh.file_id name) -> Error Nfs.ERR_NOENT
              | Ok a ->
                  ignore (unlink ~span t s dfh name child (-a.Nfs.nlink));
                  Ok Nfs.RRmdir))
  | Nfs.Rename (odfh, oname, ndfh, nname) ->
      writing t (entry_site t odfh oname) (fun s ->
          match Dirlist.find s.dir_index odfh.Fh.file_id oname with
          | None -> Error Nfs.ERR_NOENT
          | Some child -> (
              match add_entry_somewhere ~span t ~home:s ndfh nname (entry_site t ndfh nname) child with
              | Error st -> Error st
              (* the old entry may have gone while a peer added the new *)
              | Ok () when not (Dirlist.mem s.dir_index odfh.Fh.file_id oname) -> Error Nfs.ERR_NOENT
              | Ok () ->
                  (* a zero link-count change bumps the renamed object's ctime *)
                  ignore (unlink ~span t s odfh oname child 0);
                  Ok Nfs.RRename))
  | Nfs.Link (file, ndfh, nname) ->
      writing t (entry_site t ndfh nname) (fun s ->
          if file.Fh.ftype = Fh.Dir then Error Nfs.ERR_ISDIR
          else
            match add_entry_somewhere ~span t ~home:s ndfh nname s.id file with
            | Error st -> Error st
            | Ok () -> (
                match bump_nlink ~span t ~home:s file 1 with
                | Ok a -> Ok (Nfs.RLink a)
                | Error st -> Error st))
  | Nfs.Readdir (dfh, cookie, count) ->
      if dfh.Fh.ftype <> Fh.Dir then Error Nfs.ERR_NOTDIR
      else begin
        (* Under name hashing the µproxy iterates the directory site by
           site, tagging the requested site into the cookie's high bits;
           decode it, serve that site's listing (one server may own
           several sites) and answer with the site-local cookie — the
           µproxy re-tags it. Under mkdir switching all of a directory's
           entries live at its attribute site. *)
        let es, start =
          match t.cfg.policy with
          | Routekey.Mkdir_switching -> (dfh.Fh.attr_site, Int64.to_int cookie)
          | Routekey.Name_hashing ->
              ( Int64.to_int (Int64.shift_right_logical cookie 32) mod t.cfg.nsites,
                Int64.to_int (Int64.logand cookie 0xFFFF_FFFFL) )
        in
        if not (Tenure.admit_read t.tenure es) then misdirected
        else Ok (Dirlist.page (Dirlist.listing (site t es).dir_index dfh.Fh.file_id) ~start ~count)
      end
  | Nfs.Fsstat _ ->
      Ok
        (Nfs.RFsstat
           {
             total_bytes = 1_000_000_000_000L;
             free_bytes = 900_000_000_000L;
             total_files = 1_000_000_000L;
             free_files = 999_000_000L;
           })
  | Nfs.Read _ | Nfs.Write _ | Nfs.Commit _ -> Error Nfs.ERR_BADHANDLE

(* ---- peer request handling ---- *)

let mark_applied t s op_id =
  Hashtbl.replace s.applied op_id ();
  log t s rt_applied Enc.u64 op_id

(* A peer message passes [handle]'s gate, so no update lands behind a
   migration's back; the caller re-sends a refused one to the holder. *)
let handle_peer t span (msg : Peer.msg) : Peer.reply =
  t.peer_ops <- t.peer_ops + 1;
  let i =
    match msg with
    | Peer.Getattr fh | Peer.Nlink { fh; _ } -> fh.Fh.attr_site
    | Peer.Entry_count { dir; _ } -> dir.Fh.attr_site
    | Peer.Add_entry { dir; name; _ } -> entry_site t dir name
  in
  if wedged t then begin
    Tenure.note_fence t.tenure;
    Peer.Rerr Nfs.ERR_MISDIRECTED
  end
  else if not ((match msg with Peer.Getattr _ -> Tenure.admit_read | _ -> Tenure.admit_write) t.tenure i)
  then Peer.Rerr Nfs.ERR_MISDIRECTED
  else
    let s = site t i in
    match msg with
    | Peer.Getattr fh -> (
        match local_cell s fh.Fh.file_id with
        | Some c -> Peer.Rattr (attr_of_cell c)
        | None -> Peer.Rerr Nfs.ERR_STALE)
    | Peer.Nlink { op_id; fh; delta } -> (
        match local_cell s fh.Fh.file_id with
        | None -> Peer.Rerr Nfs.ERR_STALE
        | Some c when Hashtbl.mem s.applied op_id -> Peer.Rattr (attr_of_cell c)
        | Some c ->
            let attr = apply_nlink t s fh.Fh.file_id c delta in
            mark_applied t s op_id;
            Peer.Rattr attr)
    | Peer.Entry_count { op_id; dir; delta; mtime } ->
        if not (Hashtbl.mem s.applied op_id) then begin
          (match local_cell s dir.Fh.file_id with
          | Some c -> apply_entry_count t s dir.Fh.file_id c ~delta ~mtime
          | None -> ());
          mark_applied t s op_id
        end;
        Peer.Ack
    | Peer.Add_entry { op_id; dir; name; child } ->
        if Hashtbl.mem s.applied op_id then Peer.Ack
        else if Dirlist.mem s.dir_index dir.Fh.file_id name then Peer.Rerr Nfs.ERR_EXIST
        else begin
          (* the dedup row goes in before the parent's count can force a
             round, so the two land together *)
          mark_applied t s op_id;
          add_entry_here ~span t s dir name child;
          Peer.Ack
        end

(* The request roots: a reply leaves once its request's records are stable. *)
let answer t span reply =
  harden ~span t;
  reply

(* ---- service wiring ---- *)

let new_site id =
  {
    id;
    (* lint: bounded — attribute cells: dataless-manager state, WAL+checkpoint-backed (§3.4) *)
    attrs = Hashtbl.create 1024;
    (* lint: bounded — one row per non-empty directory, dropped when its last entry goes *)
    dir_index = Hashtbl.create 256;
    (* lint: bounded — not bounded yet: applied-op dedup, one row per peer op ever applied; nothing prunes it and checkpoint re-logs every id (ROADMAP smaller item D) *)
    applied = Hashtbl.create 64;
    (* lint: bounded — one row per in-flight two-phase op; commit/abort removes it *)
    prepares = Hashtbl.create 16;
  }

let install_root t =
  (* runs as a fiber at time 0: the log sync parks *)
  if t.cfg.logical_id = 0 then begin
    let c =
      {
        attr = Nfs.default_attr ~ftype:Fh.Dir ~fileid:Fh.root.Fh.file_id ~now:0.0;
        entries = 0;
        symlink = None;
      }
    in
    let s = site t Fh.root.Fh.attr_site in
    Hashtbl.replace s.attrs Fh.root.Fh.file_id c;
    log_cell t s Fh.root.Fh.file_id c;
    harden t
  end

(* lint: F1 ok — bootstrap: installs the root cell before the server is exposed to clients; no deposed instance can exist yet *)
let attach host ?trace ?qos cfg =
  let t =
    {
      host;
      cfg;
      trace;
      sites = Array.init (max cfg.nsites (cfg.logical_id + 1)) new_site;
      rpc = Rpc.create host.Host.net host.Host.addr ~port:2053;
      coord = Ctrl.holder cfg.coordinator;
      tenure = Tenure.create (cfg.logical_id :: cfg.also_owns);
      wal =
        (match host.Host.disk with
        | Some disk -> Wal.create ~eng:host.Host.eng ~disk ~name:"dir.wal" ()
        | None -> Wal.create ~name:"dir.wal" ());
      dirty = false;
      next_file = 1;
      next_op = Int64.of_int (cfg.logical_id * 100_000_000);
      ops = 0;
      peer_ops = 0;
      peer_calls = 0;
    }
  in
  Nfs_endpoint.serve host ~port:2049
    ~cost:{ per_op = per_op_cost; per_byte = 0.0 }
    ~tenure:t.tenure ?trace ?qos ~handler:(fun span call -> answer t span (handle t span call)) ();
  Nfs_endpoint.serve_msg host ~port:Peer.port ~tenure:t.tenure ~cpu:per_peer_op_cost ?trace
    ~decode:Peer.decode_msg ~encode:Peer.encode_reply
    ~handler:(fun span msg -> answer t span (handle_peer t span msg)) ();
  Engine.spawn host.Host.eng (fun () -> install_root t);
  t

let ops_served t = t.ops
let peer_ops_served t = t.peer_ops
let cross_site_ops t = t.peer_calls

let site_entries s =
  let n = ref 0 in
  Dirlist.iter (fun _ _ _ -> incr n) s.dir_index;
  !n

let entry_count t = Array.fold_left (fun n s -> n + site_entries s) 0 t.sites

let attr_cell_count t = Array.fold_left (fun n s -> n + Hashtbl.length s.attrs) 0 t.sites
let log_bytes t = Wal.bytes_appended t.wal

let lookup_local t ~parent name =
  Dirlist.find (site t (entry_site t parent name)).dir_index parent.Fh.file_id name

let tenure t = t.tenure
let host t = t.host

(* ---- crash / recovery ---- *)

let reset_site s =
  Hashtbl.reset s.attrs;
  Hashtbl.reset s.dir_index;
  Hashtbl.reset s.applied;
  Hashtbl.reset s.prepares

let crash t =
  Tenure.crash t.tenure;
  Array.iter reset_site t.sites;
  Wal.crash t.wal

let apply_record t s ~rtype payload =
  let d = Dec.of_bytes (Bytes.of_string payload) in
  let add_cell (fid, c) =
    Hashtbl.replace s.attrs fid c;
    let minted = Int64.to_int fid / 4096 in
    if minted > t.next_file then t.next_file <- minted
  in
  let add_entry () =
    let parent = Dec.u64 d in
    let name = Dec.str d in
    match Fh.decode (Dec.opaque d) with
    | Some child -> Dirlist.add s.dir_index parent name child
    | None -> ()
  in
  if rtype = rt_add_entry then add_entry ()
  else if rtype = rt_remove_entry then begin
    let parent = Dec.u64 d in
    Dirlist.remove s.dir_index parent (Dec.str d)
  end
  else if rtype = rt_set_cell then add_cell (dec_cell d)
  else if rtype = rt_remove_cell then Hashtbl.remove s.attrs (Dec.u64 d)
  else if rtype = rt_prepare then begin
    let op_id = Dec.u64 d in
    let peer = Dec.u32 d in
    let msg = Dec.opaque d in
    Hashtbl.replace s.prepares op_id (peer, msg);
    if Int64.compare op_id t.next_op > 0 then t.next_op <- op_id
  end
  else if rtype = rt_commit then Hashtbl.remove s.prepares (Dec.u64 d)
  else if rtype = rt_applied then Hashtbl.replace s.applied (Dec.u64 d) ()
  else if rtype = rt_snapshot then begin
    (* the site's own snapshot replaces its state wholesale *)
    reset_site s;
    for _ = 1 to Dec.u32 d do
      add_cell (dec_cell d)
    done;
    for _ = 1 to Dec.u32 d do
      add_entry ()
    done
  end

(* The one replay path: a restart, a move and a takeover all open a
   site's journal here. Rebuild the site's state from its image, then
   re-drive its prepared-but-uncommitted cross-site updates; peers dedup
   by op id, so re-delivery is harmless. A peer that times out keeps its
   prepare for the next opening; a crash or an expired lease ends the
   re-send. Returns the journal bytes replayed. *)
let open_site t s =
  reset_site s;
  let image = Wal.image t.wal ~site:s.id in
  ignore
    (Wal.replay image (fun ~lsn:_ ~rtype payload ->
         try apply_record t s ~rtype payload with Slice_xdr.Xdr.Truncated -> ()));
  let pending = Hashtbl.fold (fun op_id v acc -> (op_id, v) :: acc) s.prepares [] in
  let life = Tenure.crashes t.tenure in
  Engine.spawn t.host.Host.eng (fun () ->
      List.iter
        (fun (op_id, (peer, msg_bytes)) ->
          if Tenure.crashes t.tenure = life && not (wedged t) then
            match peer_call t ~site:peer (Bytes.of_string msg_bytes) with
            | _ -> commit t s op_id
            | exception Rpc.Timeout -> ())
        pending);
  String.length image

let recover t =
  List.iter (fun i -> ignore (open_site t (site t i))) (Tenure.owned_sites t.tenure);
  Tenure.recover t.tenure

let adopt_site t ~from i =
  Wal.hand_over from.wal ~site:i ~to_:t.wal;
  open_site t (site t i)

let site_bytes t i = String.length (Wal.image t.wal ~site:i)
let settle_site t i = try Wal.settle t.wal ~site:i with Wal.Crashed -> ()

let drop_site t i = reset_site (site t i)

let enc_snapshot e s =
  Enc.u32 e (Hashtbl.length s.attrs);
  Hashtbl.iter (fun fid c -> enc_cell e (fid, c)) s.attrs;
  Enc.u32 e (site_entries s);
  Dirlist.iter (fun parent name child -> enc_add_entry e (parent, name, child)) s.dir_index

(* A snapshot of one site, with its dedup rows and outstanding prepares;
   returns the snapshot's LSN. *)
let snapshot_site t s =
  let lsn = Wal.append_with t.wal ~site:s.id ~rtype:rt_snapshot enc_snapshot s in
  Hashtbl.iter (fun op_id () -> append t s rt_applied Enc.u64 op_id) s.applied;
  Hashtbl.iter (fun op_id (peer, msg) -> append t s rt_prepare enc_prepare (op_id, peer, msg)) s.prepares;
  lsn

(* lint: F1 ok — journal compaction is operator-driven control plane, not client dispatch; it rewrites, never extends, history *)
let checkpoint t =
  match List.map (fun i -> snapshot_site t (site t i)) (Tenure.owned_sites t.tenure) with
  | from :: _ -> Wal.checkpoint t.wal ~from
  | [] -> ()
