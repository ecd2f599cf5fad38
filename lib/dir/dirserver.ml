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
  peer_port : int;
  data_sites : Fh.t -> Packet.addr list;
  coordinator : Fh.t -> (Packet.addr * int) option;
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

type t = {
  host : Host.t;
  cfg : config;
  attrs : (int64, cell) Hashtbl.t;
  dir_index : Dirlist.index; (* each non-empty directory's sorted listing *)
  applied : (int64, unit) Hashtbl.t; (* peer-op dedup *)
  prepares : (int64, int * string) Hashtbl.t; (* op_id -> (site, msg) awaiting commit *)
  rpc : Rpc.t;
  trace : Trace.t option;
  tenure : Tenure.t; (* logical sites hosted here, drains, load, fencing lease *)
  wal : Wal.t;
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

(* A snapshot imported from another server's journal (site migration):
   applied as a merge into this server's cells, never as a reset — a
   receiver's own state must survive replaying an adopted journal. *)
let rt_merge_snapshot = 9

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

(* Helpers only log; a fiber forces the journal ([harden]) just before
   something leaves the server: a peer prepare, a call to the
   coordinator, a reply ([answer]). [log] sets [dirty] until then, so it
   never survives a switch of fibers, and a request that logged nothing
   waits on no round. An [append]ed record rides the next round: a
   commit, which a re-send makes good, or an imported one. *)
let append t rtype write v = ignore (Wal.append_with t.wal ~rtype write v)

let log t rtype write v =
  append t rtype write v;
  t.dirty <- true

let harden ?(span = Trace.null) t =
  if t.dirty then begin
    t.dirty <- false;
    Wal.sync ~span t.wal
  end

let log_cell t fid c = log t rt_set_cell enc_cell (fid, c)
let log_add_entry t parent name child = log t rt_add_entry enc_add_entry (parent, name, child)
let log_remove_entry t parent name = log t rt_remove_entry enc_remove_entry (parent, name)
let log_remove_cell t fid = log t rt_remove_cell Enc.u64 fid

(* ---- state mutation (shared between service path and log replay) ---- *)

let apply_add_entry t parent name child =
  Dirlist.add t.dir_index parent name child

let apply_remove_entry t parent name =
  Dirlist.remove t.dir_index parent name

(* ---- helpers ---- *)

let now t = Engine.now t.host.Host.eng

let fresh_op t =
  t.next_op <- Int64.add t.next_op 1L;
  t.next_op

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
  let usable s = Tenure.owns t.tenure s && not (Tenure.in_drain t.tenure s) in
  if usable t.cfg.logical_id then t.cfg.logical_id
  else
    match List.find_opt usable (Tenure.owned_sites t.tenure) with
    | Some s -> s
    | None -> t.cfg.logical_id

let attr_of_cell (c : cell) =
  match c.attr.Nfs.ftype with
  | Fh.Dir -> { c.attr with size = Int64.of_int (c.entries * 24); used = Int64.of_int (c.entries * 24) }
  | _ -> c.attr

(* Link-count change on a local attribute cell, shared by the local and
   peer paths; the last link frees the cell. Returns the attributes as
   of the change. *)
let apply_nlink t fid (c : cell) delta =
  c.attr <- { c.attr with nlink = c.attr.Nfs.nlink + delta; ctime = now t };
  let attr = attr_of_cell c in
  if c.attr.Nfs.nlink <= 0 then begin
    Hashtbl.remove t.attrs fid;
    log_remove_cell t fid
  end
  else log_cell t fid c;
  attr

(* Entry-count change on a local directory cell, shared by the local and
   peer paths. *)
let apply_entry_count t fid (c : cell) ~delta ~mtime =
  c.entries <- c.entries + delta;
  c.attr <- { c.attr with mtime; ctime = now t };
  log_cell t fid c

let entry_site t (dfh : Fh.t) name =
  match t.cfg.policy with
  | Routekey.Mkdir_switching -> dfh.Fh.attr_site
  | Routekey.Name_hashing -> Routekey.name_site ~nsites:t.cfg.nsites dfh name

let local_cell t fid = Hashtbl.find_opt t.attrs fid

let owns t site = Tenure.owns t.tenure site

(* ---- peer communication ---- *)

let peer_call ?(span = Trace.null) t ~site msg =
  t.peer_calls <- t.peer_calls + 1;
  let xid = Rpc.fresh_xid t.rpc in
  let payload = Peer.encode_msg ~xid msg in
  let dst = t.cfg.resolve site in
  let reply = Rpc.call t.rpc ~span ~dst ~dport:t.cfg.peer_port payload in
  snd (Peer.decode_reply reply)

(* Two-phase cross-site update: log the prepared message and force it
   with whatever the request logged before it (the write-ahead point),
   apply it at the peer (which dedups and logs), then append the commit.
   Recovery re-sends prepared-but-uncommitted messages. *)
let peer_update ?(span = Trace.null) t ~site build =
  let op_id = fresh_op t in
  let msg = build op_id in
  let msg_bytes = Bytes.to_string (Peer.encode_msg ~xid:0 msg) in
  Hashtbl.replace t.prepares op_id (site, msg_bytes);
  log t rt_prepare enc_prepare (op_id, site, msg_bytes);
  harden ~span t;
  let reply = peer_call ~span t ~site msg in
  Hashtbl.remove t.prepares op_id;
  append t rt_commit Enc.u64 op_id;
  reply

(* ---- data-plane cleanup (remove / truncate) ---- *)

let remove_file_data ?(span = Trace.null) t (fh : Fh.t) =
  (* Fire-and-forget: the coordinator's intention log owns completion.
     An unreachable coordinator ends the fiber, not the run; no intent
     was logged then, so the data stays behind. *)
  match (t.cfg.data_sites fh, t.cfg.coordinator fh) with
  | [], _ | _, None -> ()
  | sites, Some (addr, port) ->
      harden ~span t;
      Engine.spawn t.host.Host.eng (fun () ->
          let xid = Rpc.fresh_xid t.rpc in
          let payload = Ctrl.encode_msg ~xid (Ctrl.Remove_file { fh; sites }) in
          try ignore (Rpc.call t.rpc ~timeout:2.0 ~dst:addr ~dport:port payload)
          with Rpc.Timeout -> ())

(* ---- attribute access across sites ---- *)

let attr_reply = function Peer.Rattr a -> Ok a | Peer.Rerr st -> Error st | _ -> Error Nfs.ERR_IO
let ack_reply = function Peer.Ack -> Ok () | Peer.Rerr st -> Error st | _ -> Error Nfs.ERR_IO

let child_attr ?(span = Trace.null) t (fh : Fh.t) =
  if owns t fh.Fh.attr_site then
    match local_cell t fh.Fh.file_id with
    | Some c -> Ok (attr_of_cell c)
    | None -> Error Nfs.ERR_STALE
  else attr_reply (peer_call ~span t ~site:fh.Fh.attr_site (Peer.Getattr fh))

let bump_nlink ?(span = Trace.null) t (fh : Fh.t) delta =
  if owns t fh.Fh.attr_site then
    match local_cell t fh.Fh.file_id with
    | None -> Error Nfs.ERR_STALE
    | Some c -> Ok (apply_nlink t fh.Fh.file_id c delta)
  else
    attr_reply
      (peer_update ~span t ~site:fh.Fh.attr_site (fun op_id -> Peer.Nlink { op_id; fh; delta }))

let bump_parent ?(span = Trace.null) t (dfh : Fh.t) delta =
  if not (owns t dfh.Fh.attr_site) then
    ignore
      (peer_update ~span t ~site:dfh.Fh.attr_site (fun op_id ->
           Peer.Entry_count { op_id; dir = dfh; delta; mtime = now t }))
  else
    match local_cell t dfh.Fh.file_id with
    | Some c -> apply_entry_count t dfh.Fh.file_id c ~delta ~mtime:(now t)
    | None -> ()

(* ---- NFS request handling ---- *)

let misdirected = Error Nfs.ERR_MISDIRECTED

(* While a failure detector renews the lease the server serves
   normally; once it expires the server wedges — every request bounces
   SLICE_MISDIRECTED — so a zombie deposed by a takeover cannot serve
   state from its dead incarnation. *)
let wedged t = Tenure.wedged t.tenure ~now:(now t)

let fence_bounce t =
  Tenure.note_fence t.tenure;
  misdirected

(* Read path: a drained site keeps answering. *)
let check_read_site t site ok = if Tenure.admit_read t.tenure site then ok () else misdirected

(* Update path: a drained site bounces so no name-space update can land
   behind a migration's back; the µproxy retries after the move commits
   or aborts. *)
let check_write_site t site ok = if Tenure.admit_write t.tenure site then ok () else misdirected

let check_entry_site t dfh name ok = check_read_site t (entry_site t dfh name) ok
let check_entry_site_w t dfh name ok = check_write_site t (entry_site t dfh name) ok

(* Install a name entry held here, then count it at the parent's cell,
   wherever that lives: a create, the local branch of
   [add_entry_somewhere] and a peer's [Add_entry] all come here. *)
let add_entry_here ?(span = Trace.null) t (dfh : Fh.t) name child =
  apply_add_entry t dfh.Fh.file_id name child;
  log_add_entry t dfh.Fh.file_id name child;
  bump_parent ~span t dfh 1

(* Drop a name entry held here. The child's link count, whose cell
   usually lives with the entry, changes by [delta] before the parent's
   count, which may live at another site: the local records then go out
   in the round of that update's prepare. Returns the child's attributes
   as of the change. *)
let unlink ?(span = Trace.null) t (dfh : Fh.t) name child delta =
  apply_remove_entry t dfh.Fh.file_id name;
  log_remove_entry t dfh.Fh.file_id name;
  let attr = bump_nlink ~span t child delta in
  bump_parent ~span t dfh (-1);
  attr

let do_create ?(span = Trace.null) t (dfh : Fh.t) name ~ftype ~symlink =
  if dfh.Fh.ftype <> Fh.Dir then Error Nfs.ERR_NOTDIR
  else if Dirlist.mem t.dir_index dfh.Fh.file_id name then Error Nfs.ERR_EXIST
  else begin
    let mirrored = ftype = Fh.Reg && t.cfg.mirror_new_files in
    (* The attribute cell lives on the entry's own site, so a migration
       of that site carries entry and attrs together. *)
    let fh = mint_fh t ~ftype ~mirrored ~attr_site:(entry_site t dfh name) in
    let attr = Nfs.default_attr ~ftype ~fileid:fh.Fh.file_id ~now:(now t) in
    let c = { attr; entries = 0; symlink } in
    Hashtbl.replace t.attrs fh.Fh.file_id c;
    log_cell t fh.Fh.file_id c;
    add_entry_here ~span t dfh name fh;
    let a = attr_of_cell c in
    Ok
      (match ftype with
      | Fh.Dir -> Nfs.RMkdir (fh, a)
      | Fh.Lnk -> Nfs.RSymlink (fh, a)
      | _ -> Nfs.RCreate (fh, a))
  end

let add_entry_somewhere ?(span = Trace.null) t (dfh : Fh.t) name child =
  if not (owns t (entry_site t dfh name)) then
    ack_reply
      (peer_update ~span t ~site:(entry_site t dfh name) (fun op_id ->
           Peer.Add_entry { op_id; dir = dfh; name; child }))
  else if Dirlist.mem t.dir_index dfh.Fh.file_id name then Error Nfs.ERR_EXIST
  else begin
    add_entry_here ~span t dfh name child;
    Ok ()
  end

(* Redirected mkdir (mkdir switching): this site was chosen by the µproxy
   to host the orphaned directory; mint it here, then install the name
   entry at the parent's site as a two-phase peer update. *)
let do_remote_mkdir ?(span = Trace.null) t (dfh : Fh.t) name =
  let fh = mint_fh t ~ftype:Fh.Dir ~mirrored:false ~attr_site:(mint_site t) in
  let attr = Nfs.default_attr ~ftype:Fh.Dir ~fileid:fh.Fh.file_id ~now:(now t) in
  let c = { attr; entries = 0; symlink = None } in
  Hashtbl.replace t.attrs fh.Fh.file_id c;
  log_cell t fh.Fh.file_id c;
  match add_entry_somewhere ~span t dfh name fh with
  | Ok () -> Ok (Nfs.RMkdir (fh, attr_of_cell c))
  | Error st ->
      Hashtbl.remove t.attrs fh.Fh.file_id;
      log_remove_cell t fh.Fh.file_id;
      Error st

let handle t span (call : Nfs.call) : Nfs.response =
  t.ops <- t.ops + 1;
  (* Expired lease: the server is (or must assume it is) deposed. Wedge
     everything — reads included, since a takeover peer may already be
     serving newer state for our sites. The µproxy treats the bounce
     like any soft-state miss: refresh tables, retry at the new owner. *)
  if wedged t then fence_bounce t
  else
  match call with
  | Nfs.Null -> Ok Nfs.RNull
  | Nfs.Getattr fh ->
      check_read_site t fh.Fh.attr_site (fun () ->
        match local_cell t fh.Fh.file_id with
        | Some c -> Ok (Nfs.RGetattr (attr_of_cell c))
        | None -> Error Nfs.ERR_STALE)
  | Nfs.Setattr (fh, s) ->
      check_write_site t fh.Fh.attr_site (fun () ->
        match local_cell t fh.Fh.file_id with
        | None -> Error Nfs.ERR_STALE
        | Some c ->
            let old_size = c.attr.Nfs.size in
            c.attr <- Nfs.apply_sattr c.attr s ~now:(now t);
            log_cell t fh.Fh.file_id c;
            (match s.Nfs.set_size with
            | Some nsz when fh.Fh.ftype = Fh.Reg && Int64.compare nsz old_size < 0 ->
                (* Shrinking truncate: multi-site data trim through the
                   coordinator's intention protocol. *)
                if Int64.compare nsz 0L = 0 then remove_file_data ~span t fh
            | _ -> ());
            Ok (Nfs.RSetattr (attr_of_cell c)))
  | Nfs.Lookup (dfh, name) ->
      if dfh.Fh.ftype <> Fh.Dir then Error Nfs.ERR_NOTDIR
      else
        check_entry_site t dfh name (fun () ->
            match Dirlist.find t.dir_index dfh.Fh.file_id name with
            | None -> Error Nfs.ERR_NOENT
            | Some child -> (
                match child_attr ~span t child with
                | Ok a -> Ok (Nfs.RLookup (child, a))
                | Error st -> Error st))
  | Nfs.Access (fh, mode) ->
      check_read_site t fh.Fh.attr_site (fun () ->
        match local_cell t fh.Fh.file_id with
        | Some c -> Ok (Nfs.RAccess (mode, attr_of_cell c))
        | None -> Error Nfs.ERR_STALE)
  | Nfs.Readlink fh ->
      check_read_site t fh.Fh.attr_site (fun () ->
        match local_cell t fh.Fh.file_id with
        | Some ({ symlink = Some target; _ } as c) -> Ok (Nfs.RReadlink (target, attr_of_cell c))
        | Some _ -> Error Nfs.ERR_IO
        | None -> Error Nfs.ERR_STALE)
  | Nfs.Create (dfh, name) ->
      check_entry_site_w t dfh name (fun () ->
          do_create ~span t dfh name ~ftype:Fh.Reg ~symlink:None)
  | Nfs.Mkdir (dfh, name) ->
      if dfh.Fh.ftype <> Fh.Dir then Error Nfs.ERR_NOTDIR
      else begin
        let es = entry_site t dfh name in
        (* elsewhere, the µproxy redirected this mkdir here on purpose *)
        if owns t es then
          check_write_site t es (fun () -> do_create ~span t dfh name ~ftype:Fh.Dir ~symlink:None)
        else do_remote_mkdir ~span t dfh name
      end
  | Nfs.Symlink (dfh, name, target) ->
      check_entry_site_w t dfh name (fun () ->
          do_create ~span t dfh name ~ftype:Fh.Lnk ~symlink:(Some target))
  | Nfs.Remove (dfh, name) ->
      check_entry_site_w t dfh name (fun () ->
          match Dirlist.find t.dir_index dfh.Fh.file_id name with
          | None -> Error Nfs.ERR_NOENT
          | Some child when child.Fh.ftype = Fh.Dir -> Error Nfs.ERR_ISDIR
          | Some child ->
              (match unlink ~span t dfh name child (-1) with
              | Ok a when a.Nfs.nlink <= 0 && child.Fh.ftype = Fh.Reg ->
                  remove_file_data ~span t child
              | _ -> ());
              Ok Nfs.RRemove)
  | Nfs.Rmdir (dfh, name) ->
      check_entry_site_w t dfh name (fun () ->
          match Dirlist.find t.dir_index dfh.Fh.file_id name with
          | None -> Error Nfs.ERR_NOENT
          | Some child when child.Fh.ftype <> Fh.Dir -> Error Nfs.ERR_NOTDIR
          | Some child -> (
              match child_attr ~span t child with
              | Error st -> Error st
              | Ok a when Int64.compare a.Nfs.size 0L > 0 -> Error Nfs.ERR_NOTEMPTY
              (* the entry may have gone while [child_attr] asked a peer *)
              | Ok _ when not (Dirlist.mem t.dir_index dfh.Fh.file_id name) ->
                  Error Nfs.ERR_NOENT
              | Ok a ->
                  ignore (unlink ~span t dfh name child (-a.Nfs.nlink));
                  Ok Nfs.RRmdir))
  | Nfs.Rename (odfh, oname, ndfh, nname) ->
      check_entry_site_w t odfh oname (fun () ->
          match Dirlist.find t.dir_index odfh.Fh.file_id oname with
          | None -> Error Nfs.ERR_NOENT
          | Some child -> (
              match add_entry_somewhere ~span t ndfh nname child with
              | Error st -> Error st
              (* the old entry may have gone while a peer added the new *)
              | Ok () when not (Dirlist.mem t.dir_index odfh.Fh.file_id oname) ->
                  Error Nfs.ERR_NOENT
              | Ok () ->
                  (* a zero link-count change bumps the renamed object's ctime *)
                  ignore (unlink ~span t odfh oname child 0);
                  Ok Nfs.RRename))
  | Nfs.Link (file, ndfh, nname) ->
      check_entry_site_w t ndfh nname (fun () ->
          if file.Fh.ftype = Fh.Dir then Error Nfs.ERR_ISDIR
          else
            match add_entry_somewhere ~span t ndfh nname file with
            | Error st -> Error st
            | Ok () -> (
                match bump_nlink ~span t file 1 with
                | Ok a -> Ok (Nfs.RLink a)
                | Error st -> Error st))
  | Nfs.Readdir (dfh, cookie, count) ->
      if dfh.Fh.ftype <> Fh.Dir then Error Nfs.ERR_NOTDIR
      else begin
        (* Under name hashing the µproxy iterates the directory site by
           site, tagging the requested site into the cookie's high bits;
           decode it, serve only that site's entries (one server may own
           several sites) and answer with the site-local cookie — the
           µproxy re-tags it. Under mkdir switching all of a directory's
           entries live at its attribute site. *)
        let site, start =
          match t.cfg.policy with
          | Routekey.Mkdir_switching -> (dfh.Fh.attr_site, Int64.to_int cookie)
          | Routekey.Name_hashing ->
              ( Int64.to_int (Int64.shift_right_logical cookie 32) mod t.cfg.nsites,
                Int64.to_int (Int64.logand cookie 0xFFFF_FFFFL) )
        in
        if not (Tenure.admit_read t.tenure site) then misdirected
        else
          let l = Dirlist.listing t.dir_index dfh.Fh.file_id in
          match t.cfg.policy with
          | Routekey.Mkdir_switching -> Ok (Dirlist.page l ~site ~start ~count)
          | Routekey.Name_hashing ->
              Ok (Dirlist.page ~keep:(fun name -> entry_site t dfh name = site) l ~site ~start ~count)
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

let mark_applied t op_id =
  Hashtbl.replace t.applied op_id ();
  log t rt_applied Enc.u64 op_id

let handle_peer t span (msg : Peer.msg) : Peer.reply =
  t.peer_ops <- t.peer_ops + 1;
  if wedged t then begin
    Tenure.note_fence t.tenure;
    Peer.Rerr Nfs.ERR_MISDIRECTED
  end
  else
  match msg with
  | Peer.Getattr fh -> (
      match local_cell t fh.Fh.file_id with
      | Some c -> Peer.Rattr (attr_of_cell c)
      | None -> Peer.Rerr Nfs.ERR_STALE)
  | Peer.Nlink { op_id; fh; delta } -> (
      match local_cell t fh.Fh.file_id with
      | None -> Peer.Rerr Nfs.ERR_STALE
      | Some c when Hashtbl.mem t.applied op_id -> Peer.Rattr (attr_of_cell c)
      | Some c ->
          let attr = apply_nlink t fh.Fh.file_id c delta in
          mark_applied t op_id;
          Peer.Rattr attr)
  | Peer.Entry_count { op_id; dir; delta; mtime } ->
      if not (Hashtbl.mem t.applied op_id) then begin
        (match local_cell t dir.Fh.file_id with
        | Some c -> apply_entry_count t dir.Fh.file_id c ~delta ~mtime
        | None -> ());
        mark_applied t op_id
      end;
      Peer.Ack
  | Peer.Add_entry { op_id; dir; name; child } ->
      if Hashtbl.mem t.applied op_id then Peer.Ack
      else if Dirlist.mem t.dir_index dir.Fh.file_id name then Peer.Rerr Nfs.ERR_EXIST
      else begin
        (* the dedup row goes in before the parent's count can force a
           round, so the two land together *)
        mark_applied t op_id;
        add_entry_here ~span t dir name child;
        Peer.Ack
      end

(* The request roots: a reply leaves once its request's records are stable. *)
let answer t span reply =
  harden ~span t;
  reply

(* ---- service wiring ---- *)

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
    Hashtbl.replace t.attrs Fh.root.Fh.file_id c;
    log_cell t Fh.root.Fh.file_id c;
    harden t
  end

(* lint: F1 ok — bootstrap: installs the root cell before the server is exposed to clients; no deposed instance can exist yet *)
let attach host ?trace ?qos cfg =
  let t =
    {
      host;
      cfg;
      trace;
      (* lint: bounded — attribute cells: dataless-manager state, WAL+checkpoint-backed (§3.4) *)
      attrs = Hashtbl.create 1024;
      (* lint: bounded — one row per non-empty directory, dropped when its last entry goes *)
      dir_index = Hashtbl.create 256;
      (* lint: bounded — not bounded yet: applied-op dedup, one row per peer op ever applied; nothing prunes it and checkpoint re-logs every id (ROADMAP smaller item D) *)
      applied = Hashtbl.create 64;
      (* lint: bounded — one row per in-flight two-phase op; commit/abort removes it *)
      prepares = Hashtbl.create 16;
      rpc = Rpc.create host.Host.net host.Host.addr ~port:2053;
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
  Nfs_endpoint.serve_msg host ~port:cfg.peer_port ~tenure:t.tenure ~cpu:per_peer_op_cost ?trace
    ~decode:Peer.decode_msg ~encode:Peer.encode_reply
    ~handler:(fun span msg -> answer t span (handle_peer t span msg)) ();
  Engine.spawn host.Host.eng (fun () -> install_root t);
  t

let ops_served t = t.ops
let peer_ops_served t = t.peer_ops
let cross_site_ops t = t.peer_calls
let entry_count t =
  let n = ref 0 in
  Dirlist.iter (fun _ _ _ -> incr n) t.dir_index;
  !n
let attr_cell_count t = Hashtbl.length t.attrs
let log_bytes t = Wal.bytes_appended t.wal

let lookup_local t ~parent name = Dirlist.find t.dir_index parent.Fh.file_id name
let tenure t = t.tenure

(* ---- crash / recovery ---- *)

let reset_volatile t =
  Hashtbl.reset t.attrs;
  Hashtbl.reset t.dir_index;
  Hashtbl.reset t.applied;
  Hashtbl.reset t.prepares

let crash t =
  Tenure.crash t.tenure;
  reset_volatile t;
  Wal.crash t.wal

let apply_record t ~rtype payload =
  let d = Dec.of_bytes (Bytes.of_string payload) in
  if rtype = rt_add_entry then begin
    let parent = Dec.u64 d in
    let name = Dec.str d in
    match Fh.decode (Dec.opaque d) with
    | Some child -> apply_add_entry t parent name child
    | None -> ()
  end
  else if rtype = rt_remove_entry then begin
    let parent = Dec.u64 d in
    apply_remove_entry t parent (Dec.str d)
  end
  else if rtype = rt_set_cell then begin
    let fid, c = dec_cell d in
    Hashtbl.replace t.attrs fid c;
    let minted = Int64.to_int fid / 4096 in
    if minted > t.next_file then t.next_file <- minted
  end
  else if rtype = rt_remove_cell then Hashtbl.remove t.attrs (Dec.u64 d)
  else if rtype = rt_prepare then begin
    let op_id = Dec.u64 d in
    let site = Dec.u32 d in
    let msg = Dec.opaque d in
    Hashtbl.replace t.prepares op_id (site, msg);
    if Int64.compare op_id t.next_op > 0 then t.next_op <- op_id
  end
  else if rtype = rt_commit then Hashtbl.remove t.prepares (Dec.u64 d)
  else if rtype = rt_applied then Hashtbl.replace t.applied (Dec.u64 d) ()
  else if rtype = rt_snapshot || rtype = rt_merge_snapshot then begin
    (* A server's own snapshot replaces its state wholesale; a snapshot
       imported from another server's journal merges into it (the
       receiver's own sites must survive the replay). *)
    if rtype = rt_snapshot then reset_volatile t;
    let n_cells = Dec.u32 d in
    for _ = 1 to n_cells do
      let fid, c = dec_cell d in
      Hashtbl.replace t.attrs fid c;
      let minted = Int64.to_int fid / 4096 in
      if minted > t.next_file then t.next_file <- minted
    done;
    let n_entries = Dec.u32 d in
    for _ = 1 to n_entries do
      let parent = Dec.u64 d in
      let name = Dec.str d in
      match Fh.decode (Dec.opaque d) with
      | Some child -> apply_add_entry t parent name child
      | None -> ()
    done
  end

(* lint: F1 ok — recovery replay runs before the server answers requests; fencing applies to dispatch, not to replay *)
let recover t =
  reset_volatile t;
  ignore
    (Wal.replay (Wal.image t.wal) (fun ~lsn:_ ~rtype payload ->
         try apply_record t ~rtype payload with Slice_xdr.Xdr.Truncated -> ()));
  Tenure.recover t.tenure;
  (* Re-drive prepared-but-uncommitted cross-site updates; peers dedup by
     op id so re-delivery is harmless. A peer that times out keeps its
     prepare for the next recovery; a crash ends the re-send. *)
  let pending = Hashtbl.fold (fun op_id v acc -> (op_id, v) :: acc) t.prepares [] in
  let life = Tenure.crashes t.tenure in
  Engine.spawn t.host.Host.eng (fun () ->
      List.iter
        (fun (op_id, (site, msg_bytes)) ->
          match Peer.decode_msg (Bytes.of_string msg_bytes) with
          | _, msg when Tenure.crashes t.tenure = life -> (
              match peer_call t ~site msg with
              | _ ->
                  Hashtbl.remove t.prepares op_id;
                  append t rt_commit Enc.u64 op_id
              | exception Rpc.Timeout -> ())
          | _ -> ()
          | exception Codec.Malformed _ -> ())
        pending)

let log_image t = Wal.image t.wal

(* Replay another server's journal into this one, journaling every
   imported record locally so this server's own log stays self-contained
   (no checkpoint needed before a later crash). Snapshot records are
   downgraded to merge-snapshots: an import must never reset the
   receiver's own cells, here or on any later replay of its log.
   [skip] resumes a previous import: the first [skip] records of [log]
   are assumed already imported (journals are append-only, so a second
   pass over a fresher image of the same journal applies exactly the
   delta). Returns the record count consumed, to pass as the next
   [skip]. Does not sync — callers decide when to harden. *)
(* lint: F1 ok — migration control plane: the coordinator fences the source server before its journal is imported here *)
let import_log ?(skip = 0) t ~log:image =
  let seen = ref 0 in
  ignore
    (Wal.replay image (fun ~lsn:_ ~rtype payload ->
         let n = !seen in
         incr seen;
         if n >= skip then begin
           let rtype = if rtype = rt_snapshot then rt_merge_snapshot else rtype in
           append t rtype Enc.raw payload;
           try apply_record t ~rtype payload with Slice_xdr.Xdr.Truncated -> ()
         end));
  !seen

let host t = t.host

let enc_snapshot e t =
  Enc.u32 e (Hashtbl.length t.attrs);
  Hashtbl.iter (fun fid c -> enc_cell e (fid, c)) t.attrs;
  Enc.u32 e (entry_count t);
  Dirlist.iter (fun parent name child -> enc_add_entry e (parent, name, child)) t.dir_index

(* lint: F1 ok — journal compaction is operator-driven control plane, not client dispatch; it rewrites, never extends, history *)
let checkpoint t =
  let from = Wal.append_with t.wal ~rtype:rt_snapshot enc_snapshot t in
  (* Preserve dedup state and outstanding prepares across the checkpoint. *)
  Hashtbl.iter (fun op_id () -> append t rt_applied Enc.u64 op_id) t.applied;
  Hashtbl.iter (fun op_id (site, msg) -> append t rt_prepare enc_prepare (op_id, site, msg)) t.prepares;
  Wal.checkpoint t.wal ~from
