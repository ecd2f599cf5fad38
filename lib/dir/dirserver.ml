module Engine = Slice_sim.Engine
module Net = Slice_net.Net
module Rpc = Slice_net.Rpc
module Packet = Slice_net.Packet
module Nfs = Slice_nfs.Nfs
module Fh = Slice_nfs.Fh
module Wal = Slice_wal.Wal
module Host = Slice_storage.Host
module Tenure = Slice_storage.Tenure
module Nfs_endpoint = Slice_storage.Nfs_endpoint
module Ctrl = Slice_storage.Ctrl
module Enc = Slice_xdr.Xdr.Enc
module Dec = Slice_xdr.Xdr.Dec
module Trace = Slice_trace.Trace

type policy = Mkdir_switching | Name_hashing

type config = {
  logical_id : int;
  nsites : int;
  policy : policy;
  resolve : int -> Packet.addr;
  peer_port : int;
  data_sites : Fh.t -> Packet.addr list;
  smallfile_site : Fh.t -> Packet.addr option;
  coordinator : Fh.t -> (Packet.addr * int) option;
  mirror_new_files : bool;
  cap_secret : string option;
  also_owns : int list;
}

type costs = { per_op : float; per_peer_op : float }

let default_costs = { per_op = 166e-6; per_peer_op = 60e-6 }

type cell = {
  mutable attr : Nfs.fattr;
  mutable entries : int; (* live name entries, for directories *)
  mutable symlink : string option;
}

type t = {
  host : Host.t;
  cfg : config;
  costs : costs;
  attrs : (int64, cell) Hashtbl.t;
  entries : (int64 * string, Fh.t) Hashtbl.t;
  dir_index : (int64, (string, Fh.t) Hashtbl.t) Hashtbl.t;
  applied : (int64, unit) Hashtbl.t; (* peer-op dedup *)
  prepares : (int64, int * string) Hashtbl.t; (* op_id -> (site, msg) awaiting commit *)
  rpc : Rpc.t;
  trace : Trace.t option;
  tenure : Tenure.t; (* logical sites hosted here, drains, load, fencing lease *)
  mutable wal : Wal.t;
  mutable next_file : int;
  mutable next_op : int64;
  mutable ops : int;
  mutable peer_ops : int;
  mutable peer_calls : int;
  mutable up : bool;
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

let enc_cell e fid (c : cell) =
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

let payload_of enc =
  let e = Enc.create () in
  enc e;
  Bytes.to_string (Enc.to_bytes e)

let log t rtype payload = ignore (Wal.append t.wal ~rtype payload)

let sync_log ?(span = Trace.null) t = Wal.sync ~span t.wal

let log_cell t fid c = log t rt_set_cell (payload_of (fun e -> enc_cell e fid c))

let log_add_entry t parent name child =
  log t rt_add_entry
    (payload_of (fun e ->
         Enc.u64 e parent;
         Enc.str e name;
         Enc.opaque e (Fh.encode child)))

let log_remove_entry t parent name =
  log t rt_remove_entry
    (payload_of (fun e ->
         Enc.u64 e parent;
         Enc.str e name))

let log_remove_cell t fid = log t rt_remove_cell (payload_of (fun e -> Enc.u64 e fid))

(* ---- state mutation (shared between service path and log replay) ---- *)

let dir_tbl t fid =
  match Hashtbl.find_opt t.dir_index fid with
  | Some tbl -> tbl
  | None ->
      (* lint: bounded — per-directory entry table; namespace state is WAL+checkpoint-backed (§3.4) *)
      let tbl = Hashtbl.create 8 in
      Hashtbl.replace t.dir_index fid tbl;
      tbl

let apply_add_entry t parent name child =
  Hashtbl.replace t.entries (parent, name) child;
  Hashtbl.replace (dir_tbl t parent) name child

let apply_remove_entry t parent name =
  Hashtbl.remove t.entries (parent, name);
  match Hashtbl.find_opt t.dir_index parent with
  | Some tbl -> Hashtbl.remove tbl name
  | None -> ()

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

let entry_site t (dfh : Fh.t) name =
  match t.cfg.policy with
  | Mkdir_switching -> dfh.Fh.attr_site
  | Name_hashing -> Slice_nfs.Routekey.name_site ~nsites:t.cfg.nsites dfh name

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

(* Two-phase cross-site update: log the prepared message, apply it at the
   peer (which dedups and logs), then log the commit. Recovery re-sends
   prepared-but-uncommitted messages. *)
let peer_update ?(span = Trace.null) t ~site build =
  let op_id = fresh_op t in
  let msg = build op_id in
  let msg_bytes = Bytes.to_string (Peer.encode_msg ~xid:0 msg) in
  Hashtbl.replace t.prepares op_id (site, msg_bytes);
  log t rt_prepare
    (payload_of (fun e ->
         Enc.u64 e op_id;
         Enc.u32 e site;
         Enc.opaque e msg_bytes));
  sync_log ~span t;
  let reply = peer_call ~span t ~site msg in
  Hashtbl.remove t.prepares op_id;
  log t rt_commit (payload_of (fun e -> Enc.u64 e op_id));
  reply

(* ---- data-plane cleanup (remove / truncate) ---- *)

let remove_file_data t (fh : Fh.t) =
  (* Fire-and-forget: the coordinator's intention log owns completion. *)
  let sites =
    t.cfg.data_sites fh
    @ (match t.cfg.smallfile_site fh with Some a -> [ a ] | None -> [])
  in
  match (sites, t.cfg.coordinator fh) with
  | [], _ -> ()
  | _, Some (addr, port) ->
      Engine.spawn t.host.Host.eng (fun () ->
          let xid = Rpc.fresh_xid t.rpc in
          let payload = Ctrl.encode_msg ~xid (Ctrl.Remove_file { fh; sites }) in
          ignore (Rpc.call t.rpc ~timeout:2.0 ~dst:addr ~dport:port payload))
  | _, None -> ()

(* ---- attribute access across sites ---- *)

let child_attr ?(span = Trace.null) t (fh : Fh.t) =
  if owns t fh.Fh.attr_site then
    match local_cell t fh.Fh.file_id with
    | Some c -> Ok (attr_of_cell c)
    | None -> Error Nfs.ERR_STALE
  else
    match peer_call ~span t ~site:fh.Fh.attr_site (Peer.Getattr fh) with
    | Peer.Rattr a -> Ok a
    | Peer.Rerr st -> Error st
    | _ -> Error Nfs.ERR_IO

let bump_nlink ?(span = Trace.null) t (fh : Fh.t) delta =
  if owns t fh.Fh.attr_site then
    match local_cell t fh.Fh.file_id with
    | None -> Error Nfs.ERR_STALE
    | Some c ->
        c.attr <- { c.attr with nlink = c.attr.Nfs.nlink + delta; ctime = now t };
        let attr = attr_of_cell c in
        if c.attr.Nfs.nlink <= 0 then begin
          Hashtbl.remove t.attrs fh.Fh.file_id;
          log_remove_cell t fh.Fh.file_id
        end
        else log_cell t fh.Fh.file_id c;
        sync_log ~span t;
        Ok attr
  else
    match
      peer_update ~span t ~site:fh.Fh.attr_site (fun op_id -> Peer.Nlink { op_id; fh; delta })
    with
    | Peer.Rattr a -> Ok a
    | Peer.Rerr st -> Error st
    | _ -> Error Nfs.ERR_IO

let bump_parent ?(span = Trace.null) t (dfh : Fh.t) delta =
  if owns t dfh.Fh.attr_site then begin
    match local_cell t dfh.Fh.file_id with
    | None -> ()
    | Some c ->
        c.entries <- c.entries + delta;
        c.attr <- { c.attr with mtime = now t; ctime = now t };
        log_cell t dfh.Fh.file_id c;
        sync_log ~span t
  end
  else
    ignore
      (peer_update ~span t ~site:dfh.Fh.attr_site (fun op_id ->
           Peer.Entry_count { op_id; dir = dfh; delta; mtime = now t }))

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

let do_create ?(span = Trace.null) t (dfh : Fh.t) name ~ftype ~symlink =
  if dfh.Fh.ftype <> Fh.Dir then Error Nfs.ERR_NOTDIR
  else if Hashtbl.mem t.entries (dfh.Fh.file_id, name) then Error Nfs.ERR_EXIST
  else begin
    let mirrored = ftype = Fh.Reg && t.cfg.mirror_new_files in
    (* The attribute cell lives on the entry's own site, so a migration
       of that site carries entry and attrs together. *)
    let fh = mint_fh t ~ftype ~mirrored ~attr_site:(entry_site t dfh name) in
    let attr = Nfs.default_attr ~ftype ~fileid:fh.Fh.file_id ~now:(now t) in
    let c = { attr; entries = 0; symlink } in
    Hashtbl.replace t.attrs fh.Fh.file_id c;
    apply_add_entry t dfh.Fh.file_id name fh;
    log_cell t fh.Fh.file_id c;
    log_add_entry t dfh.Fh.file_id name fh;
    sync_log ~span t;
    bump_parent ~span t dfh 1;
    Ok (fh, attr_of_cell c)
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
  sync_log ~span t;
  match
    peer_update ~span t ~site:(entry_site t dfh name) (fun op_id ->
        Peer.Add_entry { op_id; dir = dfh; name; child = fh })
  with
  | Peer.Ack -> Ok (fh, attr_of_cell c)
  | Peer.Rerr st ->
      Hashtbl.remove t.attrs fh.Fh.file_id;
      log_remove_cell t fh.Fh.file_id;
      sync_log ~span t;
      Error st
  | _ -> Error Nfs.ERR_IO

let add_entry_somewhere ?(span = Trace.null) t (dfh : Fh.t) name child =
  if owns t (entry_site t dfh name) then begin
    if Hashtbl.mem t.entries (dfh.Fh.file_id, name) then Error Nfs.ERR_EXIST
    else begin
      apply_add_entry t dfh.Fh.file_id name child;
      log_add_entry t dfh.Fh.file_id name child;
      sync_log ~span t;
      bump_parent ~span t dfh 1;
      Ok ()
    end
  end
  else
    match
      peer_update ~span t ~site:(entry_site t dfh name) (fun op_id ->
          Peer.Add_entry { op_id; dir = dfh; name; child })
    with
    | Peer.Ack -> Ok ()
    | Peer.Rerr st -> Error st
    | _ -> Error Nfs.ERR_IO

let remove_entry_here ?(span = Trace.null) t (dfh : Fh.t) name =
  match Hashtbl.find_opt t.entries (dfh.Fh.file_id, name) with
  | None -> Error Nfs.ERR_NOENT
  | Some child ->
      apply_remove_entry t dfh.Fh.file_id name;
      log_remove_entry t dfh.Fh.file_id name;
      sync_log ~span t;
      bump_parent ~span t dfh (-1);
      Ok child

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
            sync_log ~span t;
            (match s.Nfs.set_size with
            | Some nsz when fh.Fh.ftype = Fh.Reg && Int64.compare nsz old_size < 0 ->
                (* Shrinking truncate: multi-site data trim through the
                   coordinator's intention protocol. *)
                if Int64.compare nsz 0L = 0 then remove_file_data t fh
            | _ -> ());
            Ok (Nfs.RSetattr (attr_of_cell c)))
  | Nfs.Lookup (dfh, name) ->
      if dfh.Fh.ftype <> Fh.Dir then Error Nfs.ERR_NOTDIR
      else
        check_entry_site t dfh name (fun () ->
            match Hashtbl.find_opt t.entries (dfh.Fh.file_id, name) with
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
          match do_create ~span t dfh name ~ftype:Fh.Reg ~symlink:None with
          | Ok (fh, a) -> Ok (Nfs.RCreate (fh, a))
          | Error st -> Error st)
  | Nfs.Mkdir (dfh, name) ->
      if dfh.Fh.ftype <> Fh.Dir then Error Nfs.ERR_NOTDIR
      else begin
        let es = entry_site t dfh name in
        if owns t es then
          check_write_site t es (fun () ->
              match do_create ~span t dfh name ~ftype:Fh.Dir ~symlink:None with
              | Ok (fh, a) -> Ok (Nfs.RMkdir (fh, a))
              | Error st -> Error st)
        else (
          (* µproxy redirected this mkdir here on purpose. *)
          match do_remote_mkdir ~span t dfh name with
          | Ok (fh, a) -> Ok (Nfs.RMkdir (fh, a))
          | Error st -> Error st)
      end
  | Nfs.Symlink (dfh, name, target) ->
      check_entry_site_w t dfh name (fun () ->
          match do_create ~span t dfh name ~ftype:Fh.Lnk ~symlink:(Some target) with
          | Ok (fh, a) -> Ok (Nfs.RSymlink (fh, a))
          | Error st -> Error st)
  | Nfs.Remove (dfh, name) ->
      check_entry_site_w t dfh name (fun () ->
          match Hashtbl.find_opt t.entries (dfh.Fh.file_id, name) with
          | None -> Error Nfs.ERR_NOENT
          | Some child when child.Fh.ftype = Fh.Dir -> Error Nfs.ERR_ISDIR
          | Some child -> (
              match remove_entry_here ~span t dfh name with
              | Error st -> Error st
              | Ok _ -> (
                  match bump_nlink ~span t child (-1) with
                  | Ok a ->
                      if a.Nfs.nlink <= 0 && child.Fh.ftype = Fh.Reg then
                        remove_file_data t child;
                      Ok Nfs.RRemove
                  | Error _ -> Ok Nfs.RRemove)))
  | Nfs.Rmdir (dfh, name) ->
      check_entry_site_w t dfh name (fun () ->
          match Hashtbl.find_opt t.entries (dfh.Fh.file_id, name) with
          | None -> Error Nfs.ERR_NOENT
          | Some child when child.Fh.ftype <> Fh.Dir -> Error Nfs.ERR_NOTDIR
          | Some child -> (
              match child_attr ~span t child with
              | Error st -> Error st
              | Ok a ->
                  if Int64.compare a.Nfs.size 0L > 0 then Error Nfs.ERR_NOTEMPTY
                  else (
                    match remove_entry_here ~span t dfh name with
                    | Error st -> Error st
                    | Ok _ ->
                        ignore (bump_nlink ~span t child (-a.Nfs.nlink));
                        Ok Nfs.RRmdir)))
  | Nfs.Rename (odfh, oname, ndfh, nname) ->
      check_entry_site_w t odfh oname (fun () ->
          match Hashtbl.find_opt t.entries (odfh.Fh.file_id, oname) with
          | None -> Error Nfs.ERR_NOENT
          | Some child -> (
              match add_entry_somewhere ~span t ndfh nname child with
              | Error st -> Error st
              | Ok () -> (
                  match remove_entry_here ~span t odfh oname with
                  | Error st -> Error st
                  | Ok _ ->
                      (* ctime bump on the renamed object *)
                      ignore (bump_nlink ~span t child 0);
                      Ok Nfs.RRename)))
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
          | Mkdir_switching -> (dfh.Fh.attr_site, Int64.to_int cookie)
          | Name_hashing ->
              ( Int64.to_int (Int64.shift_right_logical cookie 32) mod t.cfg.nsites,
                Int64.to_int (Int64.logand cookie 0xFFFF_FFFFL) )
        in
        if not (Tenure.admit_read t.tenure site) then misdirected
        else begin
        let names =
          match Hashtbl.find_opt t.dir_index dfh.Fh.file_id with
          | None -> []
          | Some tbl -> List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])
        in
        let names =
          match t.cfg.policy with
          | Mkdir_switching -> names
          | Name_hashing ->
              List.filter (fun (name, _) -> entry_site t dfh name = site) names
        in
        let total = List.length names in
        let rec take i acc = function
          | [] -> List.rev acc
          | _ when i >= start + count -> List.rev acc
          | (name, (child : Fh.t)) :: rest ->
              if i < start then take (i + 1) acc rest
              else
                take (i + 1)
                  ({ Nfs.entry_id = child.Fh.file_id;
                     entry_name = name;
                     entry_cookie = Int64.of_int (i + 1) }
                  :: acc)
                  rest
        in
        let entries = take 0 [] names in
        let next = min total (start + count) in
        Ok (Nfs.RReaddir (entries, Int64.of_int next, next >= total))
        end
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
  log t rt_applied (payload_of (fun e -> Enc.u64 e op_id))

let handle_peer t (msg : Peer.msg) : Peer.reply =
  t.peer_ops <- t.peer_ops + 1;
  if wedged t then begin
    Tenure.note_fence t.tenure;
    Peer.Rerr Nfs.ERR_MISDIRECTED
  end
  else
  let dedup op_id apply =
    if Hashtbl.mem t.applied op_id then Peer.Ack
    else begin
      let r = apply () in
      mark_applied t op_id;
      sync_log t;
      r
    end
  in
  match msg with
  | Peer.Getattr fh -> (
      match local_cell t fh.Fh.file_id with
      | Some c -> Peer.Rattr (attr_of_cell c)
      | None -> Peer.Rerr Nfs.ERR_STALE)
  | Peer.Setattr { op_id; fh; sattr } ->
      dedup op_id (fun () ->
          match local_cell t fh.Fh.file_id with
          | None -> Peer.Rerr Nfs.ERR_STALE
          | Some c ->
              c.attr <- Nfs.apply_sattr c.attr sattr ~now:(now t);
              log_cell t fh.Fh.file_id c;
              Peer.Rattr (attr_of_cell c))
  | Peer.Nlink { op_id; fh; delta } -> (
      match local_cell t fh.Fh.file_id with
      | None -> Peer.Rerr Nfs.ERR_STALE
      | Some c ->
          if Hashtbl.mem t.applied op_id then Peer.Rattr (attr_of_cell c)
          else begin
            c.attr <- { c.attr with nlink = c.attr.Nfs.nlink + delta; ctime = now t };
            let attr = attr_of_cell c in
            if c.attr.Nfs.nlink <= 0 then begin
              Hashtbl.remove t.attrs fh.Fh.file_id;
              log_remove_cell t fh.Fh.file_id
            end
            else log_cell t fh.Fh.file_id c;
            mark_applied t op_id;
            sync_log t;
            Peer.Rattr attr
          end)
  | Peer.Entry_count { op_id; dir; delta; mtime } ->
      dedup op_id (fun () ->
          (match local_cell t dir.Fh.file_id with
          | Some c ->
              c.entries <- c.entries + delta;
              c.attr <- { c.attr with mtime; ctime = now t };
              log_cell t dir.Fh.file_id c
          | None -> ());
          Peer.Ack)
  | Peer.Add_entry { op_id; dir; name; child } ->
      if Hashtbl.mem t.applied op_id then Peer.Ack
      else if Hashtbl.mem t.entries (dir.Fh.file_id, name) then Peer.Rerr Nfs.ERR_EXIST
      else begin
        apply_add_entry t dir.Fh.file_id name child;
        log_add_entry t dir.Fh.file_id name child;
        (match local_cell t dir.Fh.file_id with
        | Some c ->
            c.entries <- c.entries + 1;
            c.attr <- { c.attr with mtime = now t; ctime = now t };
            log_cell t dir.Fh.file_id c
        | None -> ());
        mark_applied t op_id;
        sync_log t;
        Peer.Ack
      end
  | Peer.Remove_entry { op_id; dir; name } ->
      if Hashtbl.mem t.applied op_id then Peer.Ack
      else if not (Hashtbl.mem t.entries (dir.Fh.file_id, name)) then Peer.Rerr Nfs.ERR_NOENT
      else begin
        apply_remove_entry t dir.Fh.file_id name;
        log_remove_entry t dir.Fh.file_id name;
        (match local_cell t dir.Fh.file_id with
        | Some c ->
            c.entries <- c.entries - 1;
            c.attr <- { c.attr with mtime = now t; ctime = now t };
            log_cell t dir.Fh.file_id c
        | None -> ());
        mark_applied t op_id;
        sync_log t;
        Peer.Ack
      end
  | Peer.Get_entry { dir; name } -> (
      match Hashtbl.find_opt t.entries (dir.Fh.file_id, name) with
      | Some child -> Peer.Rentry child
      | None -> Peer.Rerr Nfs.ERR_NOENT)

(* ---- service wiring ---- *)

let serve_peer t =
  Nfs_endpoint.serve_raw t.host ~port:t.cfg.peer_port ~handler:(fun pkt ->
      Engine.spawn t.host.Host.eng (fun () ->
          if t.up then
            match (try Some (Peer.decode_msg pkt.Packet.payload) with Peer.Malformed -> None) with
            | None -> ()
            | Some (xid, msg) ->
                let span =
                  Trace.child (Trace.span_of_xid t.trace xid) ~hop:"server"
                    ~site:(Host.name t.host) ()
                in
                Host.cpu t.host t.costs.per_peer_op;
                let reply = handle_peer t msg in
                Trace.finish span;
                Nfs_endpoint.reply_to t.host pkt (Peer.encode_reply ~xid reply)))

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
    sync_log t
  end

let make_wal (host : Host.t) =
  match host.Host.disk with
  | Some disk -> Wal.create ~eng:host.Host.eng ~disk ~name:"dir.wal" ()
  | None -> Wal.create ~name:"dir.wal" ()

(* lint: F1 ok — bootstrap: installs the root cell before the server is exposed to clients; no deposed instance can exist yet *)
let attach host ?(port = 2049) ?(costs = default_costs) ?trace ?qos cfg =
  let t =
    {
      host;
      cfg;
      costs;
      trace;
      (* lint: bounded — attribute cells: dataless-manager state, WAL+checkpoint-backed (§3.4) *)
      attrs = Hashtbl.create 1024;
      (* lint: bounded — name entries: dataless-manager state, WAL+checkpoint-backed (§3.4) *)
      entries = Hashtbl.create 4096;
      (* lint: bounded — one row per directory, dropped with the directory *)
      dir_index = Hashtbl.create 256;
      (* lint: bounded — applied-op dedup, compacted into each checkpoint *)
      applied = Hashtbl.create 64;
      (* lint: bounded — one row per in-flight two-phase op; commit/abort removes it *)
      prepares = Hashtbl.create 16;
      rpc = Rpc.create host.Host.net host.Host.addr ~port:2053;
      tenure = Tenure.create (cfg.logical_id :: cfg.also_owns);
      wal = make_wal host;
      next_file = 1;
      next_op = Int64.of_int (cfg.logical_id * 100_000_000);
      ops = 0;
      peer_ops = 0;
      peer_calls = 0;
      up = true;
    }
  in
  Nfs_endpoint.serve host ~port
    ~cost:{ per_op = costs.per_op; per_byte = 0.0 }
    ~alive:(fun () -> t.up)
    ?trace ?qos ~handler:(handle t) ();
  serve_peer t;
  Engine.spawn host.Host.eng (fun () -> install_root t);
  t

let addr t = t.host.Host.addr
let ops_served t = t.ops
let peer_ops_served t = t.peer_ops
let cross_site_ops t = t.peer_calls
let entry_count t = Hashtbl.length t.entries
let attr_cell_count t = Hashtbl.length t.attrs
let log_bytes t = Wal.bytes_appended t.wal

let lookup_local t ~parent name = Hashtbl.find_opt t.entries (parent.Fh.file_id, name)
let tenure t = t.tenure

(* ---- crash / recovery ---- *)

let reset_volatile t =
  Hashtbl.reset t.attrs;
  Hashtbl.reset t.entries;
  Hashtbl.reset t.dir_index;
  Hashtbl.reset t.applied;
  Hashtbl.reset t.prepares

(* lint: F1 ok — crash simulation: rebuilding the surviving journal image models the disk, not a client-visible mutation *)
let crash t =
  t.up <- false;
  (* A drain in progress is volatile control-plane state: the migration
     aborts and the recovered server serves the site normally again. *)
  Tenure.clear_drains t.tenure;
  let image = Wal.image t.wal in
  reset_volatile t;
  let wal = make_wal t.host in
  ignore (Wal.replay image (fun ~lsn:_ ~rtype payload -> ignore (Wal.append wal ~rtype payload)));
  Wal.sync wal;
  t.wal <- wal

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
  t.up <- true;
  (* Re-drive prepared-but-uncommitted cross-site updates; peers dedup by
     op id so re-delivery is harmless. *)
  let pending = Hashtbl.fold (fun op_id v acc -> (op_id, v) :: acc) t.prepares [] in
  Engine.spawn t.host.Host.eng (fun () ->
      List.iter
        (fun (op_id, (site, msg_bytes)) ->
          match Peer.decode_msg (Bytes.of_string msg_bytes) with
          | _, msg ->
              ignore (peer_call t ~site msg);
              Hashtbl.remove t.prepares op_id;
              log t rt_commit (payload_of (fun e -> Enc.u64 e op_id));
              sync_log t
          | exception Peer.Malformed -> ())
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
           log t rtype payload;
           try apply_record t ~rtype payload with Slice_xdr.Xdr.Truncated -> ()
         end));
  !seen

let is_up t = t.up
let host t = t.host

(* lint: F1 ok — journal compaction is operator-driven control plane, not client dispatch; it rewrites, never extends, history *)
let checkpoint t =
  let payload =
    payload_of (fun e ->
        Enc.u32 e (Hashtbl.length t.attrs);
        Hashtbl.iter (fun fid c -> enc_cell e fid c) t.attrs;
        Enc.u32 e (Hashtbl.length t.entries);
        Hashtbl.iter
          (fun (parent, name) child ->
            Enc.u64 e parent;
            Enc.str e name;
            Enc.opaque e (Fh.encode child))
          t.entries)
  in
  Wal.checkpoint t.wal;
  log t rt_snapshot payload;
  (* Preserve dedup state and outstanding prepares across the checkpoint. *)
  Hashtbl.iter (fun op_id () -> log t rt_applied (payload_of (fun e -> Enc.u64 e op_id))) t.applied;
  Hashtbl.iter
    (fun op_id (site, msg) ->
      log t rt_prepare
        (payload_of (fun e ->
             Enc.u64 e op_id;
             Enc.u32 e site;
             Enc.opaque e msg)))
    t.prepares;
  sync_log t
