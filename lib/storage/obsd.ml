module Engine = Slice_sim.Engine
module Nfs = Slice_nfs.Nfs
module Fh = Slice_nfs.Fh
module Routekey = Slice_nfs.Routekey
module Bcache = Slice_disk.Bcache
module Trace = Slice_trace.Trace

let block_size = Bcache.block_size

type obj = {
  mutable size : int64;
  data : (int, bytes) Hashtbl.t; (* materialized 8 KB blocks only *)
}

(* One storage object may carry subobjects for several logical storage
   sites: the µproxy encodes the logical site into the high bits of every
   bulk-I/O offset (Routekey.site_offset_int), and the node decodes it here.
   Keeping sites separate is what lets a logical site migrate between
   nodes — or several sites share one node after a reconfiguration —
   without colliding in an object's offset space. *)
type t = {
  host : Host.t;
  cap_secret : string option;
  cache : Bcache.t;
  objects : (int64, (int, obj) Hashtbl.t) Hashtbl.t; (* oid -> site -> subobject *)
  owned : (int, unit) Hashtbl.t; (* logical sites served here *)
  draining : (int, unit) Hashtbl.t; (* sites mid-migration: reads ok, writes bounce *)
  site_ops : (int, int ref) Hashtbl.t; (* per-site request load, for rebalancing *)
  mutable up : bool;
  mutable reads : int;
  mutable writes : int;
  mutable bytes_read : int;
  mutable bytes_written : int;
  mutable drain_bounces : int;
  mutable misdirect_bounces : int;
  (* Fencing lease (failover): an expired lease wedges the whole node —
     every request bounces — so a zombie deposed by a takeover cannot
     acknowledge writes against stale object state. Defaults (infinite
     lease, epoch 0) keep standalone nodes unfenced. *)
  mutable lease_until : float;
  mutable lease_epoch : int;
  mutable fence_bounces : int;
}

let object_id_of_fh fh = Slice_hash.Md5.fold64 (Fh.key fh)

let site_of_offset woff = Routekey.offset_site_int (Int64.to_int woff)
let local_of_offset woff = Int64.of_int (Routekey.offset_local_int (Int64.to_int woff))

(* Distinct Bcache block index space per logical site within one object. *)
let cache_block ~site ~local_block = (site * (Routekey.site_stride_int / block_size)) + local_block

let sites_of t oid =
  match Hashtbl.find_opt t.objects oid with
  | Some tbl -> tbl
  | None ->
      (* lint: bounded — one row per logical site holding part of this object *)
      let tbl = Hashtbl.create 2 in
      Hashtbl.replace t.objects oid tbl;
      tbl

let get_obj t oid site =
  let tbl = sites_of t oid in
  match Hashtbl.find_opt tbl site with
  | Some o -> o
  | None ->
      (* lint: bounded — one object's blocks, capped by the object's size *)
      let o = { size = 0L; data = Hashtbl.create 8 } in
      Hashtbl.replace tbl site o;
      o

(* Aggregate size across this node's subobjects, for offset-free ops
   (getattr, commit replies). *)
let total_size t oid =
  match Hashtbl.find_opt t.objects oid with
  | Some tbl -> Hashtbl.fold (fun _ o acc -> Int64.add acc o.size) tbl 0L
  | None -> 0L

let attr_of t fh size =
  ignore t;
  {
    (Nfs.default_attr ~ftype:fh.Fh.ftype ~fileid:fh.Fh.file_id ~now:0.0) with
    size;
    used = size;
  }

let block_range ~off ~count =
  let first = Int64.to_int (Int64.div off (Int64.of_int block_size)) in
  let last =
    Int64.to_int (Int64.div (Int64.add off (Int64.of_int (max 0 (count - 1)))) (Int64.of_int block_size))
  in
  (first, if count = 0 then first - 1 else last)

(* Store real bytes into the subobject's materialized blocks. *)
let store_data (o : obj) ~off data =
  let len = String.length data in
  let rec loop pos =
    if pos < len then begin
      let abs = Int64.add off (Int64.of_int pos) in
      let blk = Int64.to_int (Int64.div abs (Int64.of_int block_size)) in
      let in_blk = Int64.to_int (Int64.rem abs (Int64.of_int block_size)) in
      let n = min (block_size - in_blk) (len - pos) in
      let buf =
        match Hashtbl.find_opt o.data blk with
        | Some b -> b
        | None ->
            let b = Bytes.make block_size '\000' in
            Hashtbl.replace o.data blk b;
            b
      in
      Bytes.blit_string data pos buf in_blk n;
      loop (pos + n)
    end
  in
  loop 0

(* Extract real bytes if every touched block is materialized. *)
let load_data (o : obj) ~off ~count =
  let first, last = block_range ~off ~count in
  let all_real = ref (count > 0) in
  for b = first to last do
    if not (Hashtbl.mem o.data b) then all_real := false
  done;
  if not !all_real then None
  else begin
    let out = Bytes.create count in
    let rec loop pos =
      if pos < count then begin
        let abs = Int64.add off (Int64.of_int pos) in
        let blk = Int64.to_int (Int64.div abs (Int64.of_int block_size)) in
        let in_blk = Int64.to_int (Int64.rem abs (Int64.of_int block_size)) in
        let n = min (block_size - in_blk) (count - pos) in
        Bytes.blit (Hashtbl.find o.data blk) in_blk out pos n;
        loop (pos + n)
      end
    in
    loop 0;
    Some (Bytes.unsafe_to_string out)
  end

let authorized t (call : Nfs.call) =
  match t.cap_secret with
  | None -> true
  | Some secret -> (
      match call with
      | Nfs.Null -> true
      | Nfs.Getattr fh | Nfs.Read (fh, _, _) | Nfs.Write (fh, _, _, _)
      | Nfs.Commit (fh, _, _) | Nfs.Remove (fh, _) | Nfs.Setattr (fh, _) ->
          Slice_nfs.Cap.verify ~secret fh
      | _ -> true (* misdirected classes are rejected below anyway *))

let touch_site t site =
  let r =
    match Hashtbl.find_opt t.site_ops site with
    | Some r -> r
    | None ->
        let r = ref 0 in
        Hashtbl.replace t.site_ops site r;
        r
  in
  incr r

let owns t site = Hashtbl.mem t.owned site
let is_draining t site = Hashtbl.mem t.draining site

let wedged t = Engine.now t.host.Host.eng > t.lease_until

let handle t span (call : Nfs.call) : Nfs.response =
  (* Synchronous cache/disk work records as a "disk" hop; asynchronous
     readahead and write-behind stay untraced (they complete after the
     request span closes). *)
  let disk_timed f = Trace.timed span ~hop:"disk" ~site:(Host.name t.host) f in
  if wedged t then begin
    t.fence_bounces <- t.fence_bounces + 1;
    Error Nfs.ERR_MISDIRECTED
  end
  else if not (authorized t call) then Error Nfs.ERR_PERM
  else
  match call with
  | Nfs.Null -> Ok Nfs.RNull
  | Nfs.Getattr fh ->
      let oid = object_id_of_fh fh in
      Ok (Nfs.RGetattr (attr_of t fh (total_size t oid)))
  | Nfs.Read (fh, woff, count) ->
      let oid = object_id_of_fh fh in
      let site = site_of_offset woff in
      if not (owns t site || is_draining t site) then begin
        t.misdirect_bounces <- t.misdirect_bounces + 1;
        Error Nfs.ERR_MISDIRECTED
      end
      else begin
        touch_site t site;
        let off = local_of_offset woff in
        let o = get_obj t oid site in
        let avail = Int64.sub o.size off in
        let count =
          if Int64.compare avail 0L <= 0 then 0
          else min count (Int64.to_int (min avail (Int64.of_int count)))
        in
        let first, last = block_range ~off ~count in
        disk_timed (fun () ->
            for b = first to last do
              Bcache.read t.cache ~obj:oid ~block:(cache_block ~site ~local_block:b)
            done);
        t.reads <- t.reads + 1;
        t.bytes_read <- t.bytes_read + count;
        let eof = Int64.compare (Int64.add off (Int64.of_int count)) o.size >= 0 in
        let data =
          if count = 0 then Nfs.Data ""
          else
            match load_data o ~off ~count with
            | Some s -> Nfs.Data s
            | None -> Nfs.Synthetic count
        in
        Ok (Nfs.RRead (data, eof, attr_of t fh o.size))
      end
  | Nfs.Write (fh, woff, stable, data) ->
      let oid = object_id_of_fh fh in
      let site = site_of_offset woff in
      (* Drain: the donor answers reads for a moving site but bounces its
         writes so no update can land behind the migration's back.
         Mirrored subobjects are exempt (their twin replica has already
         applied the duplicated write; the commit-time delta sweep trues
         this replica up instead of forcing a half-applied bounce). *)
      if is_draining t site && not fh.Fh.mirrored then begin
        t.drain_bounces <- t.drain_bounces + 1;
        Error Nfs.ERR_MISDIRECTED
      end
      else if not (owns t site || is_draining t site) then begin
        t.misdirect_bounces <- t.misdirect_bounces + 1;
        Error Nfs.ERR_MISDIRECTED
      end
      else begin
        touch_site t site;
        let off = local_of_offset woff in
        let o = get_obj t oid site in
        let len = Nfs.wdata_length data in
        let first, last = block_range ~off ~count:len in
        disk_timed (fun () ->
            for b = first to last do
              Bcache.write t.cache ~obj:oid ~block:(cache_block ~site ~local_block:b)
            done);
        (match data with Nfs.Data s -> store_data o ~off s | Nfs.Synthetic _ -> ());
        let fin = Int64.add off (Int64.of_int len) in
        if Int64.compare fin o.size > 0 then o.size <- fin;
        t.writes <- t.writes + 1;
        t.bytes_written <- t.bytes_written + len;
        if stable <> Nfs.Unstable then disk_timed (fun () -> Bcache.commit t.cache ~obj:oid);
        Ok (Nfs.RWrite (len, stable, attr_of t fh o.size))
      end
  | Nfs.Commit (fh, _off, _count) ->
      (* Commit targets the whole node-local object (the coordinator fans
         it out per node, not per site) — never ownership-gated, so the
         coordinator's idempotent redo always lands. *)
      let oid = object_id_of_fh fh in
      disk_timed (fun () -> Bcache.commit t.cache ~obj:oid);
      Ok (Nfs.RCommit (attr_of t fh (total_size t oid)))
  | Nfs.Remove (fh, _name) ->
      (* Object remove: the coordinator names the object by handle; the
         name argument is unused at this layer. Drops every local
         subobject — permissive for the same redo reason as commit. *)
      let oid = object_id_of_fh fh in
      Hashtbl.remove t.objects oid;
      Bcache.invalidate_object t.cache oid;
      Ok Nfs.RRemove
  | Nfs.Setattr (fh, s) -> (
      let oid = object_id_of_fh fh in
      match s.Nfs.set_size with
      | Some sz ->
          let tbl = sites_of t oid in
          if Hashtbl.length tbl = 0 then ignore (get_obj t oid 0);
          let single = Hashtbl.length tbl <= 1 in
          Hashtbl.iter
            (fun _ (o : obj) ->
              (* With one subobject this is the plain truncate/extend of a
                 single-site object; across several sites the global size
                 can only clamp each site's folded subobject downward. *)
              o.size <- (if single then sz else min o.size sz);
              let keep_last, _ = block_range ~off:o.size ~count:1 in
              Hashtbl.iter
                (fun b _ -> if b > keep_last then Hashtbl.remove o.data b)
                (Hashtbl.copy o.data))
            tbl;
          Ok (Nfs.RSetattr (attr_of t fh (total_size t oid)))
      | None -> Ok (Nfs.RSetattr (attr_of t fh (total_size t oid))))
  | Nfs.Lookup _ | Nfs.Access _ | Nfs.Readlink _ | Nfs.Create _ | Nfs.Mkdir _
  | Nfs.Symlink _ | Nfs.Rmdir _ | Nfs.Rename _ | Nfs.Link _ | Nfs.Readdir _
  | Nfs.Fsstat _ ->
      Error Nfs.ERR_NOTDIR

let attach host ?(port = 2049) ?(cache_bytes = 256 * 1024 * 1024) ?cap_secret
    ?(sites = [ 0 ]) ?trace ?qos () =
  let disk = Host.disk_exn host in
  let t =
    {
      host;
      cap_secret;
      cache =
        Bcache.create host.Host.eng
          ~backend:(Bcache.disk_backend host.Host.eng disk)
          ~capacity:cache_bytes ~name:(Host.name host);
      (* lint: bounded — the backing store itself: one row per stored object *)
      objects = Hashtbl.create 256;
      (* lint: bounded — one row per logical storage site bound here *)
      owned = Hashtbl.create 4;
      (* lint: bounded — sites mid-migration; cleared on commit/abort/crash *)
      draining = Hashtbl.create 4;
      (* lint: bounded — one row per logical storage site *)
      site_ops = Hashtbl.create 4;
      up = true;
      reads = 0;
      writes = 0;
      bytes_read = 0;
      bytes_written = 0;
      drain_bounces = 0;
      misdirect_bounces = 0;
      lease_until = infinity;
      lease_epoch = 0;
      fence_bounces = 0;
    }
  in
  List.iter (fun s -> Hashtbl.replace t.owned s ()) sites;
  (* Per-op cost small and per-byte cost modeling the storage node's
     network/buffer path; the SCSI channel, not the CPU, is the intended
     per-node bandwidth cap. *)
  Nfs_endpoint.serve host ~port
    ~cost:{ per_op = 40e-6; per_byte = 2.5e-9 }
    ~alive:(fun () -> t.up)
    ?trace ?qos ~handler:(handle t) ();
  t

let crash t =
  t.up <- false;
  (* RAM is lost; the objects table plays the role of the disk. A drain
     in progress is volatile control-plane state: the migration aborts
     and the recovered node serves the site normally again. *)
  Hashtbl.reset t.draining;
  Bcache.drop_clean t.cache

let recover t = t.up <- true
let is_up t = t.up

let addr t = t.host.Host.addr
let host t = t.host

(* Instantaneous backlog in seconds — the load gauge a µproxy probes
   when choosing between two mirror replicas (power-of-two-choices).
   CPU plus disk arms: under read-heavy storms the arms, not the CPU,
   are the contended resource, so a CPU-only gauge would see two
   equally idle processors in front of very differently loaded
   arrays. *)
let queue_depth t =
  Slice_sim.Resource.backlog t.host.Host.cpu
  +. Slice_disk.Disk.backlog (Host.disk_exn t.host)
let object_count t = Hashtbl.length t.objects

let object_size t fh =
  match Hashtbl.find_opt t.objects (object_id_of_fh fh) with
  | None -> None
  | Some tbl -> Some (Hashtbl.fold (fun _ o acc -> Int64.add acc o.size) tbl 0L)

(* ---- reconfiguration hooks (control-plane, in-process) ---- *)

let owned_sites t =
  Hashtbl.fold (fun s () acc -> s :: acc) t.owned [] |> List.sort compare

let own_site t site = Hashtbl.replace t.owned site ()

let disown_site t site =
  Hashtbl.remove t.owned site;
  Hashtbl.remove t.draining site

let begin_drain t site = Hashtbl.replace t.draining site ()
let end_drain t site = Hashtbl.remove t.draining site

let site_load t site =
  match Hashtbl.find_opt t.site_ops site with Some r -> !r | None -> 0

let reset_site_load t site = Hashtbl.remove t.site_ops site

let drain_bounces t = t.drain_bounces
let misdirect_bounces t = t.misdirect_bounces

type site_image = (int64 * int64 * (int * bytes) list) list
(* (oid, subobject size, materialized blocks) per object of the site. *)

let export_site t site : site_image =
  Hashtbl.fold
    (fun oid tbl acc ->
      match Hashtbl.find_opt tbl site with
      | None -> acc
      | Some o ->
          let blocks =
            Hashtbl.fold (fun b buf acc -> (b, Bytes.copy buf) :: acc) o.data []
            |> List.sort (fun (a, _) (b, _) -> compare a b)
          in
          (oid, o.size, blocks) :: acc)
    t.objects []
  |> List.sort (fun (a, _, _) (b, _, _) -> compare a b)

let import_site t site (img : site_image) =
  List.iter
    (fun (oid, size, blocks) ->
      (* lint: bounded — deep copy of one migrating subobject's blocks *)
      let o = { size; data = Hashtbl.create (max 8 (List.length blocks)) } in
      List.iter (fun (b, buf) -> Hashtbl.replace o.data b (Bytes.copy buf)) blocks;
      Hashtbl.replace (sites_of t oid) site o)
    img

let drop_site t site =
  Hashtbl.iter (fun _ tbl -> Hashtbl.remove tbl site) t.objects;
  (* Prune objects left with no subobjects so object_count stays honest. *)
  let empty =
    Hashtbl.fold (fun oid tbl acc -> if Hashtbl.length tbl = 0 then oid :: acc else acc)
      t.objects []
    |> List.sort compare
  in
  List.iter (fun oid -> Hashtbl.remove t.objects oid) empty;
  Hashtbl.remove t.site_ops site

let image_bytes (img : site_image) =
  List.fold_left (fun acc (_, size, _) -> Int64.add acc size) 0L img

let site_bytes t site =
  Hashtbl.fold
    (fun _ tbl acc ->
      match Hashtbl.find_opt tbl site with
      | Some o -> Int64.add acc o.size
      | None -> acc)
    t.objects 0L

(* ---- fencing lease (failover) ---- *)

let set_lease t ~epoch ~until =
  t.lease_epoch <- epoch;
  t.lease_until <- until

let lease_epoch t = t.lease_epoch
let fence_bounces t = t.fence_bounces
let is_wedged t = wedged t

let reads t = t.reads
let writes t = t.writes
let bytes_read t = t.bytes_read
let bytes_written t = t.bytes_written
let disk t = Host.disk_exn t.host
let drop_caches t = Bcache.drop_clean t.cache
let cache_hits t = Bcache.hits t.cache
let cache_misses t = Bcache.misses t.cache
