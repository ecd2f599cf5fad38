module Engine = Slice_sim.Engine
module Nfs = Slice_nfs.Nfs
module Fh = Slice_nfs.Fh
module Routekey = Slice_nfs.Routekey
module Bcache = Slice_disk.Bcache
module Fileblocks = Slice_disk.Fileblocks
module Trace = Slice_trace.Trace

let block_size = Bcache.block_size

type obj = { mutable size : int; data : Fileblocks.t }

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
  tenure : Tenure.t; (* logical sites served here, drains, load, fencing lease *)
  mutable reads : int;
  mutable writes : int;
  mutable bytes_read : int;
  mutable bytes_written : int;
}

(* "An external hash maps handles to storage objects": the object id is
   the MD5 fold of the handle's 32 wire bytes, written into one scratch
   buffer and digested there. *)
let oid_key = Bytes.create Fh.wire_length

let object_id_of_fh fh =
  Fh.write_into oid_key 0 fh;
  Slice_hash.Md5.fold64_bytes oid_key ~pos:0 ~len:Fh.wire_length

(* Distinct Bcache block index space per logical site within one object. *)
let cache_block ~site ~local_block = (site * (Routekey.site_stride_int / block_size)) + local_block

let sites_of t oid =
  match Hashtbl.find t.objects oid with
  | tbl -> tbl
  | exception Not_found ->
      (* lint: bounded — one row per logical site holding part of this object *)
      let tbl = Hashtbl.create 2 in
      Hashtbl.replace t.objects oid tbl;
      tbl

let get_obj t oid site =
  let tbl = sites_of t oid in
  match Hashtbl.find tbl site with
  | o -> o
  | exception Not_found ->
      let o = { size = 0; data = Fileblocks.create () } in
      Hashtbl.replace tbl site o;
      o

(* What a READ sees of a subobject never written: 0 bytes, so the read
   answers EOF with nothing. Shared and never written to. *)
let no_obj = { size = 0; data = Fileblocks.create () }

(* A READ looks the subobject up without creating it. *)
let find_obj t oid site =
  match Hashtbl.find (Hashtbl.find t.objects oid) site with
  | o -> o
  | exception Not_found -> no_obj

let add_size _ o acc = acc + o.size

(* Aggregate size across this node's subobjects, for offset-free ops
   (getattr, commit replies). *)
let total_size t oid =
  match Hashtbl.find t.objects oid with
  | tbl -> Hashtbl.fold add_size tbl 0
  | exception Not_found -> 0

(* The blocks [first..last] of a request, through the cache. *)
let read_blocks t oid site first last =
  for b = first to last do
    Bcache.read t.cache ~obj:oid ~block:(cache_block ~site ~local_block:b)
  done

let[@hot] write_blocks t oid site first last =
  for b = first to last do
    Bcache.write t.cache ~obj:oid ~block:(cache_block ~site ~local_block:b)
  done

(* Synchronous cache/disk work records as a "disk" hop on a live span;
   the closure [Trace.timed] takes is built only then. Asynchronous
   readahead and write-behind stay untraced (they complete after the
   request span closes). *)
let disk_hop t span f = Trace.timed span ~hop:"disk" ~site:(Host.name t.host) f

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

(* An expired lease wedges the whole node — every request bounces — so a
   zombie deposed by a takeover cannot acknowledge writes against stale
   object state. *)
let wedged t = Tenure.wedged t.tenure ~now:(Engine.now t.host.Host.eng)

let handle t span (call : Nfs.call) : Nfs.response =
  if wedged t then begin
    Tenure.note_fence t.tenure;
    Error Nfs.ERR_MISDIRECTED
  end
  else if not (authorized t call) then Error Nfs.ERR_PERM
  else
  match call with
  | Nfs.Null -> Ok Nfs.RNull
  | Nfs.Getattr fh ->
      let oid = object_id_of_fh fh in
      Ok (Nfs.RGetattr (Nfs.data_attr fh (total_size t oid)))
  | Nfs.Read (fh, woff, count) ->
      let woff = Int64.to_int woff in
      let site = Routekey.offset_site_int woff in
      if not (Tenure.admit_read t.tenure site) then Error Nfs.ERR_MISDIRECTED
      else begin
        let oid = object_id_of_fh fh in
        let off = Routekey.offset_local_int woff in
        let o = find_obj t oid site in
        let avail = o.size - off in
        let count = if avail <= 0 then 0 else min count avail in
        let first = off / block_size in
        let last = if count = 0 then first - 1 else (off + count - 1) / block_size in
        if Trace.is_live span then disk_hop t span (fun () -> read_blocks t oid site first last)
        else read_blocks t oid site first last;
        t.reads <- t.reads + 1;
        t.bytes_read <- t.bytes_read + count;
        let eof = off + count >= o.size in
        let data =
          if count = 0 then Nfs.Data ""
          else
            match Fileblocks.load o.data ~off ~count with
            | Some s -> Nfs.Data s
            | None -> Nfs.Synthetic count
        in
        Ok (Nfs.RRead (data, eof, Nfs.data_attr fh o.size))
      end
  | Nfs.Write (fh, woff, stable, data) ->
      let woff = Int64.to_int woff in
      let site = Routekey.offset_site_int woff in
      (* Drain: the donor answers reads for a moving site but bounces its
         writes so no update can land behind the migration's back.
         Mirrored subobjects are exempt (their twin replica has already
         applied the duplicated write; the commit-time delta sweep trues
         this replica up instead of forcing a half-applied bounce). *)
      let admitted =
        if fh.Fh.mirrored then Tenure.admit_read t.tenure site
        else Tenure.admit_write t.tenure site
      in
      if not admitted then Error Nfs.ERR_MISDIRECTED
      else begin
        let oid = object_id_of_fh fh in
        let off = Routekey.offset_local_int woff in
        let o = get_obj t oid site in
        let len = Nfs.wdata_length data in
        let first = off / block_size in
        let last = if len = 0 then first - 1 else (off + len - 1) / block_size in
        if Trace.is_live span then disk_hop t span (fun () -> write_blocks t oid site first last)
        else write_blocks t oid site first last;
        (match data with Nfs.Data s -> Fileblocks.store o.data ~off s | Nfs.Synthetic _ -> ());
        let fin = off + len in
        if fin > o.size then o.size <- fin;
        t.writes <- t.writes + 1;
        t.bytes_written <- t.bytes_written + len;
        if stable <> Nfs.Unstable then
          if Trace.is_live span then disk_hop t span (fun () -> Bcache.commit t.cache ~obj:oid)
          else Bcache.commit t.cache ~obj:oid;
        Ok (Nfs.RWrite (len, stable, Nfs.data_attr fh o.size))
      end
  | Nfs.Commit (fh, _off, _count) ->
      (* Commit targets the whole node-local object (the coordinator fans
         it out per node, not per site) — never ownership-gated, so the
         coordinator's idempotent redo always lands. *)
      let oid = object_id_of_fh fh in
      if Trace.is_live span then disk_hop t span (fun () -> Bcache.commit t.cache ~obj:oid)
      else Bcache.commit t.cache ~obj:oid;
      Ok (Nfs.RCommit (Nfs.data_attr fh (total_size t oid)))
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
          let sz = Int64.to_int sz in
          let tbl = sites_of t oid in
          if Hashtbl.length tbl = 0 then ignore (get_obj t oid 0);
          let single = Hashtbl.length tbl <= 1 in
          Hashtbl.iter
            (fun _ (o : obj) ->
              (* With one subobject this is the plain truncate/extend of a
                 single-site object; across several sites the global size
                 can only clamp each site's folded subobject downward. *)
              o.size <- (if single then sz else min o.size sz);
              Fileblocks.truncate o.data o.size)
            tbl;
          Ok (Nfs.RSetattr (Nfs.data_attr fh (total_size t oid)))
      | None -> Ok (Nfs.RSetattr (Nfs.data_attr fh (total_size t oid))))
  | Nfs.Lookup _ | Nfs.Access _ | Nfs.Readlink _ | Nfs.Create _ | Nfs.Mkdir _
  | Nfs.Symlink _ | Nfs.Rmdir _ | Nfs.Rename _ | Nfs.Link _ | Nfs.Readdir _
  | Nfs.Fsstat _ ->
      Error Nfs.ERR_NOTDIR

let attach host ?(cache_bytes = 256 * 1024 * 1024) ?cap_secret
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
      tenure = Tenure.create sites;
      reads = 0;
      writes = 0;
      bytes_read = 0;
      bytes_written = 0;
    }
  in
  (* Per-op cost small and per-byte cost modeling the storage node's
     network/buffer path; the SCSI channel, not the CPU, is the intended
     per-node bandwidth cap. *)
  Nfs_endpoint.serve host ~port:2049
    ~cost:{ per_op = 40e-6; per_byte = 2.5e-9 }
    ~tenure:t.tenure ?trace ?qos ~handler:(handle t) ();
  t

let crash t =
  Tenure.crash t.tenure;
  (* RAM is lost; the objects table plays the role of the disk. *)
  Bcache.drop_clean t.cache

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

let object_size t fh =
  match Hashtbl.find_opt t.objects (object_id_of_fh fh) with
  | None -> None
  | Some tbl -> Some (Int64.of_int (Hashtbl.fold add_size tbl 0))

(* ---- reconfiguration hooks (control-plane, in-process) ---- *)

let tenure t = t.tenure

type site_image = (int64 * int * (int * bytes) list) list
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
  (* Prune objects left with no subobjects. *)
  let empty =
    Hashtbl.fold (fun oid tbl acc -> if Hashtbl.length tbl = 0 then oid :: acc else acc)
      t.objects []
    |> List.sort compare
  in
  List.iter (fun oid -> Hashtbl.remove t.objects oid) empty;
  Tenure.reset_load t.tenure site

let image_bytes (img : site_image) =
  Int64.of_int (List.fold_left (fun acc (_, size, _) -> acc + size) 0 img)

let site_bytes t site =
  Int64.of_int
    (Hashtbl.fold
       (fun _ tbl acc ->
         match Hashtbl.find_opt tbl site with
         | Some o -> acc + o.size
         | None -> acc)
       t.objects 0)

let reads t = t.reads
let writes t = t.writes
let bytes_read t = t.bytes_read
let bytes_written t = t.bytes_written
let disk t = Host.disk_exn t.host
let drop_caches t = Bcache.drop_clean t.cache
let cache_hits t = Bcache.hits t.cache
let cache_misses t = Bcache.misses t.cache
