module Engine = Slice_sim.Engine
module Nfs = Slice_nfs.Nfs
module Fh = Slice_nfs.Fh
module Bcache = Slice_disk.Bcache
module Ffs = Slice_disk.Ffs
module Fileblocks = Slice_disk.Fileblocks
module Host = Slice_storage.Host
module Tenure = Slice_storage.Tenure
module Nfs_endpoint = Slice_storage.Nfs_endpoint
module Trace = Slice_trace.Trace

let block_size = Bcache.block_size

(* Backing-cache object ids: one for the map descriptor array, one for the
   data zone. *)
let map_obj = 1L
let data_obj = 2L

(* Map records are 96 bytes in the descriptor array: 85 fit per 8 KB
   block, so files created together share map blocks (the locality the
   paper's fileID assignment is designed for). *)
let map_recs_per_block = 85

type extent = { phys_off : int64; phys_len : int }

type filerec = {
  mutable size : int;
  mutable blocks : extent option array; (* per 8 KB logical block *)
  mutable data : Fileblocks.t option; (* real bytes, from the first real write on *)
  mutable site : int; (* logical small-file site (stamped from the handle) *)
}

type t = {
  host : Host.t;
  cache : Bcache.t;
  alloc : Ffs.t;
  files : (int64, filerec) Hashtbl.t;
  threshold : int;
  nsites : int; (* logical small-file sites in the volume *)
  tenure : Tenure.t; (* sites served here, drains, load, fencing lease *)
  mutable logical : int64;
  mutable physical : int64;
  mutable reads : int;
  mutable writes : int;
}

let physical_size_of n =
  if n <= 0 then 0
  else begin
    let size = ref 128 in
    while !size < n do
      size := !size * 2
    done;
    min !size block_size
  end

(* Logical small-file site of a handle; a file's state is keyed by
   fileID, so the site is stamped into its record when the handle passes
   by (the fileID alone cannot reproduce the routing hash). A request
   hashes its handle once and passes the site on. *)
let site_of t fh =
  if t.nsites <= 1 then 0 else Slice_nfs.Routekey.file_site ~nsites:t.nsites fh

let filerec_of t fh site =
  let fid = fh.Fh.file_id in
  match Hashtbl.find t.files fid with
  | fr ->
      fr.site <- site;
      fr
  | exception Not_found ->
      let fr = { size = 0; blocks = [||]; data = None; site } in
      Hashtbl.replace t.files fid fr;
      fr

let ensure_blocks fr n =
  if Array.length fr.blocks < n then begin
    let nb = Array.make n None in
    Array.blit fr.blocks 0 nb 0 (Array.length fr.blocks);
    fr.blocks <- nb
  end

(* Touch the map descriptor block for this fileID in the cache. *)
let touch_map t fid ~write =
  let blk = Int64.to_int (Int64.rem fid 1_000_000L) / map_recs_per_block in
  if write then Bcache.write t.cache ~obj:map_obj ~block:blk
  else Bcache.read t.cache ~obj:map_obj ~block:blk

let touch_extent t (ext : extent) ~write =
  (* Physical fragments shorter than a block still cost the enclosing
     cache block. *)
  let off = Int64.to_int ext.phys_off in
  let first = off / block_size in
  let last = (off + max 0 (ext.phys_len - 1)) / block_size in
  for b = first to last do
    if write then Bcache.write t.cache ~obj:data_obj ~block:b
    else Bcache.read t.cache ~obj:data_obj ~block:b
  done

(* Grow/replace the physical extent for logical block [blk] to fit
   [needed] bytes of that block. Best-fit from fragments, else appended at
   the end (Ffs first large extent). [None] when the backing object is
   full — the caller answers ERR_NOSPC, it must not crash the server. *)
let place_block t fr blk ~needed =
  let want = physical_size_of needed in
  let current = fr.blocks.(blk) in
  match current with
  | Some ext when ext.phys_len >= want -> Some ext
  | _ -> (
      (match current with
      | Some ext ->
          Ffs.free t.alloc ~off:ext.phys_off ~len:ext.phys_len;
          t.physical <- Int64.sub t.physical (Int64.of_int ext.phys_len)
      | None -> ());
      match Ffs.alloc t.alloc ~strategy:`Best_fit want with
      | None -> None
      | Some off ->
          let ext = { phys_off = off; phys_len = want } in
          fr.blocks.(blk) <- Some ext;
          t.physical <- Int64.add t.physical (Int64.of_int want);
          Some ext)

let free_file t fr =
  Array.iter
    (function
      | Some ext ->
          Ffs.free t.alloc ~off:ext.phys_off ~len:ext.phys_len;
          t.physical <- Int64.sub t.physical (Int64.of_int ext.phys_len)
      | None -> ())
    fr.blocks;
  t.logical <- Int64.sub t.logical (Int64.of_int fr.size);
  fr.blocks <- [||];
  fr.size <- 0;
  fr.data <- None

let attr_of fh (fr : filerec) = Nfs.data_attr fh fr.size

(* A file holds a table of real bytes only once a real write reaches it. *)
let store_real fr ~off data =
  let fb =
    match fr.data with
    | Some fb -> fb
    | None ->
        let fb = Fileblocks.create () in
        fr.data <- Some fb;
        fb
  in
  Fileblocks.store fb ~off data

(* The map record and the extents of blocks [first..last]: the
   synchronous disk work of a READ. *)
let read_blocks t fid fr first last =
  touch_map t fid ~write:false;
  for b = first to last do
    if b < Array.length fr.blocks then
      match fr.blocks.(b) with
      | Some ext -> touch_extent t ext ~write:false
      | None -> ()
  done

(* A WRITE's map record, then each block placed to hold its bytes after
   the write ends at [fin]. False when the backing object ran out of
   space; the blocks placed before that stay placed. *)
let write_blocks t fid fr first last fin =
  touch_map t fid ~write:true;
  let rec place b =
    b > last
    ||
    (* Bytes of this logical block that will exist after the write. *)
    let blk_end = min (max fin fr.size) ((b + 1) * block_size) in
    match place_block t fr b ~needed:(blk_end - (b * block_size)) with
    | Some ext ->
        touch_extent t ext ~write:true;
        place (b + 1)
    | None -> false
  in
  place first

let commit_zones t =
  Bcache.commit t.cache ~obj:data_obj;
  Bcache.commit t.cache ~obj:map_obj

(* An expired lease wedges the whole server — every request bounces — so
   a zombie deposed by a takeover cannot serve stale file contents. *)
let wedged t = Tenure.wedged t.tenure ~now:(Engine.now t.host.Host.eng)

(* Map/extent cache touches are the synchronous disk work of this
   server, recorded as a "disk" hop on a live span; the closure
   [Trace.timed] takes is built only then. Async write-behind stays
   untraced. *)
let disk_hop t span f = Trace.timed span ~hop:"disk" ~site:(Host.name t.host) f

let handle t span (call : Nfs.call) : Nfs.response =
  if wedged t then begin
    Tenure.note_fence t.tenure;
    Error Nfs.ERR_MISDIRECTED
  end
  else
  match call with
  | Nfs.Null -> Ok Nfs.RNull
  | Nfs.Getattr fh ->
      let fr = filerec_of t fh (site_of t fh) in
      Ok (Nfs.RGetattr (attr_of fh fr))
  | Nfs.Read (fh, off64, count) ->
      let site = site_of t fh in
      if not (Tenure.admit_read t.tenure site) then Error Nfs.ERR_MISDIRECTED
      else begin
      let fr = filerec_of t fh site in
      let off = Int64.to_int off64 in
      let count = max 0 (min count (fr.size - off)) in
      t.reads <- t.reads + 1;
      let first = off / block_size in
      let last = if count = 0 then first - 1 else (off + count - 1) / block_size in
      let fid = fh.Fh.file_id in
      if Trace.is_live span then disk_hop t span (fun () -> read_blocks t fid fr first last)
      else read_blocks t fid fr first last;
      let eof = off + count >= fr.size in
      let data =
        if count = 0 then Nfs.Data ""
        else
          match fr.data with
          | Some fb -> (
              match Fileblocks.load fb ~off ~count with
              | Some s -> Nfs.Data s
              | None -> Nfs.Synthetic count)
          | None -> Nfs.Synthetic count
      in
      Ok (Nfs.RRead (data, eof, attr_of fh fr))
      end
  | Nfs.Write (fh, off64, stable, wdata) ->
      (* Drain: reads keep being answered for a moving site, but writes
         bounce with [SLICE_MISDIRECTED] so no update can land behind the
         migration; the µproxy retries after a table refresh and reaches
         whichever side owns the site once the move commits or aborts. *)
      let site = site_of t fh in
      if not (Tenure.admit_write t.tenure site) then Error Nfs.ERR_MISDIRECTED
      else begin
      let fr = filerec_of t fh site in
      let off = Int64.to_int off64 in
      let len = Nfs.wdata_length wdata in
      let fin = off + len in
      let first = off / block_size in
      let last = if len = 0 then first - 1 else (fin - 1) / block_size in
      ensure_blocks fr (last + 1);
      let fid = fh.Fh.file_id in
      let placed =
        if Trace.is_live span then disk_hop t span (fun () -> write_blocks t fid fr first last fin)
        else write_blocks t fid fr first last fin
      in
      if not placed then
        (* Blocks placed before the allocator ran dry stay placed (a
           partially-applied write, like a real server); the size is not
           extended and the client sees the error. *)
        Error Nfs.ERR_NOSPC
      else begin
      (match wdata with
      | Nfs.Data s -> store_real fr ~off s
      | Nfs.Synthetic _ -> fr.data <- None);
      if fin > fr.size then begin
        t.logical <- Int64.add t.logical (Int64.of_int (fin - fr.size));
        fr.size <- fin
      end;
      t.writes <- t.writes + 1;
      if stable <> Nfs.Unstable then
        if Trace.is_live span then disk_hop t span (fun () -> commit_zones t) else commit_zones t;
      Ok (Nfs.RWrite (len, stable, attr_of fh fr))
      end
      end
  | Nfs.Commit (fh, _, _) ->
      let fr = filerec_of t fh (site_of t fh) in
      if Trace.is_live span then disk_hop t span (fun () -> commit_zones t) else commit_zones t;
      Ok (Nfs.RCommit (attr_of fh fr))
  | Nfs.Remove (fh, _) ->
      (match Hashtbl.find_opt t.files fh.Fh.file_id with
      | Some fr ->
          free_file t fr;
          Hashtbl.remove t.files fh.Fh.file_id
      | None -> ());
      Ok Nfs.RRemove
  | Nfs.Setattr (fh, s) -> (
      let fr = filerec_of t fh (site_of t fh) in
      match s.Nfs.set_size with
      | Some nsz64 ->
          let nsz = min (Int64.to_int nsz64) t.threshold in
          if nsz = 0 then free_file t fr
          else if nsz < fr.size then begin
            (* Trim blocks past the new end and shrink the final block's
               fragment on the next write (leave it in place for now). *)
            let keep = ((nsz - 1) / block_size) + 1 in
            Array.iteri
              (fun b ext ->
                if b >= keep then
                  match ext with
                  | Some e ->
                      Ffs.free t.alloc ~off:e.phys_off ~len:e.phys_len;
                      t.physical <- Int64.sub t.physical (Int64.of_int e.phys_len);
                      fr.blocks.(b) <- None
                  | None -> ())
              fr.blocks;
            t.logical <- Int64.sub t.logical (Int64.of_int (fr.size - nsz));
            fr.size <- nsz;
            Option.iter (fun fb -> Fileblocks.truncate fb nsz) fr.data
          end;
          Ok (Nfs.RSetattr (attr_of fh fr))
      | None -> Ok (Nfs.RSetattr (attr_of fh fr)))
  | Nfs.Lookup _ | Nfs.Access _ | Nfs.Readlink _ | Nfs.Create _ | Nfs.Mkdir _
  | Nfs.Symlink _ | Nfs.Rmdir _ | Nfs.Rename _ | Nfs.Link _ | Nfs.Readdir _
  | Nfs.Fsstat _ ->
      Error Nfs.ERR_BADHANDLE

let attach host ?(cache_bytes = 1024 * 1024 * 1024)
    ?(backing_bytes = 68_719_476_736L) ?(threshold = 65536) ?(nsites = 1)
    ?(sites = [ 0 ]) ?backend ?trace ?qos () =
  let backend =
    match backend with
    | Some b -> b
    | None -> Bcache.disk_backend host.Host.eng (Host.disk_exn host)
  in
  let t =
    {
      host;
      cache = Bcache.create host.Host.eng ~backend ~capacity:cache_bytes ~name:(Host.name host);
      alloc = Ffs.create ~size:backing_bytes;
      (* lint: bounded — small-file server state, object-backed; Remove deletes rows *)
      files = Hashtbl.create 4096;
      threshold;
      nsites;
      tenure = Tenure.create sites;
      logical = 0L;
      physical = 0L;
      reads = 0;
      writes = 0;
    }
  in
  Nfs_endpoint.serve host ~port:2049
    ~cost:{ per_op = 70e-6; per_byte = 4e-9 }
    ~tenure:t.tenure ?trace ?qos ~handler:(handle t) ();
  t

let crash t =
  Tenure.crash t.tenure;
  Bcache.drop_clean t.cache

(* ---- reconfiguration hooks (control-plane, in-process) ---- *)

let tenure t = t.tenure
let host t = t.host

type site_image = (int64 * int * string) list
(* (fileID, size, contents) per file of the site; synthetic contents are
   exported as zeros of the right length. *)

(* The file's first [size] bytes: real where a block holds them, zeros
   elsewhere. *)
let contents (fr : filerec) =
  let out = Bytes.make fr.size '\000' in
  let blit b buf =
    let off = b * block_size in
    if off < fr.size then Bytes.blit buf 0 out off (min block_size (fr.size - off))
  in
  Option.iter (Hashtbl.iter blit) fr.data;
  Bytes.unsafe_to_string out

let export_site t site : site_image =
  Hashtbl.fold
    (fun fid (fr : filerec) acc -> if fr.site <> site then acc else (fid, fr.size, contents fr) :: acc)
    t.files []
  |> List.sort (fun (a, _, _) (b, _, _) -> compare a b)

(* lint: F1 ok — migration control plane: extents are placed before the site is owned here, while the source is still serving *)
let import_site t site (img : site_image) =
  List.iter
    (fun (fid, size, contents) ->
      (match Hashtbl.find_opt t.files fid with
      | Some old -> free_file t old
      | None -> ());
      let fr = { size = 0; blocks = [||]; data = None; site } in
      Hashtbl.replace t.files fid fr;
      if size > 0 then begin
        (* Re-place the file's blocks in this server's backing object so
           physical accounting and fragmentation stay honest. *)
        let last = (size - 1) / block_size in
        ensure_blocks fr (last + 1);
        for b = 0 to last do
          let needed = min block_size (size - (b * block_size)) in
          ignore (place_block t fr b ~needed)
        done;
        store_real fr ~off:0 contents;
        fr.size <- size;
        t.logical <- Int64.add t.logical (Int64.of_int size)
      end)
    img

(* lint: F1 ok — migration control plane: frees extents only after the handoff commit has rebound the site elsewhere *)
let drop_site t site =
  let moved =
    Hashtbl.fold (fun fid (fr : filerec) acc -> if fr.site = site then fid :: acc else acc)
      t.files []
    |> List.sort compare
  in
  List.iter
    (fun fid ->
      (match Hashtbl.find_opt t.files fid with
      | Some fr -> free_file t fr
      | None -> ());
      Hashtbl.remove t.files fid)
    moved;
  Tenure.reset_load t.tenure site

let image_bytes (img : site_image) =
  List.fold_left (fun acc (_, size, _) -> Int64.add acc (Int64.of_int size)) 0L img

let site_bytes t site =
  Hashtbl.fold
    (fun _ (fr : filerec) acc ->
      if fr.site = site then Int64.add acc (Int64.of_int fr.size) else acc)
    t.files 0L

let file_count t = Hashtbl.length t.files
let bytes_stored t = t.physical
let logical_bytes t = t.logical
let fragmentation t = Ffs.fragment_count t.alloc
let cache_hits t = Bcache.hits t.cache
let cache_misses t = Bcache.misses t.cache
let reads t = t.reads
let writes t = t.writes
