module Engine = Slice_sim.Engine
module Nfs = Slice_nfs.Nfs
module Fh = Slice_nfs.Fh
module Bcache = Slice_disk.Bcache
module Host = Slice_storage.Host
module Nfs_endpoint = Slice_storage.Nfs_endpoint

let block_size = Bcache.block_size

type finfo = {
  mutable attr : Nfs.fattr;
  mutable entry_count : int;
  mutable symlink : string option;
  data : (int, string) Hashtbl.t; (* materialized blocks of real bytes *)
}

type t = {
  host : Host.t;
  cache : Bcache.t option; (* None = MFS *)
  files : (int64, finfo) Hashtbl.t;
  entries : (int64 * string, Fh.t) Hashtbl.t;
  dir_index : (int64, (string, Fh.t) Hashtbl.t) Hashtbl.t;
  mutable next_file : int;
  mutable ops : int;
}

let root_fh = Fh.root

let now t = Engine.now t.host.Host.eng

let mint t ~ftype =
  t.next_file <- t.next_file + 1;
  { Fh.file_id = Int64.of_int (t.next_file * 17); gen = 1; ftype; mirrored = false; attr_site = 0; cap = 0L }

let finfo_of t fid = Hashtbl.find_opt t.files fid

let new_finfo t ~ftype ~fileid =
  let fi =
    {
      attr = Nfs.default_attr ~ftype ~fileid ~now:(now t);
      entry_count = 0;
      symlink = None;
      data = Hashtbl.create 4; (* lint: bounded — per-file blocks, capped by the file's size *)
    }
  in
  Hashtbl.replace t.files fileid fi;
  fi

let dir_tbl t fid =
  match Hashtbl.find_opt t.dir_index fid with
  | Some tbl -> tbl
  | None ->
      (* lint: bounded — per-directory entries; the monolithic baseline holds the volume by design *)
      let tbl = Hashtbl.create 8 in
      Hashtbl.replace t.dir_index fid tbl;
      tbl

let attr_of (fi : finfo) =
  match fi.attr.Nfs.ftype with
  | Fh.Dir ->
      { fi.attr with size = Int64.of_int (fi.entry_count * 24); used = Int64.of_int (fi.entry_count * 24) }
  | _ -> fi.attr

let touch_blocks t fid ~off ~len ~write =
  match t.cache with
  | None -> ()
  | Some cache ->
      let first = Int64.to_int (Int64.div off (Int64.of_int block_size)) in
      let last =
        if len = 0 then first - 1
        else Int64.to_int (Int64.div (Int64.add off (Int64.of_int (len - 1))) (Int64.of_int block_size))
      in
      for b = first to last do
        if write then Bcache.write cache ~obj:fid ~block:b else Bcache.read cache ~obj:fid ~block:b
      done

let store_real (fi : finfo) ~off data =
  (* keep it simple: block-aligned string fragments *)
  let len = String.length data in
  let rec loop pos =
    if pos < len then begin
      let abs = Int64.to_int off + pos in
      let blk = abs / block_size in
      let in_blk = abs mod block_size in
      let n = min (block_size - in_blk) (len - pos) in
      let cur =
        match Hashtbl.find_opt fi.data blk with
        | Some s -> Bytes.of_string s
        | None -> Bytes.make block_size '\000'
      in
      Bytes.blit_string data pos cur in_blk n;
      Hashtbl.replace fi.data blk (Bytes.to_string cur);
      loop (pos + n)
    end
  in
  loop 0

let load_real (fi : finfo) ~off ~count =
  let first = Int64.to_int off / block_size in
  let last = (Int64.to_int off + count - 1) / block_size in
  let all = ref (count > 0) in
  for b = first to last do
    if not (Hashtbl.mem fi.data b) then all := false
  done;
  if not !all then None
  else begin
    let out = Bytes.create count in
    let rec loop pos =
      if pos < count then begin
        let abs = Int64.to_int off + pos in
        let blk = abs / block_size in
        let in_blk = abs mod block_size in
        let n = min (block_size - in_blk) (count - pos) in
        Bytes.blit_string (Hashtbl.find fi.data blk) in_blk out pos n;
        loop (pos + n)
      end
    in
    loop 0;
    Some (Bytes.unsafe_to_string out)
  end

let with_file t fh k =
  match finfo_of t fh.Fh.file_id with Some fi -> k fi | None -> Error Nfs.ERR_STALE

let with_entry t dfh name k =
  match Hashtbl.find_opt t.entries (dfh.Fh.file_id, name) with
  | Some child -> k child
  | None -> Error Nfs.ERR_NOENT

let add_entry t (dfh : Fh.t) name child =
  Hashtbl.replace t.entries (dfh.Fh.file_id, name) child;
  Hashtbl.replace (dir_tbl t dfh.Fh.file_id) name child;
  match finfo_of t dfh.Fh.file_id with
  | Some fi ->
      fi.entry_count <- fi.entry_count + 1;
      fi.attr <- { fi.attr with mtime = now t }
  | None -> ()

let remove_entry t (dfh : Fh.t) name =
  Hashtbl.remove t.entries (dfh.Fh.file_id, name);
  (match Hashtbl.find_opt t.dir_index dfh.Fh.file_id with
  | Some tbl -> Hashtbl.remove tbl name
  | None -> ());
  match finfo_of t dfh.Fh.file_id with
  | Some fi ->
      fi.entry_count <- fi.entry_count - 1;
      fi.attr <- { fi.attr with mtime = now t }
  | None -> ()

let do_create t dfh name ~ftype ~symlink =
  if dfh.Fh.ftype <> Fh.Dir then Error Nfs.ERR_NOTDIR
  else if Hashtbl.mem t.entries (dfh.Fh.file_id, name) then Error Nfs.ERR_EXIST
  else begin
    let fh = mint t ~ftype in
    let fi = new_finfo t ~ftype ~fileid:fh.Fh.file_id in
    fi.symlink <- symlink;
    add_entry t dfh name fh;
    Ok (fh, attr_of fi)
  end

let handle t (call : Nfs.call) : Nfs.response =
  t.ops <- t.ops + 1;
  match call with
  | Nfs.Null -> Ok Nfs.RNull
  | Nfs.Getattr fh -> with_file t fh (fun fi -> Ok (Nfs.RGetattr (attr_of fi)))
  | Nfs.Access (fh, m) -> with_file t fh (fun fi -> Ok (Nfs.RAccess (m, attr_of fi)))
  | Nfs.Setattr (fh, s) ->
      with_file t fh (fun fi ->
          fi.attr <- Nfs.apply_sattr fi.attr s ~now:(now t);
          (match s.Nfs.set_size with
          | Some nsz ->
              let keep = Int64.to_int nsz / block_size in
              Hashtbl.iter
                (fun b _ -> if b > keep then Hashtbl.remove fi.data b)
                (Hashtbl.copy fi.data)
          | None -> ());
          Ok (Nfs.RSetattr (attr_of fi)))
  | Nfs.Lookup (dfh, name) ->
      if dfh.Fh.ftype <> Fh.Dir then Error Nfs.ERR_NOTDIR
      else
        with_entry t dfh name (fun child ->
            with_file t child (fun fi -> Ok (Nfs.RLookup (child, attr_of fi))))
  | Nfs.Readlink fh ->
      with_file t fh (fun fi ->
          match fi.symlink with
          | Some target -> Ok (Nfs.RReadlink (target, attr_of fi))
          | None -> Error Nfs.ERR_IO)
  | Nfs.Create (dfh, name) -> (
      match do_create t dfh name ~ftype:Fh.Reg ~symlink:None with
      | Ok (fh, a) -> Ok (Nfs.RCreate (fh, a))
      | Error st -> Error st)
  | Nfs.Mkdir (dfh, name) -> (
      match do_create t dfh name ~ftype:Fh.Dir ~symlink:None with
      | Ok (fh, a) -> Ok (Nfs.RMkdir (fh, a))
      | Error st -> Error st)
  | Nfs.Symlink (dfh, name, target) -> (
      match do_create t dfh name ~ftype:Fh.Lnk ~symlink:(Some target) with
      | Ok (fh, a) -> Ok (Nfs.RSymlink (fh, a))
      | Error st -> Error st)
  | Nfs.Remove (dfh, name) ->
      with_entry t dfh name (fun child ->
          if child.Fh.ftype = Fh.Dir then Error Nfs.ERR_ISDIR
          else begin
            remove_entry t dfh name;
            (match finfo_of t child.Fh.file_id with
            | Some fi ->
                fi.attr <- { fi.attr with nlink = fi.attr.Nfs.nlink - 1 };
                if fi.attr.Nfs.nlink <= 0 then begin
                  Hashtbl.remove t.files child.Fh.file_id;
                  match t.cache with
                  | Some c -> Bcache.invalidate_object c child.Fh.file_id
                  | None -> ()
                end
            | None -> ());
            Ok Nfs.RRemove
          end)
  | Nfs.Rmdir (dfh, name) ->
      with_entry t dfh name (fun child ->
          if child.Fh.ftype <> Fh.Dir then Error Nfs.ERR_NOTDIR
          else
            match finfo_of t child.Fh.file_id with
            | Some fi when fi.entry_count > 0 -> Error Nfs.ERR_NOTEMPTY
            | _ ->
                remove_entry t dfh name;
                Hashtbl.remove t.files child.Fh.file_id;
                Ok Nfs.RRmdir)
  | Nfs.Rename (od, on, nd, nn) ->
      with_entry t od on (fun child ->
          if Hashtbl.mem t.entries (nd.Fh.file_id, nn) then Error Nfs.ERR_EXIST
          else begin
            remove_entry t od on;
            add_entry t nd nn child;
            Ok Nfs.RRename
          end)
  | Nfs.Link (file, nd, nn) ->
      with_file t file (fun fi ->
          if Hashtbl.mem t.entries (nd.Fh.file_id, nn) then Error Nfs.ERR_EXIST
          else begin
            add_entry t nd nn file;
            fi.attr <- { fi.attr with nlink = fi.attr.Nfs.nlink + 1; ctime = now t };
            Ok (Nfs.RLink (attr_of fi))
          end)
  | Nfs.Readdir (dfh, cookie, count) ->
      if dfh.Fh.ftype <> Fh.Dir then Error Nfs.ERR_NOTDIR
      else begin
        let names =
          match Hashtbl.find_opt t.dir_index dfh.Fh.file_id with
          | None -> []
          | Some tbl -> List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])
        in
        let total = List.length names in
        let start = Int64.to_int cookie in
        let entries =
          List.filteri (fun i _ -> i >= start && i < start + count) names
          |> List.mapi (fun j (name, (child : Fh.t)) ->
                 {
                   Nfs.entry_id = child.Fh.file_id;
                   entry_name = name;
                   entry_cookie = Int64.of_int (start + j + 1);
                 })
        in
        let next = min total (start + count) in
        Ok (Nfs.RReaddir (entries, Int64.of_int next, next >= total))
      end
  | Nfs.Read (fh, off, count) ->
      with_file t fh (fun fi ->
          let avail = Int64.sub fi.attr.Nfs.size off in
          let count =
            if Int64.compare avail 0L <= 0 then 0
            else min count (Int64.to_int (min avail (Int64.of_int count)))
          in
          touch_blocks t fh.Fh.file_id ~off ~len:count ~write:false;
          fi.attr <- { fi.attr with atime = now t };
          let eof = Int64.compare (Int64.add off (Int64.of_int count)) fi.attr.Nfs.size >= 0 in
          let data =
            if count = 0 then Nfs.Data ""
            else
              match load_real fi ~off ~count with
              | Some s -> Nfs.Data s
              | None -> Nfs.Synthetic count
          in
          Ok (Nfs.RRead (data, eof, attr_of fi)))
  | Nfs.Write (fh, off, stable, data) ->
      with_file t fh (fun fi ->
          let len = Nfs.wdata_length data in
          touch_blocks t fh.Fh.file_id ~off ~len ~write:true;
          (match data with Nfs.Data s -> store_real fi ~off s | Nfs.Synthetic _ -> ());
          let fin = Int64.add off (Int64.of_int len) in
          if Int64.compare fin fi.attr.Nfs.size > 0 then
            fi.attr <- { fi.attr with size = fin; used = fin };
          fi.attr <- { fi.attr with mtime = now t };
          (match (stable, t.cache) with
          | Nfs.Unstable, _ | _, None -> ()
          | _, Some c -> Bcache.commit c ~obj:fh.Fh.file_id);
          Ok (Nfs.RWrite (len, stable, attr_of fi)))
  | Nfs.Commit (fh, _, _) ->
      with_file t fh (fun fi ->
          (match t.cache with Some c -> Bcache.commit c ~obj:fh.Fh.file_id | None -> ());
          Ok (Nfs.RCommit (attr_of fi)))
  | Nfs.Fsstat _ ->
      Ok
        (Nfs.RFsstat
           {
             total_bytes = 144_000_000_000L;
             free_bytes = 100_000_000_000L;
             total_files = 10_000_000L;
             free_files = 9_000_000L;
           })

let attach host ?(port = 2049) ?(cache_bytes = 512 * 1024 * 1024) ?per_op_cpu
    ?(mem_only = false) () =
  let cache =
    if mem_only then None
    else
      let disk = Host.disk_exn host in
      Some
        (Bcache.create host.Host.eng
           ~backend:(Bcache.disk_backend host.Host.eng disk)
           ~capacity:cache_bytes ~name:(Host.name host))
  in
  let per_op = match per_op_cpu with Some c -> c | None -> if mem_only then 120e-6 else 150e-6 in
  let t =
    {
      host;
      cache;
      (* lint: bounded — volume state: the monolithic baseline holds the whole FS by design *)
      files = Hashtbl.create 4096;
      (* lint: bounded — volume state: the monolithic baseline holds the whole FS by design *)
      entries = Hashtbl.create 4096;
      (* lint: bounded — one row per directory, dropped with the directory *)
      dir_index = Hashtbl.create 256;
      next_file = 100;
      ops = 0;
    }
  in
  (* install the exported volume root *)
  ignore (new_finfo t ~ftype:Fh.Dir ~fileid:root_fh.Fh.file_id);
  Nfs_endpoint.serve host ~port ~cost:{ per_op; per_byte = 3e-9 } ~handler:(fun _span call -> handle t call) ();
  t

let addr t = t.host.Host.addr
let root _t = root_fh
