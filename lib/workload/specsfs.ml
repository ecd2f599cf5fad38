module Engine = Slice_sim.Engine
module Nfs = Slice_nfs.Nfs
module Fh = Slice_nfs.Fh
module Prng = Slice_util.Prng
module Stats = Slice_util.Stats

type config = {
  offered_iops : float;
  processes : int;
  duration : float;
  warmup : float;
  bytes_per_iops : float;
  max_outstanding : int;
  seed : int;
}

let default_config =
  {
    offered_iops = 500.0;
    processes = 4;
    duration = 5.0;
    warmup = 1.0;
    bytes_per_iops = 1_000_000.0;
    max_outstanding = 16;
    seed = 11;
  }

type result = {
  offered : float;
  delivered : float;
  avg_latency_ms : float;
  p95_latency_ms : float;
  ops_measured : int;
  errors : int;
  fileset_files : int;
  fileset_bytes : int64;
}

let pp_result fmt r =
  Format.fprintf fmt
    "offered %.0f IOPS -> delivered %.0f IOPS, latency %.2f ms avg / %.2f ms p95 (%d ops, %d errors, %d files, %.1f MB)"
    r.offered r.delivered r.avg_latency_ms r.p95_latency_ms r.ops_measured r.errors
    r.fileset_files
    (Int64.to_float r.fileset_bytes /. 1e6)

(* SPECsfs97 file-size distribution: 94 % of files at or below 64 KB,
   with a byte-heavy large tail (~24 % of bytes in the small files). *)
let size_dist =
  [|
    (33.0, 1024);
    (21.0, 2048);
    (13.0, 4096);
    (10.0, 8192);
    (8.0, 16384);
    (5.0, 32768);
    (4.0, 65536);
    (2.0, 131072);
    (1.0, 262144);
    (0.7, 1048576);
    (0.3, 4194304);
  |]

let mean_file_size =
  let total_w = Array.fold_left (fun a (w, _) -> a +. w) 0.0 size_dist in
  Array.fold_left (fun a (w, s) -> a +. (w *. float_of_int s)) 0.0 size_dist /. total_w

type op_kind =
  | O_lookup
  | O_read
  | O_write
  | O_getattr
  | O_setattr
  | O_readlink
  | O_readdir
  | O_create
  | O_remove
  | O_access
  | O_commit
  | O_fsstat

(* SFS97 NFS V3 operation mix (readdirplus folded into readdir). *)
let op_mix =
  [|
    (27.0, O_lookup);
    (18.0, O_read);
    (9.0, O_write);
    (11.0, O_getattr);
    (1.0, O_setattr);
    (7.0, O_readlink);
    (11.0, O_readdir);
    (1.0, O_create);
    (1.0, O_remove);
    (7.0, O_access);
    (5.0, O_commit);
    (1.0, O_fsstat);
  |]

type file_entry = { fe_fh : Fh.t; fe_dir : Fh.t; fe_name : string; fe_size : int }

type fileset = {
  fs_dirs : Fh.t array;
  fs_files : file_entry array;
  fs_links : file_entry array; (* symlinks, for readlink *)
  fs_bytes : int64;
}

let io_chunk = 32768

let write_whole cl fh size =
  let rec loop off =
    if off < size then begin
      let n = min io_chunk (size - off) in
      ignore (Client.write_at cl fh ~off:(Int64.of_int off) ~data:(Nfs.Synthetic n) ());
      loop (off + n)
    end
  in
  loop 0;
  if size > 0 then ignore (Client.commit cl fh)

let build_fileset (cl : Client.t) ~root ~proc ~files ~prng =
  let dir_count = max 1 (files / 24) in
  let top =
    match Client.mkdir cl root (Printf.sprintf "sfs%03d" proc) with
    | Ok (fh, _) -> fh
    | Error st -> failwith ("sfs setup mkdir: " ^ Nfs.status_name st)
  in
  let dirs =
    Array.init dir_count (fun i ->
        if i = 0 then top
        else
          match Client.mkdir cl top (Printf.sprintf "d%04d" i) with
          | Ok (fh, _) -> fh
          | Error st -> failwith ("sfs setup mkdir2: " ^ Nfs.status_name st))
  in
  let bytes = ref 0L in
  let entries =
    Array.init files (fun i ->
        let dir = dirs.(i mod dir_count) in
        let name = Printf.sprintf "f%05d" i in
        match Client.create_file cl dir name with
        | Ok (fh, _) ->
            let size = Prng.weighted prng size_dist in
            write_whole cl fh size;
            bytes := Int64.add !bytes (Int64.of_int size);
            { fe_fh = fh; fe_dir = dir; fe_name = name; fe_size = size }
        | Error st -> failwith ("sfs setup create: " ^ Nfs.status_name st))
  in
  let links =
    Array.init (max 1 (files / 20)) (fun i ->
        let dir = dirs.(i mod dir_count) in
        let name = Printf.sprintf "l%05d" i in
        match Client.symlink cl dir name ~target:"f00000" with
        | Ok (fh, _) -> { fe_fh = fh; fe_dir = dir; fe_name = name; fe_size = 0 }
        | Error st -> failwith ("sfs setup symlink: " ^ Nfs.status_name st))
  in
  { fs_dirs = dirs; fs_files = entries; fs_links = links; fs_bytes = !bytes }

let aligned_offset prng size =
  if size <= io_chunk then 0
  else Prng.int prng (size / io_chunk) * io_chunk

let one_op (cl : Client.t) prng (fs : fileset) ~fresh_names =
  match Prng.weighted prng op_mix with
  | O_lookup ->
      let f = Livemix.pick_hot prng fs.fs_files in
      ignore (Client.lookup cl f.fe_dir f.fe_name)
  | O_read ->
      let f = Livemix.pick_hot prng fs.fs_files in
      let off = aligned_offset prng f.fe_size in
      let count = min io_chunk (max 1 (f.fe_size - off)) in
      ignore (Client.read_at cl f.fe_fh ~off:(Int64.of_int off) ~count)
  | O_write ->
      let f = Livemix.pick_hot prng fs.fs_files in
      let off = aligned_offset prng f.fe_size in
      let count = min io_chunk (max 1 (f.fe_size - off)) in
      ignore (Client.write_at cl f.fe_fh ~off:(Int64.of_int off) ~data:(Nfs.Synthetic count) ())
  | O_getattr ->
      let f = Livemix.pick_hot prng fs.fs_files in
      ignore (Client.getattr cl f.fe_fh)
  | O_setattr ->
      let f = Livemix.pick_hot prng fs.fs_files in
      ignore (Client.setattr cl f.fe_fh (Nfs.sattr_times ~mtime:0.0 ()))
  | O_readlink ->
      let l = fs.fs_links.(Prng.int prng (Array.length fs.fs_links)) in
      ignore (Client.readlink cl l.fe_fh)
  | O_readdir ->
      let d = fs.fs_dirs.(Prng.int prng (Array.length fs.fs_dirs)) in
      ignore (Client.call cl (Nfs.Readdir (d, 0L, 32)))
  | O_create ->
      incr fresh_names;
      let d = fs.fs_dirs.(Prng.int prng (Array.length fs.fs_dirs)) in
      let name = Printf.sprintf "tmp%07d" !fresh_names in
      (match Client.create_file cl d name with
      | Ok _ -> ignore (Client.remove cl d name = Ok ()) (* keep set stable *)
      | Error _ -> ())
  | O_remove ->
      (* modeled together with create to keep the working set stable *)
      let f = Livemix.pick_hot prng fs.fs_files in
      ignore (Client.getattr cl f.fe_fh)
  | O_access ->
      let f = Livemix.pick_hot prng fs.fs_files in
      ignore (Client.access cl f.fe_fh)
  | O_commit ->
      let f = Livemix.pick_hot prng fs.fs_files in
      ignore (Client.commit cl f.fe_fh)
  | O_fsstat ->
      let f = Livemix.pick_hot prng fs.fs_files in
      ignore (Client.call cl (Nfs.Fsstat f.fe_fh))

let run eng ~clients ~root cfg =
  let n_clients = Array.length clients in
  if n_clients = 0 then invalid_arg "Specsfs.run: no clients";
  let total_bytes = cfg.offered_iops *. cfg.bytes_per_iops in
  let files_total = max 40 (int_of_float (total_bytes /. mean_file_size)) in
  let files_per_proc = max 10 (files_total / cfg.processes) in
  let result = ref None in
  Engine.spawn eng (fun () ->
      (* --- setup phase: build each process's file set in parallel --- *)
      let filesets = Array.make cfg.processes None in
      Slice_sim.Fiber.join_all eng
        (List.init cfg.processes (fun p () ->
             let cl = clients.(p mod n_clients) in
             let prng = Prng.create (cfg.seed + (p * 7717)) in
             filesets.(p) <-
               Some (build_fileset cl ~root ~proc:p ~files:files_per_proc ~prng)));
      let filesets = Array.map Option.get filesets in
      (* --- timed phase: open-loop Poisson arrivals per process --- *)
      let t0 = Engine.now eng in
      let t_measure = t0 +. cfg.warmup in
      let t_end = t_measure +. cfg.duration in
      let lat = Stats.create () in
      let measured = ref 0 in
      let errors = ref 0 in
      let rate_per_proc = cfg.offered_iops /. float_of_int cfg.processes in
      Slice_sim.Fiber.join_all eng
        (List.init cfg.processes (fun p () ->
             let cl = clients.(p mod n_clients) in
             let prng = Prng.create (cfg.seed + 13 + (p * 7919)) in
             let fs = filesets.(p) in
             let fresh_names = ref (p * 1_000_000) in
             let inflight = ref 0 in
             let rec arrivals t_next =
               if t_next < t_end then begin
                 Engine.sleep_until eng t_next;
                 if !inflight < cfg.max_outstanding then begin
                   incr inflight;
                   Engine.spawn eng (fun () ->
                       let s = Engine.now eng in
                       let errs0 = Client.errors cl in
                       one_op cl prng fs ~fresh_names;
                       decr inflight;
                       let fin = Engine.now eng in
                       (* count ops arriving within the measured window;
                          they may complete during the drain *)
                       if s >= t_measure && s < t_end then begin
                         Stats.add lat (fin -. s);
                         incr measured;
                         if Client.errors cl > errs0 then incr errors
                       end)
                 end;
                 arrivals (t_next +. Prng.exponential prng (1.0 /. rate_per_proc))
               end
             in
             arrivals (t0 +. Prng.float prng 0.05)));
      let fs_bytes = Array.fold_left (fun a fs -> Int64.add a fs.fs_bytes) 0L filesets in
      let fs_files = Array.fold_left (fun a fs -> a + Array.length fs.fs_files) 0 filesets in
      result :=
        Some
          {
            offered = cfg.offered_iops;
            delivered = float_of_int !measured /. cfg.duration;
            avg_latency_ms = Stats.mean lat *. 1e3;
            p95_latency_ms = Stats.percentile lat 95.0 *. 1e3;
            ops_measured = !measured;
            errors = !errors;
            fileset_files = fs_files;
            fileset_bytes = fs_bytes;
          });
  Engine.run eng;
  match !result with Some r -> r | None -> failwith "Specsfs.run: did not complete"
