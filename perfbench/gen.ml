(* Seeded load generators for the benchmark's three workloads.

   Every NFS op goes through [issue], which records the op's due time,
   completion time and outcome in the run's [recorder]. The library
   generators (Specsfs.run, Untar.run, Stormgen.* ) are deliberately not
   used: they fold set-up into the run and keep latencies in a sampled
   reservoir, while the benchmark needs set-up kept apart and every
   latency sample kept. *)

module Engine = Slice_sim.Engine
module Fiber = Slice_sim.Fiber
module Ensemble = Slice.Ensemble
module Params = Slice.Params
module Client = Slice_workload.Client
module Zipf = Slice_workload.Zipf
module Nfs = Slice_nfs.Nfs
module Fh = Slice_nfs.Fh
module Prng = Slice_util.Prng
module Host = Slice_storage.Host
module Tenant = Slice_qos.Tenant

(* ---- op recording ---- *)

(* Growable float buffer: every latency sample is kept, so percentiles
   are exact rather than reservoir estimates. *)
module Samples = struct
  type t = { mutable a : float array; mutable n : int }

  let create () = { a = Array.make 4096 0.0; n = 0 }

  let add t v =
    if t.n = Array.length t.a then begin
      let b = Array.make (2 * t.n) 0.0 in
      Array.blit t.a 0 b 0 t.n;
      t.a <- b
    end;
    t.a.(t.n) <- v;
    t.n <- t.n + 1

  let sorted t =
    let s = Array.sub t.a 0 t.n in
    Array.sort Float.compare s;
    s
end

(* Nearest-rank quantile of a sorted array; 0 when empty. *)
let quantile sorted q =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else sorted.(max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float_of_int n)) - 1)))

type recorder = {
  eng : Engine.t;
  mutable t_measure : float;
  mutable t_end : float;
  mutable completed : int;  (** ops completed, any outcome, any time *)
  mutable due : int;  (** ops due inside the measured span *)
  mutable failed : int;  (** of those, failed or shed *)
  mutable failed_total : int;  (** failed or shed at any time *)
  lat : Samples.t;  (** latency class, ops due inside the measured span *)
  mutable problems : string list;  (** first few failure descriptions *)
}

let recorder eng =
  {
    eng;
    t_measure = infinity;
    t_end = infinity;
    completed = 0;
    due = 0;
    failed = 0;
    failed_total = 0;
    lat = Samples.create ();
    problems = [];
  }

let in_span r t = t >= r.t_measure && t < r.t_end

let note_problem r msg =
  if List.length r.problems < 8 then r.problems <- msg :: r.problems

let fail r ~due what =
  r.failed_total <- r.failed_total + 1;
  note_problem r (Printf.sprintf "%s at t=%.6f" what due);
  if in_span r due then r.failed <- r.failed + 1

(* Run one NFS op. [f] returns whether the reply was the expected one; an
   exception counts as a failure too. [latency] marks the workload's
   latency class. *)
let issue r ?(latency = true) ~due what f =
  let ok =
    match f () with
    | ok -> ok
    | exception e ->
        note_problem r (what ^ " raised " ^ Printexc.to_string e);
        false
  in
  r.completed <- r.completed + 1;
  if in_span r due then begin
    r.due <- r.due + 1;
    if latency then Samples.add r.lat (Engine.now r.eng -. due)
  end;
  if not ok then fail r ~due what;
  ok

(* An open-loop arrival dropped at the generator's outstanding cap. *)
let shed r ~due =
  if in_span r due then r.due <- r.due + 1;
  fail r ~due "shed"

let ok = function Ok _ -> true | Error _ -> false
let now r = Engine.now r.eng

(* Issue at the current instant (closed loop: due = issue time). *)
let op r ?latency what f = issue r ?latency ~due:(now r) what f

let must what = function
  | Ok v -> v
  | Error st -> failwith (what ^ ": " ^ Nfs.status_name st)

(* ---- a built workload ---- *)

type world = {
  ens : Ensemble.t;
  rc : recorder;
  client_hosts : Host.t list;
  clients : Client.t list;
  start : t_measure:float -> t_end:float -> unit;
      (** fiber context: run the generators from now until [t_end] *)
  check : unit -> string list;
      (** fiber context, after quiesce: workload-specific output checks *)
}

let io_chunk = 32768

let write_whole cl fh size =
  let rec loop off =
    if off < size then begin
      let n = min io_chunk (size - off) in
      ignore (must "setup write" (Client.write_at cl fh ~off:(Int64.of_int off) ~data:(Nfs.Synthetic n) ()));
      loop (off + n)
    end
  in
  loop 0;
  if size > 0 then must "setup commit" (Client.commit cl fh)

let mk_clients ens ~names ~procs =
  let hosts = List.map (fun name -> fst (Ensemble.add_client ens ~name)) names in
  let ha = Array.of_list hosts in
  let clients =
    List.init procs (fun p ->
        Client.create ha.(p mod Array.length ha) ~server:(Ensemble.virtual_addr ens)
          ~port:(1000 + p) ())
  in
  (hosts, clients)

(* Open-loop Poisson arrivals at [rate]/s from [t_first] until [t_end];
   [arrive due] runs in the arrivals fiber and returns the op to spawn, or
   [None] when the outstanding cap sheds it. *)
let poisson eng prng ~rate ~t_first ~t_end arrive =
  let rec loop t =
    if t < t_end then begin
      Engine.sleep_until eng t;
      (match arrive t with Some f -> Engine.spawn eng f | None -> ());
      loop (t +. Prng.exponential prng (1.0 /. rate))
    end
  in
  loop t_first

let default_params ~trace_sample = { Params.default with Params.trace_sample }

(* ---- sfs_mix: SPECsfs97 op mix, open loop ---- *)

(* SFS97 file-size distribution: 94 % of files at or below 64 KB, with a
   byte-heavy large tail. *)
let sfs_sizes =
  [|
    (33.0, 1024); (21.0, 2048); (13.0, 4096); (10.0, 8192); (8.0, 16384); (5.0, 32768);
    (4.0, 65536); (2.0, 131072); (1.0, 262144); (0.7, 1048576); (0.3, 4194304);
  |]

type sfs_kind =
  | Lookup
  | Read
  | Write
  | Getattr
  | Setattr
  | Readlink
  | Readdir
  | Create
  | Remove
  | Access
  | Commit
  | Fsstat

(* SFS97 NFS V3 op mix (readdirplus folded into readdir). Create and
   remove are single ops here: a remove deletes a file an earlier create
   made, so the file set stays stable and each op is one RPC. *)
let sfs_mix =
  [|
    (27.0, Lookup); (18.0, Read); (9.0, Write); (11.0, Getattr); (1.0, Setattr);
    (7.0, Readlink); (11.0, Readdir); (1.0, Create); (1.0, Remove); (7.0, Access);
    (5.0, Commit); (1.0, Fsstat);
  |]

type sfs_file = { f_fh : Fh.t; f_dir : Fh.t; f_name : string; f_size : int }

type sfs_proc = {
  cl : Client.t;
  prng : Prng.t;
  dirs : Fh.t array;
  files : sfs_file array;
  links : Fh.t array;
  temps : (Fh.t * string) Queue.t;  (** created and not yet removed *)
  mutable fresh : int;
  mutable inflight : int;
}

let sfs_build cl ~proc ~files ~prng =
  let top = fst (must "setup mkdir" (Client.mkdir cl Ensemble.root (Printf.sprintf "sfs%d" proc))) in
  let ndirs = max 1 (files / 24) in
  let dirs =
    Array.init ndirs (fun i ->
        if i = 0 then top
        else fst (must "setup mkdir" (Client.mkdir cl top (Printf.sprintf "d%04d" i))))
  in
  let files =
    Array.init files (fun i ->
        let dir = dirs.(i mod ndirs) in
        let name = Printf.sprintf "f%05d" i in
        let fh = fst (must "setup create" (Client.create_file cl dir name)) in
        let size = Prng.weighted prng sfs_sizes in
        write_whole cl fh size;
        { f_fh = fh; f_dir = dir; f_name = name; f_size = size })
  in
  let links =
    Array.init
      (max 1 (Array.length files / 20))
      (fun i ->
        fst
          (must "setup symlink"
             (Client.symlink cl dirs.(i mod ndirs) (Printf.sprintf "l%05d" i) ~target:"f00000")))
  in
  (dirs, files, links)

(* 80/20 hot set. *)
let sfs_pick p =
  let n = Array.length p.files in
  if Prng.float p.prng 1.0 < 0.8 then p.files.(Prng.int p.prng (max 1 (n / 5)))
  else p.files.(Prng.int p.prng n)

let sfs_offset prng size = if size <= io_chunk then 0 else Prng.int prng (size / io_chunk) * io_chunk

(* Draw the op at arrival time (so the op stream depends only on the
   seed), return the thunk that issues it. *)
let sfs_op rc p ~due =
  let run what f () =
    ignore (issue rc ~due what f);
    p.inflight <- p.inflight - 1
  in
  let cl = p.cl in
  match Prng.weighted p.prng sfs_mix with
  | Lookup ->
      let f = sfs_pick p in
      run "lookup" (fun () -> ok (Client.lookup cl f.f_dir f.f_name))
  | Read ->
      let f = sfs_pick p in
      let off = sfs_offset p.prng f.f_size in
      let count = min io_chunk (max 1 (f.f_size - off)) in
      run "read" (fun () -> ok (Client.read_at cl f.f_fh ~off:(Int64.of_int off) ~count))
  | Write ->
      let f = sfs_pick p in
      let off = sfs_offset p.prng f.f_size in
      let count = min io_chunk (max 1 (f.f_size - off)) in
      run "write" (fun () ->
          ok (Client.write_at cl f.f_fh ~off:(Int64.of_int off) ~data:(Nfs.Synthetic count) ()))
  | Getattr ->
      let f = sfs_pick p in
      run "getattr" (fun () -> ok (Client.getattr cl f.f_fh))
  | Setattr ->
      let f = sfs_pick p in
      run "setattr" (fun () -> ok (Client.setattr cl f.f_fh (Nfs.sattr_times ~mtime:0.0 ())))
  | Readlink ->
      let l = p.links.(Prng.int p.prng (Array.length p.links)) in
      run "readlink" (fun () -> ok (Client.call cl (Nfs.Readlink l)))
  | Readdir ->
      let d = p.dirs.(Prng.int p.prng (Array.length p.dirs)) in
      run "readdir" (fun () -> ok (Client.call cl (Nfs.Readdir (d, 0L, 32))))
  | Create ->
      let d = p.dirs.(Prng.int p.prng (Array.length p.dirs)) in
      p.fresh <- p.fresh + 1;
      let name = Printf.sprintf "tmp%07d" p.fresh in
      run "create" (fun () ->
          match Client.create_file cl d name with
          | Ok _ ->
              Queue.push (d, name) p.temps;
              true
          | Error _ -> false)
  | Remove -> (
      match Queue.take_opt p.temps with
      | Some (d, name) -> run "remove" (fun () -> ok (Client.remove cl d name))
      | None ->
          let f = sfs_pick p in
          run "getattr" (fun () -> ok (Client.getattr cl f.f_fh)))
  | Access ->
      let f = sfs_pick p in
      run "access" (fun () -> ok (Client.access cl f.f_fh))
  | Commit ->
      let f = sfs_pick p in
      run "commit" (fun () -> ok (Client.commit cl f.f_fh))
  | Fsstat ->
      let f = sfs_pick p in
      run "fsstat" (fun () -> ok (Client.call cl (Nfs.Fsstat f.f_fh)))

let sfs_rate = 2000.0
let sfs_procs = 4
let sfs_cap = 64

let sfs_mix_world ~seed ~tiny ~trace_sample ~drive =
  let mb = 1024 * 1024 in
  let ens =
    Ensemble.create
      {
        Ensemble.default_config with
        seed;
        storage_nodes = 2;
        disks_per_node = 8;
        dir_servers = 1;
        smallfile_servers = 2;
        (* the file set (~130 MB, ~30 MB of it below the small-file
           threshold) is many times these caches, so the disks work *)
        storage_cache = 2 * mb;
        smallfile_cache = 4 * mb;
        proxy_params = default_params ~trace_sample;
      }
  in
  let eng = Ensemble.engine ens in
  let rc = recorder eng in
  let hosts, clients = mk_clients ens ~names:[ "sfs0"; "sfs1" ] ~procs:sfs_procs in
  let files = if tiny then 100 else 1000 in
  let procs = Array.make sfs_procs None in
  Engine.spawn eng (fun () ->
      Fiber.join_all eng
        (List.mapi
           (fun i cl () ->
             let prng = Prng.create ((seed * 7919) + i) in
             let dirs, files, links = sfs_build cl ~proc:i ~files ~prng in
             procs.(i) <-
               Some
                 {
                   cl;
                   prng;
                   dirs;
                   files;
                   links;
                   temps = Queue.create ();
                   fresh = 0;
                   inflight = 0;
                 })
           clients));
  drive eng;
  let procs = Array.map Option.get procs in
  let start ~t_measure:_ ~t_end =
    Fiber.join_all eng
      (Array.to_list
         (Array.map
            (fun p () ->
              poisson eng p.prng
                ~rate:(sfs_rate /. float_of_int sfs_procs)
                ~t_first:(Engine.now eng +. Prng.float p.prng 0.01)
                ~t_end
                (fun due ->
                  if p.inflight >= sfs_cap then begin
                    shed rc ~due;
                    None
                  end
                  else begin
                    p.inflight <- p.inflight + 1;
                    Some (sfs_op rc p ~due)
                  end))
            procs))
  in
  (* Writes stay inside each file and nothing truncates, so every file
     must still have the size set-up gave it. *)
  let check () =
    let prng = Prng.create (seed + 31) in
    List.concat_map
      (fun _ ->
        let p = procs.(Prng.int prng sfs_procs) in
        let f = p.files.(Prng.int prng (Array.length p.files)) in
        match Client.getattr p.cl f.f_fh with
        | Ok a when a.Nfs.size = Int64.of_int f.f_size -> []
        | Ok a -> [ Printf.sprintf "sfs_mix: %s has size %Ld, wrote %d" f.f_name a.Nfs.size f.f_size ]
        | Error st -> [ "sfs_mix: getattr " ^ f.f_name ^ ": " ^ Nfs.status_name st ])
      (List.init 64 Fun.id)
  in
  { ens; rc; client_hosts = hosts; clients; start; check }

(* ---- untar_create: closed-loop name-space create storm ---- *)

type tracked = { d_fh : Fh.t; mutable names : int }

(* Files per untarred tree: the FreeBSD source tree scaled x0.02, as in
   the Figure 3 exhibit. *)
let untar_files = 668
let untar_dir_every = 13
let untar_fanout = 8
let untar_procs = 8

let untar_create_world ~seed ~tiny ~trace_sample ~drive:_ =
  let ens =
    Ensemble.create
      {
        Ensemble.default_config with
        seed;
        storage_nodes = 0;
        smallfile_servers = 0;
        dir_servers = 4;
        proxy_params =
          {
            (default_params ~trace_sample) with
            Params.threshold = 0;
            name_policy = Params.Name_hashing;
            mkdir_p = 0.0;
          };
      }
  in
  let eng = Ensemble.engine ens in
  let rc = recorder eng in
  let hosts, clients =
    mk_clients ens ~names:[ "client0"; "client1"; "client2"; "client3" ] ~procs:untar_procs
  in
  let files_per_tree = if tiny then 60 else untar_files in
  (* Name-space contents depend on the seed: the names hash to different
     directory sites, and the tree shapes differ. *)
  let tag = Printf.sprintf "%04x" (Prng.int (Prng.create seed) 0x10000) in
  let tracked = Array.make untar_procs [] in
  let proc p cl ~t_end =
    let prng = Prng.create ((seed * 104729) + p) in
    let track fh =
      let d = { d_fh = fh; names = 0 } in
      tracked.(p) <- d :: tracked.(p);
      d
    in
    (* The paper's five-op directory create; [None] when a step failed. *)
    let make_dir (parent : tracked) name =
      let step what f = op rc what f in
      if
        step "dlookup" (fun () -> Client.lookup cl parent.d_fh name = Error Nfs.ERR_NOENT)
        && step "daccess" (fun () -> ok (Client.access cl parent.d_fh))
      then
        let made = ref None in
        if
          step "mkdir" (fun () ->
              match Client.mkdir cl parent.d_fh name with
              | Ok (fh, _) ->
                  parent.names <- parent.names + 1;
                  made := Some (track fh);
                  true
              | Error _ -> false)
        then
          match !made with
          | Some d ->
              ignore (step "dgetattr" (fun () -> ok (Client.getattr cl d.d_fh)));
              ignore
                (step "dsetattr" (fun () ->
                     ok (Client.setattr cl d.d_fh { Nfs.sattr_empty with set_mode = Some 0o755 })));
              Some d
          | None -> None
        else None
      else None
    in
    (* The paper's seven-op file create. *)
    let make_file (dir : tracked) name =
      let step what f = op rc what f in
      if
        step "lookup" (fun () -> Client.lookup cl dir.d_fh name = Error Nfs.ERR_NOENT)
        && step "access" (fun () -> ok (Client.access cl dir.d_fh))
      then
        let fh = ref None in
        if
          step "create" (fun () ->
              match Client.create_file cl dir.d_fh name with
              | Ok (f, _) ->
                  dir.names <- dir.names + 1;
                  fh := Some f;
                  true
              | Error _ -> false)
        then
          match !fh with
          | Some f ->
              ignore (step "getattr" (fun () -> ok (Client.getattr cl f)));
              ignore (step "lookup2" (fun () -> ok (Client.lookup cl dir.d_fh name)));
              ignore
                (step "setattr1" (fun () -> ok (Client.setattr cl f (Nfs.sattr_times ~mtime:0.0 ()))));
              ignore
                (step "setattr2" (fun () ->
                     ok (Client.setattr cl f { Nfs.sattr_empty with set_mode = Some 0o644 })))
          | None -> ()
    in
    let root = { d_fh = Ensemble.root; names = 0 } in
    (* Source trees are deep: new directories mostly nest under the last
       one, sometimes under a random recent one; files spread over a
       sliding window of recent directories. *)
    let untar k =
      match make_dir root (Printf.sprintf "u%s_p%d_t%d" tag p k) with
      | None -> ()
      | Some top ->
          let window = Array.make untar_fanout top in
          let live = ref 1 and last = ref top and ndirs = ref 1 and i = ref 0 in
          while !i < files_per_tree && Engine.now eng < t_end do
            if !i mod untar_dir_every = untar_dir_every - 1 then begin
              let parent = if Prng.int prng 10 = 0 then window.(Prng.int prng !live) else !last in
              match make_dir parent (Printf.sprintf "dir%05d" !ndirs) with
              | Some d ->
                  last := d;
                  window.(!ndirs mod untar_fanout) <- d;
                  incr ndirs;
                  live := min untar_fanout (!live + 1)
              | None -> ()
            end;
            make_file window.(!i mod !live) (Printf.sprintf "file%06d" !i);
            incr i
          done
    in
    Engine.sleep eng (Prng.float prng 0.005);
    let k = ref 0 in
    while Engine.now eng < t_end do
      untar !k;
      incr k
    done
  in
  let start ~t_measure:_ ~t_end =
    Fiber.join_all eng (List.mapi (fun p cl () -> proc p cl ~t_end) clients)
  in
  (* Read every created directory back across all directory sites: its
     entry count must equal the names this run created in it. *)
  let check () =
    let problems = ref [] in
    Fiber.join_all eng
      (List.mapi
         (fun p cl () ->
           List.iter
             (fun d ->
               match Client.readdir_all cl d.d_fh with
               | Ok l when List.length l = d.names -> ()
               | Ok l ->
                   problems :=
                     Printf.sprintf "untar_create: directory of proc %d lists %d names, created %d" p
                       (List.length l) d.names
                     :: !problems
               | Error st -> problems := ("untar_create: readdir " ^ Nfs.status_name st) :: !problems)
             (List.rev tracked.(p)))
         clients);
    List.rev !problems
  in
  { ens; rc; client_hosts = hosts; clients; start; check }

(* ---- storm_qos: three tenants under per-tenant QoS ---- *)

let storm_tenants =
  [|
    Tenant.spec ~klass:Tenant.Interactive ~name:"web" ~weight:16.0 ();
    Tenant.spec ~klass:Tenant.Batch ~name:"flood" ~weight:3.0 ();
    Tenant.spec ~klass:Tenant.Background ~name:"scan" ~weight:1.5 ~admit_rate:600.0
      ~admit_burst:40.0 ();
    Tenant.spec ~klass:Tenant.Batch ~name:"system" ~weight:6.0 ();
  |]

type tree = { dirs : Fh.t array; files : (Fh.t * int) array; dir_of : int array }

let build_tree cl ~name ~dirs ~files ~size_of =
  let top = fst (must "setup mkdir" (Client.mkdir cl Ensemble.root name)) in
  let dirs =
    Array.init dirs (fun i ->
        if i = 0 then top else fst (must "setup mkdir" (Client.mkdir cl top (Printf.sprintf "d%03d" i))))
  in
  let nd = Array.length dirs in
  let files =
    Array.init files (fun i ->
        let fh = fst (must "setup create" (Client.create_file cl dirs.(i mod nd) (Printf.sprintf "f%05d" i))) in
        write_whole cl fh (size_of i);
        (fh, size_of i))
  in
  { dirs; files; dir_of = Array.init (Array.length files) (fun i -> i mod nd) }

let web_rate = 500.0
let web_cap = 256
let flood_workers = 32
let scan_workers = 8

(* Read a whole file in 32 KB ops. *)
let read_file rc cl (fh, size) =
  let rec rd off =
    if off < size then begin
      let c = min io_chunk (size - off) in
      ignore
        (op rc ~latency:false "read" (fun () -> ok (Client.read_at cl fh ~off:(Int64.of_int off) ~count:c)));
      rd (off + c)
    end
  in
  rd 0

let storm_qos_world ~seed ~tiny ~trace_sample ~drive =
  let ens =
    Ensemble.create
      {
        Ensemble.default_config with
        seed;
        storage_nodes = 2;
        disks_per_node = 6;
        (* the web set (12 MB) overflows the storage cache; the flood set
           (~4 MB) fits the small-file cache *)
        storage_cache = 2 * 1024 * 1024;
        smallfile_cache = 16 * 1024 * 1024;
        mirror_new_files = true;
        proxy_params = default_params ~trace_sample;
        qos = Some { Ensemble.tenants = storm_tenants; wfq_depth = 4; p2c_reads = true; system_tenant = 3 };
      }
  in
  let eng = Ensemble.engine ens in
  let rc = recorder eng in
  let client tenant name port =
    let h, _ = Ensemble.add_client ~tenant ens ~name in
    (h, Client.create h ~server:(Ensemble.virtual_addr ens) ~port ())
  in
  let web_h, web_cl = client 0 "web0" 2001 in
  let flood_h, flood_cl = client 1 "flood0" 2002 in
  let scan_h, scan_cl = client 2 "scan0" 2003 in
  let web_files = if tiny then 12 else 48 and flood_files = if tiny then 32 else 128 in
  let web = ref None and flood = ref None in
  Engine.spawn eng (fun () ->
      Fiber.join_all eng
        [
          (fun () ->
            web := Some (build_tree web_cl ~name:"web" ~dirs:6 ~files:web_files ~size_of:(fun _ -> 262144)));
          (fun () ->
            flood :=
              Some
                (build_tree flood_cl ~name:"flood" ~dirs:4 ~files:flood_files ~size_of:(fun i ->
                     4096 + (i * 4096 mod 61440))));
        ]);
  drive eng;
  let web = Option.get !web and flood = Option.get !flood in
  let prng = Prng.create (seed * 6007) in
  let zipf = Zipf.create ~n:(Array.length web.files) ~s:1.1 in
  let hot = List.filter (fun i -> web.dir_of.(i) = 0) (List.init (Array.length web.files) Fun.id) in
  let hot = Array.of_list hot in
  (* Interactive tenant: open-loop Zipf page reads at mirrored-range
     offsets; from mid-span a flash crowd sends half of them to one
     directory. *)
  let web_run ~t_measure ~t_end =
    let prng = Prng.split prng in
    let hotspot_at = t_measure +. ((t_end -. t_measure) /. 2.0) in
    let inflight = ref 0 in
    poisson eng prng ~rate:web_rate ~t_first:(Engine.now eng +. Prng.float prng 0.02) ~t_end (fun due ->
        if !inflight >= web_cap then begin
          shed rc ~due;
          None
        end
        else begin
          incr inflight;
          let idx =
            if due >= hotspot_at && Prng.float prng 1.0 < 0.5 then hot.(Prng.int prng (Array.length hot))
            else Zipf.sample zipf prng
          in
          let fh, fsize = web.files.(idx) in
          let chunks = max 1 (fsize / io_chunk) in
          let lo = min (65536 / io_chunk) (chunks - 1) in
          let off = (lo + Prng.int prng (max 1 (chunks - lo))) * io_chunk in
          Some
            (fun () ->
              ignore
                (issue rc ~due "web read" (fun () ->
                     ok (Client.read_at web_cl fh ~off:(Int64.of_int off) ~count:io_chunk)));
              decr inflight)
        end)
  in
  (* Small-file flood: closed-loop whole-file reads. *)
  let flood_run ~t_end =
    let prngs = Array.init flood_workers (fun _ -> Prng.split prng) in
    Fiber.join_all eng
      (List.init flood_workers (fun w () ->
           while Engine.now eng < t_end do
             read_file rc flood_cl flood.files.(Prng.int prngs.(w) (Array.length flood.files))
           done))
  in
  (* Backup scan: workers partition both trees; readdir each directory,
     getattr and read each file, over and over. *)
  let scan_run ~t_end =
    Fiber.join_all eng
      (List.init scan_workers (fun w () ->
           while Engine.now eng < t_end do
             List.iter
               (fun tr ->
                 Array.iteri
                   (fun i d ->
                     if i mod scan_workers = w && Engine.now eng < t_end then
                       ignore (op rc ~latency:false "readdir" (fun () -> ok (Client.readdir_all scan_cl d))))
                   tr.dirs;
                 Array.iteri
                   (fun i ((fh, _) as f) ->
                     if i mod scan_workers = w && Engine.now eng < t_end then begin
                       ignore (op rc ~latency:false "getattr" (fun () -> ok (Client.getattr scan_cl fh)));
                       read_file rc scan_cl f
                     end)
                   tr.files)
               [ web; flood ]
           done))
  in
  let start ~t_measure ~t_end =
    Fiber.join_all eng
      [ (fun () -> web_run ~t_measure ~t_end); (fun () -> flood_run ~t_end); (fun () -> scan_run ~t_end) ]
  in
  (* Every file must still read back at the size set-up wrote. *)
  let check () =
    List.concat_map
      (fun (tr, cl) ->
        List.filter_map
          (fun (fh, size) ->
            match Client.getattr cl fh with
            | Ok a when a.Nfs.size = Int64.of_int size -> None
            | Ok a -> Some (Printf.sprintf "storm_qos: file size %Ld, wrote %d" a.Nfs.size size)
            | Error st -> Some ("storm_qos: getattr " ^ Nfs.status_name st))
          (Array.to_list tr.files))
      [ (web, web_cl); (flood, flood_cl) ]
  in
  {
    ens;
    rc;
    client_hosts = [ web_h; flood_h; scan_h ];
    clients = [ web_cl; flood_cl; scan_cl ];
    start;
    check;
  }

let workloads = [ "sfs_mix"; "untar_create"; "storm_qos" ]

(* [drive eng] runs the engine until the file-set build drains it. *)
let build name ~seed ~tiny ~trace_sample ~drive =
  match name with
  | "sfs_mix" -> sfs_mix_world ~seed ~tiny ~trace_sample ~drive
  | "untar_create" -> untar_create_world ~seed ~tiny ~trace_sample ~drive
  | "storm_qos" -> storm_qos_world ~seed ~tiny ~trace_sample ~drive
  | w -> invalid_arg ("unknown workload " ^ w)
