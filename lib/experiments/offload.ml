(* Metadata-offload exhibit: how many directory-server requests does the
   µproxy's metadata fast path absorb on the SPECsfs op mix, and what does
   it do to latency?

   The measured loop is separate from file-set construction (setup is all
   creates and writes — counting it would dilute the steady-state ratio
   the exhibit is about). Each point runs the same deterministic op
   sequence against a fresh ensemble, differing only in the cache knobs;
   "off" is TTL = 0. *)

module Engine = Slice_sim.Engine
module Fiber = Slice_sim.Fiber
module Nfs = Slice_nfs.Nfs
module Prng = Slice_util.Prng
module Stats = Slice_util.Stats
module Client = Slice_workload.Client
module Livemix = Slice_workload.Livemix

type point = {
  label : string;
  ttl : float;
  capacity : int;
  ops : int;  (** measured operations completed *)
  dir_ops : int;  (** directory-server requests during the measured loop *)
  delivered_ops_s : float;
  avg_ms : float;
  p50_ms : float;
  p95_ms : float;
  p99_ms : float;
  meta : Slice.Proxy.meta_cache_stats;
}

(* SFS97 NFS V3 op mix (as in Specsfs; readdirplus folded into readdir). *)
type op =
  | O_lookup
  | O_read
  | O_write
  | O_getattr
  | O_setattr
  | O_readlink
  | O_readdir
  | O_create_remove
  | O_access
  | O_commit
  | O_fsstat

let op_mix =
  [|
    (27.0, O_lookup);
    (18.0, O_read);
    (9.0, O_write);
    (11.0, O_getattr);
    (1.0, O_setattr);
    (7.0, O_readlink);
    (11.0, O_readdir);
    (2.0, O_create_remove);
    (7.0, O_access);
    (5.0, O_commit);
    (1.0, O_fsstat);
  |]

(* The file set the SFS97 mix runs over: small files plus one symlink
   per 20 files, for readlink. *)
let fileset_shape ~files =
  { Livemix.prefix = "off"; nsmall = files; nbig = 0; chunks = 0; nlinks = max 1 (files / 20) }

let one_op cl prng (fs : Livemix.fileset) ~fresh =
  match Prng.weighted prng op_mix with
  | O_lookup ->
      let f = Livemix.pick_hot prng fs.small in
      ignore (Client.lookup cl f.e_dir f.e_name)
  | O_read ->
      let f = Livemix.pick_hot prng fs.small in
      ignore (Client.read_at cl f.e_fh ~off:0L ~count:Livemix.small_bytes)
  | O_write ->
      let f = Livemix.pick_hot prng fs.small in
      ignore (Client.write_at cl f.e_fh ~off:0L ~data:(Nfs.Synthetic Livemix.small_bytes) ())
  | O_getattr ->
      let f = Livemix.pick_hot prng fs.small in
      ignore (Client.getattr cl f.e_fh)
  | O_setattr ->
      let f = Livemix.pick_hot prng fs.small in
      ignore (Client.setattr cl f.e_fh (Nfs.sattr_times ~mtime:0.0 ()))
  | O_readlink ->
      let l = fs.links.(Prng.int prng (Array.length fs.links)) in
      ignore (Client.readlink cl l.e_fh)
  | O_readdir ->
      let d = fs.dirs.(Prng.int prng (Array.length fs.dirs)) in
      ignore (Client.call cl (Nfs.Readdir (d, 0L, 32)))
  | O_create_remove ->
      incr fresh;
      let d = fs.dirs.(Prng.int prng (Array.length fs.dirs)) in
      let name = Printf.sprintf "tmp%06d" !fresh in
      (match Client.create_file cl d name with
      | Ok _ -> ignore (Client.remove cl d name)
      | Error _ -> ())
  | O_access ->
      let f = Livemix.pick_hot prng fs.small in
      ignore (Client.access cl f.e_fh)
  | O_commit ->
      let f = Livemix.pick_hot prng fs.small in
      ignore (Client.commit cl f.e_fh)
  | O_fsstat ->
      let f = Livemix.pick_hot prng fs.small in
      ignore (Client.call cl (Nfs.Fsstat f.e_fh))

(* The measured loop: closed-loop SFS97-mix ops, two workers per client,
   [ops_per_proc / 2] each; [on_op] gets each op's latency. *)
let replay eng cls filesets ~seed ~ops_per_proc ~on_op =
  Fiber.join_all eng
    (List.concat
       (List.init (Array.length cls) (fun p ->
            List.init 2 (fun w () ->
                let prng = Prng.create (seed + 97 + (p * 7919) + (w * 131)) in
                let fresh = ref (((p * 2) + w) * 100_000) in
                for _ = 1 to ops_per_proc / 2 do
                  let s = Engine.now eng in
                  one_op cls.(p) prng filesets.(p) ~fresh;
                  on_op (Engine.now eng -. s)
                done))))

let run_point ~label ~ttl ~capacity ~clients ~files_per_proc ~ops_per_proc ~seed =
  let ens =
    Slice.Ensemble.create
      {
        Slice.Ensemble.default_config with
        seed;
        storage_nodes = 4;
        dir_servers = 2;
        smallfile_servers = 2;
        proxy_params =
          { Slice.Params.default with meta_cache_ttl = ttl; name_cache_capacity = capacity };
      }
  in
  let eng = Slice.Ensemble.engine ens in
  let cls =
    Array.init clients (fun i ->
        let host, _proxy = Slice.Ensemble.add_client ens ~name:(Printf.sprintf "sfs%d" i) in
        Client.create host ~server:(Slice.Ensemble.virtual_addr ens) ())
  in
  let lat = Stats.create () in
  let dir_ops = ref 0 in
  let delivered = ref 0.0 in
  let measured = ref 0 in
  Engine.spawn eng (fun () ->
      (* setup: each process builds its own file set (all dir-server
         traffic here is excluded from the measured window) *)
      let filesets = Livemix.build_all eng cls (fileset_shape ~files:files_per_proc) in
      let dir0 = Slice.Ensemble.dir_ops_served ens in
      let t0 = Engine.now eng in
      replay eng cls filesets ~seed ~ops_per_proc ~on_op:(fun dt ->
          Stats.add lat dt;
          incr measured);
      let elapsed = Engine.now eng -. t0 in
      dir_ops := Slice.Ensemble.dir_ops_served ens - dir0;
      delivered := (if elapsed > 0.0 then float_of_int !measured /. elapsed else 0.0));
  Engine.run eng;
  {
    label;
    ttl;
    capacity;
    ops = !measured;
    dir_ops = !dir_ops;
    delivered_ops_s = !delivered;
    avg_ms = Stats.mean lat *. 1e3;
    p50_ms = Stats.percentile lat 50.0 *. 1e3;
    p95_ms = Stats.percentile lat 95.0 *. 1e3;
    p99_ms = Stats.percentile lat 99.0 *. 1e3;
    meta = Slice.Ensemble.meta_cache_totals ens;
  }

(* Sweep: cache off, default knobs, and the TTL x capacity corners that
   show where the offload comes from (lease length) and what bounds it
   (entry pressure). *)
let compute ?(scale = 1.0) ?(sweep = true) () =
  let clients = 4 in
  let files_per_proc = max 24 (int_of_float (120.0 *. scale)) in
  let ops_per_proc = max 100 (int_of_float (1000.0 *. scale)) in
  let point ~label ~ttl ~capacity =
    run_point ~label ~ttl ~capacity ~clients ~files_per_proc ~ops_per_proc ~seed:42
  in
  let core =
    [
      point ~label:"cache off (TTL=0)" ~ttl:0.0 ~capacity:4096;
      point ~label:"default (TTL=2s, 4096 entries)" ~ttl:2.0 ~capacity:4096;
    ]
  in
  if not sweep then core
  else
    core
    @ [
        point ~label:"short lease (TTL=0.5s)" ~ttl:0.5 ~capacity:4096;
        point ~label:"long lease (TTL=8s)" ~ttl:8.0 ~capacity:4096;
        point ~label:"tiny cache (64 entries)" ~ttl:2.0 ~capacity:64;
      ]

let dir_reduction ~off ~on =
  if off.dir_ops = 0 then 0.0
  else 100.0 *. (1.0 -. (float_of_int on.dir_ops /. float_of_int off.dir_ops))

let report_of points =
  let off = List.hd points in
  let per_kop p = 1000.0 *. float_of_int p.dir_ops /. float_of_int (max 1 p.ops) in
  {
    Report.title = "Metadata offload: directory-server requests absorbed by the µproxy";
    preamble =
      [
        "SPECsfs97 op mix, 80/20 hot set, 4 clients x 2 workers, closed loop.";
        "dir req/kop = directory-server requests per 1000 client ops during the";
        "measured window (file-set setup excluded). Reduction is vs. cache off.";
      ];
    rows =
      List.map
        (fun p ->
          Report.row ~label:p.label
            ~paper:"-"
            ~measured:(Printf.sprintf "%.0f dir req/kop" (per_kop p))
            ~note:
              (Printf.sprintf "-%.0f%% dir reqs; %.0f ops/s; p95 %.2f ms; hits %d+%d neg"
                 (dir_reduction ~off ~on:p)
                 p.delivered_ops_s p.p95_ms p.meta.Slice.Proxy.hits
                 p.meta.Slice.Proxy.negative_hits)
            ())
        points;
  }

let report ?scale () = report_of (compute ?scale ())

