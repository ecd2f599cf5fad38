(* The live-load mix shared by the scale, failover, offload and trace
   exhibits: one file-set builder, one 80/20 hot pick, one op variant
   with the mix as data, one read-back audit and one phased-window
   driver. The PRNG draw order inside each function is part of the
   contract: every exhibit's output depends on it. *)

module Engine = Slice_sim.Engine
module Fiber = Slice_sim.Fiber
module Nfs = Slice_nfs.Nfs
module Fh = Slice_nfs.Fh
module Prng = Slice_util.Prng
module Stats = Slice_util.Stats
module Json = Slice_util.Json

type entry = { e_dir : Fh.t; e_name : string; e_fh : Fh.t }

type fileset = {
  dirs : Fh.t array;
  small : entry array;
  big : entry array;
  big_chunks : int;
  links : entry array;
}

type shape = { prefix : string; nsmall : int; nbig : int; chunks : int; nlinks : int }

let small_bytes = 4096
let chunk = 32768

let build cl s ~proc =
  let top_name = Printf.sprintf "%s%02d" s.prefix proc in
  let made what = function
    | Ok (fh, _) -> fh
    | Error st ->
        failwith (Printf.sprintf "%s setup %s: %s" top_name what (Nfs.status_name st))
  in
  let top = made "mkdir" (Client.mkdir cl Fh.root top_name) in
  let ndirs = max 2 (s.nsmall / 24) in
  let dirs =
    Array.init ndirs (fun i ->
        if i = 0 then top else made "mkdir" (Client.mkdir cl top (Printf.sprintf "d%03d" i)))
  in
  let small =
    Array.init s.nsmall (fun i ->
        let dir = dirs.(i mod ndirs) and name = Printf.sprintf "f%04d" i in
        let fh = made "create" (Client.create_file cl dir name) in
        ignore (Client.write_at cl fh ~off:0L ~data:(Nfs.Synthetic small_bytes) ());
        ignore (Client.commit cl fh);
        { e_dir = dir; e_name = name; e_fh = fh })
  in
  let big =
    Array.init s.nbig (fun i ->
        let name = Printf.sprintf "g%02d" i in
        let fh = made "create big" (Client.create_file cl top name) in
        for c = 0 to s.chunks - 1 do
          ignore
            (Client.write_at cl fh ~off:(Int64.of_int (c * chunk)) ~data:(Nfs.Synthetic chunk) ())
        done;
        ignore (Client.commit cl fh);
        { e_dir = top; e_name = name; e_fh = fh })
  in
  let links =
    Array.init s.nlinks (fun i ->
        let dir = dirs.(i mod ndirs) and name = Printf.sprintf "l%04d" i in
        let fh = made "symlink" (Client.symlink cl dir name ~target:"f0000") in
        { e_dir = dir; e_name = name; e_fh = fh })
  in
  { dirs; small; big; big_chunks = s.chunks; links }

let build_all eng cls s =
  let filesets = Array.make (Array.length cls) None in
  Fiber.join_all eng
    (List.init (Array.length cls) (fun p () -> filesets.(p) <- Some (build cls.(p) s ~proc:p)));
  Array.map Option.get filesets

let pick_hot prng a =
  let n = Array.length a in
  let hot = max 1 (n / 5) in
  if Prng.float prng 1.0 < 0.8 then a.(Prng.int prng hot) else a.(Prng.int prng n)

type op =
  | O_lookup
  | O_getattr
  | O_access
  | O_readdir
  | O_sread
  | O_swrite
  | O_bread
  | O_bwrite
  | O_bcommit

type mix = (float * op) array

let classes = [| "name"; "smallfile"; "storage" |]

let pick_big prng fs = fs.big.(Prng.int prng (Array.length fs.big))
let big_off prng fs = Int64.of_int ((2 + Prng.int prng (fs.big_chunks - 2)) * chunk)

let one_op cl prng fs mix =
  let failed = Result.is_error in
  match Prng.weighted prng mix with
  | O_lookup ->
      let f = pick_hot prng fs.small in
      (0, failed (Client.lookup cl f.e_dir f.e_name))
  | O_getattr ->
      let f = pick_hot prng fs.small in
      (0, failed (Client.getattr cl f.e_fh))
  | O_access ->
      let f = pick_hot prng fs.small in
      (0, failed (Client.access cl f.e_fh))
  | O_readdir ->
      let d = fs.dirs.(Prng.int prng (Array.length fs.dirs)) in
      (0, failed (Client.call cl (Nfs.Readdir (d, 0L, 24))))
  | O_sread ->
      let f = pick_hot prng fs.small in
      (1, failed (Client.read_at cl f.e_fh ~off:0L ~count:small_bytes))
  | O_swrite ->
      let f = pick_hot prng fs.small in
      (1, failed (Client.write_at cl f.e_fh ~off:0L ~data:(Nfs.Synthetic small_bytes) ()))
  | O_bread ->
      let g = pick_big prng fs in
      (2, failed (Client.read_at cl g.e_fh ~off:(big_off prng fs) ~count:chunk))
  | O_bwrite ->
      let g = pick_big prng fs in
      (2, failed (Client.write_at cl g.e_fh ~off:(big_off prng fs) ~data:(Nfs.Synthetic chunk) ()))
  | O_bcommit ->
      let g = pick_big prng fs in
      (2, failed (Client.commit cl g.e_fh))

type audit = { checked : int; lost : int }

let audit cls filesets =
  let checked = ref 0 and lost = ref 0 in
  let check ok =
    incr checked;
    if not ok then incr lost
  in
  let reads_back c fh ~off ~count =
    match Client.read_at c fh ~off ~count with
    | Ok (d, _) -> Nfs.wdata_length d = count
    | Error _ -> false
  in
  Array.iteri
    (fun p fs ->
      let c = cls.(p) in
      Array.iter
        (fun f ->
          check
            (match Client.lookup c f.e_dir f.e_name with
            | Ok (fh, _) -> Int64.equal fh.Fh.file_id f.e_fh.Fh.file_id
            | Error _ -> false);
          check (reads_back c f.e_fh ~off:0L ~count:small_bytes))
        fs.small;
      Array.iter
        (fun g ->
          for ci = 0 to fs.big_chunks - 1 do
            check (reads_back c g.e_fh ~off:(Int64.of_int (ci * chunk)) ~count:chunk)
          done)
        fs.big)
    filesets;
  { checked = !checked; lost = !lost }

let run eng clients s mix ~seed ~window ~controller ~on_op =
  let filesets = build_all eng clients s in
  let bucket = ref (-1) and running = ref true in
  let open_window i =
    let t0 = Engine.now eng in
    bucket := i;
    Engine.sleep eng window;
    bucket := -1;
    Engine.now eng -. t0
  in
  let worker p w () =
    let prng = Prng.create (seed + 131 + (p * 7919) + (w * 977)) in
    while !running do
      let phase = !bucket in
      let t = Engine.now eng in
      let cls, failed = one_op clients.(p) prng filesets.(p) mix in
      on_op ~phase ~cls ~failed (Engine.now eng -. t)
    done
  in
  Fiber.join_all eng
    ((fun () ->
       controller open_window;
       running := false)
    :: List.concat (List.init (Array.length clients) (fun p -> List.init 2 (fun w -> worker p w))));
  audit clients filesets

let audit_note a ~ownership_violations =
  Printf.sprintf "%s: %d checks, %d lost, %d ownership violations"
    (if a.lost = 0 && ownership_violations = 0 then "clean" else "FAILED")
    a.checked a.lost ownership_violations

let audit_json a ~ownership_violations =
  let int v = Json.Num (float_of_int v) in
  Json.Obj
    [
      ("checked", int a.checked);
      ("lost", int a.lost);
      ("ownership_violations", int ownership_violations);
    ]

let lat_json s =
  let ms v = Json.Num (v *. 1e3) in
  Json.Obj
    [
      ("mean_ms", ms (Stats.mean s));
      ("n", Json.Num (float_of_int (Stats.count s)));
      ("p50_ms", ms (Stats.percentile s 50.0));
      ("p95_ms", ms (Stats.percentile s 95.0));
    ]
