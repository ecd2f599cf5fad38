(* The paper's motivating name-space workload: parallel "untar" processes
   unpacking source trees of small files. Shows how interposed request
   routing spreads one shared volume's name-space load over multiple
   directory servers — without volume boundaries — and compares the two
   routing policies, mkdir switching and name hashing.

   Run with: dune exec examples/untar_scaling.exe *)

module Engine = Slice_sim.Engine
module Client = Slice_workload.Client
module Untar = Slice_workload.Untar

let procs = 8
let client_hosts = 4

let run_config ~label ~dir_servers ~policy ~mkdir_p =
  let ens =
    Slice.Ensemble.create
      {
        Slice.Ensemble.default_config with
        storage_nodes = 0;
        smallfile_servers = 0;
        dir_servers;
        proxy_params = { Slice.Params.default with threshold = 0; name_policy = policy; mkdir_p };
      }
  in
  let eng = Slice.Ensemble.engine ens in
  let pairs =
    Array.init client_hosts (fun i ->
        Slice.Ensemble.add_client ens ~name:(Printf.sprintf "client%d" i))
  in
  let spec = Untar.scaled_spec 0.02 in
  let latencies = Array.make procs 0.0 in
  Engine.spawn eng (fun () ->
      Slice_sim.Fiber.join_all eng
        (List.init procs (fun p () ->
             let host, _ = pairs.(p mod client_hosts) in
             let cl =
               Client.create host ~server:(Slice.Ensemble.virtual_addr ens) ~port:(1000 + p) ()
             in
             latencies.(p) <-
               Untar.run cl ~root:Slice.Ensemble.root ~name:(Printf.sprintf "tree%02d" p) spec)));
  Engine.run eng;
  let avg = Array.fold_left ( +. ) 0.0 latencies /. float_of_int procs in
  let per_site =
    Array.to_list (Slice.Ensemble.dirs ens)
    |> List.map (fun d -> string_of_int (Slice_dir.Dirserver.ops_served d))
    |> String.concat " "
  in
  Printf.printf "%-28s avg untar latency %6.2fs   ops per dir server: %s\n%!" label avg per_site

let () =
  Printf.printf "%d untar processes, %d files each (scaled FreeBSD-src trees)\n\n" procs
    (Untar.scaled_spec 0.02).Untar.files;
  run_config ~label:"1 dir server" ~dir_servers:1 ~policy:Slice.Params.Mkdir_switching
    ~mkdir_p:1.0;
  run_config ~label:"2 dir servers (switching)" ~dir_servers:2 ~policy:Slice.Params.Mkdir_switching
    ~mkdir_p:0.5;
  run_config ~label:"4 dir servers (switching)" ~dir_servers:4 ~policy:Slice.Params.Mkdir_switching
    ~mkdir_p:0.25;
  run_config ~label:"4 dir servers (hashing)" ~dir_servers:4 ~policy:Slice.Params.Name_hashing
    ~mkdir_p:0.0;
  print_endline "\nMore directory servers flatten the latency; the load spreads without";
  print_endline "user-visible volume boundaries (no mount points, link/rename work everywhere).";
  print_endline "untar_scaling: done"
