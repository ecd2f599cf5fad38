module Engine = Slice_sim.Engine
module Fh = Slice_nfs.Fh
module Nfs = Slice_nfs.Nfs
module Client = Slice_workload.Client
module Ensemble = Slice.Ensemble

type t = {
  md5_imbalance : float;  (* max/min bucket load, 20 000 keys over 8 sites *)
  fnv_imbalance : float;
  threshold_reads : (int * float) list;
      (* (threshold bytes, average cold small-file read, seconds) *)
  stripe_reads : (int * float) list;  (* (stripe unit bytes, single-client sequential read, MB/s) *)
}

let hash_keys = 20_000
let hash_sites = 8

(* max/min bucket load of one routing hash over a fixed key set *)
let imbalance bucket =
  let counts = Array.make hash_sites 0 in
  for i = 1 to hash_keys do
    let k = Printf.sprintf "%Ld/file%06d" (Int64.of_int (i * 7919)) i in
    let b = bucket k hash_sites in
    counts.(b) <- counts.(b) + 1
  done;
  let mx = Array.fold_left max 0 counts and mn = Array.fold_left min max_int counts in
  float_of_int mx /. float_of_int mn

(* Untar-created small files re-read with cold storage caches: the
   threshold decides whether the reads are served by the small-file
   class or go to the array. *)
let threshold_read ~files threshold =
  let ens =
    Ensemble.create
      {
        Ensemble.default_config with
        storage_nodes = 2;
        smallfile_servers = (if threshold = 0 then 0 else 2);
        proxy_params = { Slice.Params.default with threshold };
      }
  in
  let eng = Ensemble.engine ens in
  let host, _ = Ensemble.add_client ens ~name:"c" in
  let cl = Client.create host ~server:(Ensemble.virtual_addr ens) () in
  let lat = ref 0.0 in
  Engine.spawn eng (fun () ->
      let fhs =
        List.init files (fun i ->
            match Client.create_file cl Ensemble.root (Printf.sprintf "f%d" i) with
            | Ok (fh, _) ->
                ignore
                  (Client.write_at cl fh ~off:0L ~data:(Nfs.Synthetic (4096 + (i mod 8 * 4096))) ());
                fh
            | Error _ -> failwith "setup")
      in
      ignore (Client.commit cl (List.hd fhs));
      Array.iter Slice_storage.Obsd.drop_caches (Ensemble.storage ens);
      let t0 = Engine.now eng in
      List.iter (fun fh -> ignore (Client.read_at cl fh ~off:0L ~count:4096)) fhs;
      lat := (Engine.now eng -. t0) /. float_of_int files);
  Engine.run eng;
  !lat

let stripe_fh stripe_unit =
  { Fh.file_id = Int64.of_int (1000 + stripe_unit); gen = 1; ftype = Fh.Reg; mirrored = false;
    attr_site = 0; cap = 0L }

(* Single-client sequential read bandwidth over 8 storage nodes. *)
let stripe_read ~bytes stripe_unit =
  let ens =
    Ensemble.create
      {
        Ensemble.default_config with
        storage_nodes = 8;
        smallfile_servers = 0;
        proxy_params = { Slice.Params.default with threshold = 0; stripe_unit };
      }
  in
  let eng = Ensemble.engine ens in
  let host, _ = Ensemble.add_client ens ~name:"c" in
  let cl =
    Client.create host ~server:(Ensemble.virtual_addr ens) ~io_size:(min stripe_unit 32768) ()
  in
  let fh = stripe_fh stripe_unit in
  let mbs = ref 0.0 in
  Engine.spawn eng (fun () ->
      Client.sequential_write cl fh ~bytes;
      Array.iter Slice_storage.Obsd.drop_caches (Ensemble.storage ens);
      let t0 = Engine.now eng in
      Client.sequential_read cl fh ~bytes;
      mbs := Int64.to_float bytes /. (Engine.now eng -. t0) /. 1e6);
  Engine.run eng;
  !mbs

let compute ?(scale = 0.25) () =
  let files = max 16 (int_of_float (240.0 *. scale)) in
  let bytes = Int64.of_float (3.2e8 *. scale) in
  let md5_imbalance = imbalance Slice_hash.Md5.bucket in
  let fnv_imbalance = imbalance Slice_hash.Fnv.bucket in
  let threshold_reads =
    List.map (fun th -> (th, threshold_read ~files th)) [ 0; 16384; 65536; 262144 ]
  in
  let stripe_reads = List.map (fun su -> (su, stripe_read ~bytes su)) [ 8192; 32768; 131072 ] in
  { md5_imbalance; fnv_imbalance; threshold_reads; stripe_reads }

let report_of t =
  let chosen v paper = if v = paper then "chosen" else "-" in
  {
    Report.title = "Ablations: routing hash, small-file threshold, stripe unit";
    preamble =
      [
        Printf.sprintf "hash: max/min bucket load over %d keys, %d sites (the paper chose MD5"
          hash_keys hash_sites;
        "for \"balanced distribution and low cost\"). threshold: average cold re-read of";
        "untar-created small files; 0 sends all I/O to the storage array. stripe unit:";
        "single-client sequential read bandwidth.";
      ];
    rows =
      [
        Report.row ~label:"hash md5" ~paper:"chosen"
          ~measured:(Printf.sprintf "%.3f" t.md5_imbalance) ();
        Report.row ~label:"hash fnv" ~paper:"-" ~measured:(Printf.sprintf "%.3f" t.fnv_imbalance) ();
      ]
      @ List.map
          (fun (th, lat) ->
            Report.row
              ~label:(Printf.sprintf "threshold %d B" th)
              ~paper:(chosen th 65536)
              ~measured:(Printf.sprintf "%.2f ms" (lat *. 1e3))
              ())
          t.threshold_reads
      @ List.map
          (fun (su, mbs) ->
            Report.row
              ~label:(Printf.sprintf "stripe unit %d B" su)
              ~paper:(chosen su 32768)
              ~measured:(Printf.sprintf "%.1f MB/s" mbs)
              ())
          t.stripe_reads;
  }

let report ?scale () = report_of (compute ?scale ())
