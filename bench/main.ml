(* Bechamel microbenchmarks of the µproxy hot paths: the real code on the
   critical path behind each exhibit, grouped by the exhibit that leans
   on it. The exhibits themselves (and the design-choice ablations) are
   `slice_sim` subcommands; the repository benchmark is `perfbench/`.

   Usage: dune exec bench/main.exe *)

module Nfs = Slice_nfs.Nfs
module Fh = Slice_nfs.Fh
module Codec = Slice_nfs.Codec
module Packet = Slice_net.Packet
module Cksum = Slice_net.Cksum
module Routekey = Slice_nfs.Routekey

let sample_fh =
  { Fh.file_id = 424242L; gen = 1; ftype = Fh.Reg; mirrored = false; attr_site = 0; cap = 0L }

let sample_call = Codec.encode_call ~xid:7 (Nfs.Lookup (sample_fh, "kern_descrip.c"))

let sample_pkt () =
  Packet.make ~src:3 ~dst:9 ~sport:1000 ~dport:2049 (Bytes.copy sample_call)

let micro_tests =
  let open Bechamel in
  Test.make_grouped ~name:"uproxy"
    [
      (* Table 3: packet decode — the µproxy's cursor peek vs a full decode *)
      (let cur = Codec.cursor () in
       Test.make ~name:"table3/peek-call"
         (Staged.stage (fun () -> ignore (Codec.peek_call_into cur sample_call))));
      Test.make ~name:"table3/full-decode"
        (Staged.stage (fun () -> ignore (Codec.decode_call sample_call)));
      (* Table 3: redirection/rewriting — incremental checksum vs naive *)
      (let pkt = sample_pkt () in
       Test.make ~name:"table3/rewrite-dst-incremental"
         (Staged.stage (fun () -> Cksum.rewrite_dst pkt ((pkt.Packet.dst + 1) land 0xFF))));
      (let pkt = sample_pkt () in
       Test.make ~name:"table3/checksum-full-recompute"
         (Staged.stage (fun () -> ignore (Cksum.compute pkt))));
      (* Table 2: bulk I/O routing *)
      (let fh_buf = Bytes.of_string (Fh.encode sample_fh) in
       Test.make ~name:"table2/stripe-route"
         (Staged.stage (fun () ->
              ignore (Routekey.stripe_site_at ~nsites:8 ~stripe_unit:32768 fh_buf ~off:0 1048576);
              ignore (Routekey.local_offset_int ~nsites:8 ~stripe_unit:32768 1048576))));
      (* Figures 3/4: name-space routing hash — MD5 (the paper's choice)
         vs FNV (the "competing hash function" ablation) *)
      Test.make ~name:"fig3/md5-name-site"
        (Staged.stage (fun () -> ignore (Routekey.name_site ~nsites:4 sample_fh "dir01234")));
      Test.make ~name:"fig3/fnv-name-site"
        (Staged.stage (fun () ->
             ignore (Slice_hash.Fnv.bucket (Fh.encode sample_fh ^ "\x00dir01234") 4)));
      (* Figures 5/6: per-op wire cost *)
      Test.make ~name:"fig5/encode-write-call"
        (Staged.stage (fun () ->
             ignore
               (Codec.encode_call ~xid:9 (Nfs.Write (sample_fh, 0L, Nfs.Unstable, Nfs.Synthetic 8192)))));
      (let wal = Slice_wal.Wal.create ~name:"bench" () in
       Test.make ~name:"managers/wal-append"
         (Staged.stage (fun () -> ignore (Slice_wal.Wal.append_with wal ~site:0 ~rtype:1 Slice_xdr.Xdr.Enc.raw "0123456789abcdef"))));
      (* metadata fast path: lease-aware cache lookup and the percentile
         query every exhibit's latency lines lean on *)
      (let names = Slice_util.Slot_lru.create ~capacity:4096 in
       for i = 0 to 4095 do
         ignore (Slice_util.Slot_lru.add names i ~lease:infinity)
       done;
       let k = ref 0 in
       Test.make ~name:"metacache/slot-lru-fresh"
         (Staged.stage (fun () ->
              k := (!k + 17) land 4095;
              let s = Slice_util.Slot_lru.slot names !k in
              ignore (s >= 0 && Slice_util.Slot_lru.fresh names s ~now:1.0))));
      (let s = Slice_util.Stats.create () in
       let p = Slice_util.Prng.create 5 in
       for _ = 1 to 10_000 do
         Slice_util.Stats.add s (Slice_util.Prng.float p 1.0)
       done;
       Test.make ~name:"metacache/stats-percentile-cached"
         (Staged.stage (fun () -> ignore (Slice_util.Stats.percentile s 99.0))));
    ]

let run_micro () =
  let open Bechamel in
  print_endline "== Microbenchmarks (Bechamel, ns/op) ==";
  print_endline "the real hot-path code behind each exhibit:";
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.25) ~kde:None () in
  let raw = Benchmark.all cfg Toolkit.Instance.[ monotonic_clock ] micro_tests in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let rows =
    List.sort
      (fun (a, _) (b, _) -> String.compare a b)
      (Hashtbl.fold (fun name v acc -> (name, v) :: acc) results [])
  in
  List.iter
    (fun (name, v) ->
      match Analyze.OLS.estimates v with
      | Some (t :: _) -> Printf.printf "  %-44s %10.1f ns/op\n" name t
      | _ -> Printf.printf "  %-44s %10s\n" name "n/a")
    rows

let () = run_micro ()
