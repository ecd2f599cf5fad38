open Helpers
module E = Slice_experiments
module Nfs = Slice_nfs.Nfs
module Client = Slice_workload.Client
module Ensemble = Slice.Ensemble

let table2_smoke () =
  let data = E.Table2.run ~scale:0.02 () in
  check_int "eight rows" 8 (List.length data);
  List.iter
    (fun (d : E.Table2.datum) ->
      check_bool (d.E.Table2.config ^ " positive") true (d.E.Table2.measured_mbs > 1.0))
    data;
  (* headline shape: saturation read beats single-client read *)
  let find c = (List.find (fun (d : E.Table2.datum) -> d.E.Table2.config = c) data).E.Table2.measured_mbs in
  check_bool "aggregation shape" true (find "read, saturation" > 2.0 *. find "read, single client");
  check_bool "mirror halves aggregate writes" true
    (find "write-mirrored, saturation" < 0.75 *. find "write, saturation")

let table3_smoke () =
  let t = E.Table3.run ~scale:0.02 () in
  check_int "four phases" 4 (List.length t.E.Table3.rows);
  check_bool "total in a sane band" true (t.E.Table3.total_pct > 2.0 && t.E.Table3.total_pct < 15.0);
  check_bool "decode dominates" true
    ((List.nth t.E.Table3.rows 1).E.Table3.measured_pct
    > (List.nth t.E.Table3.rows 0).E.Table3.measured_pct)

let fig3_smoke () =
  let t = E.Fig3.run ~scale:0.01 ~procs:[ 1; 8 ] ~dir_counts:[ 1; 2 ] () in
  (* shapes: MFS and Slice-1 saturate; Slice-2 beats Slice-1 at 8 procs *)
  let lat name procs =
    let s = List.find (fun (s : E.Fig3.series) -> s.E.Fig3.name = name) t.E.Fig3.series in
    List.assoc procs s.E.Fig3.points
  in
  check_bool "Slice-1 grows with load" true
    (lat "Slice-1 (mkdir switching)" 8 > 2.0 *. lat "Slice-1 (mkdir switching)" 1);
  check_bool "Slice-2 beats Slice-1 under load" true
    (lat "Slice-2 (mkdir switching)" 8 < lat "Slice-1 (mkdir switching)" 8);
  check_bool "MFS faster than Slice-1 when unloaded" true
    (lat "N-MFS" 1 < lat "Slice-1 (mkdir switching)" 1)

let fig4_smoke () =
  let t = E.Fig4.run ~scale:0.01 ~affinities:[ 0.5; 1.0 ] ~proc_counts:[ 8 ] () in
  let s = List.hd t.E.Fig4.series in
  let at a = (List.find (fun p -> p.E.Fig4.affinity = a) s.E.Fig4.points).E.Fig4.latency in
  check_bool "affinity 1 degrades under load" true (at 1.0 > 1.5 *. at 0.5);
  let r05 = (List.find (fun p -> p.E.Fig4.affinity = 0.5) s.E.Fig4.points).E.Fig4.redirect_fraction in
  check_bool "redirect fraction tracks p (within noise)" true (r05 > 0.2 && r05 < 0.55)

let e2e_under_packet_loss () =
  (* 3% loss on every link: end-to-end retransmission keeps the volume
     correct through the µproxy, servers, and coordinator *)
  let ens =
    Ensemble.create
      {
        Ensemble.default_config with
        storage_nodes = 2;
        net_params = Some { Slice_net.Net.default_params with drop_prob = 0.1 };
        seed = 99;
      }
  in
  let host, _ = Ensemble.add_client ens ~name:"lossy" in
  let cl = Client.create host ~server:(Ensemble.virtual_addr ens) () in
  run_on (Ensemble.engine ens) (fun () ->
      let data = String.init 4000 (fun i -> Char.chr (i mod 251)) in
      for i = 0 to 19 do
        let name = Printf.sprintf "lossy%02d.dat" i in
        let fh, _ = ok_or_fail "create" (Client.create_file cl Ensemble.root name) in
        ignore (ok_or_fail "write" (Client.write_at cl fh ~off:0L ~data:(Nfs.Data data) ()));
        ignore (ok_or_fail "commit" (Client.commit cl fh));
        match ok_or_fail "read" (Client.read_at cl fh ~off:0L ~count:4000) with
        | Nfs.Data d, _ -> check_string "data survived loss" data d
        | _ -> Alcotest.fail "synthetic"
      done;
      check_bool "losses actually happened" true (Client.retransmissions cl > 0);
      check_int "no client-visible errors" 0 (Client.errors cl))

let deterministic_runs () =
  (* identical seeds -> bit-identical simulated outcomes *)
  let once () =
    let ens = Ensemble.create { Ensemble.default_config with storage_nodes = 2; seed = 7 } in
    let host, _ = Ensemble.add_client ens ~name:"d" in
    let cl = Client.create host ~server:(Ensemble.virtual_addr ens) () in
    run_on (Ensemble.engine ens) (fun () ->
        let fh, _ = ok_or_fail "create" (Client.create_file cl Ensemble.root "same") in
        Client.sequential_write cl fh ~bytes:200_000L;
        Client.sequential_read cl fh ~bytes:200_000L;
        Client.now cl)
  in
  check_float "identical completion times" (once ()) (once ())

let offload_smoke () =
  match E.Offload.compute ~scale:0.05 ~sweep:false () with
  | [ off; on ] ->
      check_bool "measured ops ran" true (off.E.Offload.ops > 100);
      check_bool "baseline talks to dir servers" true (off.E.Offload.dir_ops > 0);
      (* the PR's acceptance bar: >= 30% fewer directory-server requests
         at default knobs, even at smoke scale *)
      check_bool "cache absorbs >= 30% of dir requests" true
        (float_of_int on.E.Offload.dir_ops < 0.7 *. float_of_int off.E.Offload.dir_ops);
      check_bool "hits account for the offload" true (on.E.Offload.meta.Slice.Proxy.hits > 0)
  | pts -> Alcotest.failf "expected 2 points, got %d" (List.length pts)

(* One manager of each class is killed: three takeovers with positive,
   bounded MTTR that each claim sites; the post-run audit finds every
   acked update and exclusive ownership; every revived zombie is fenced. *)
let failover_exhibit () =
  let module F = E.Failover in
  let t = F.compute ~scale:0.2 () in
  check_int "one takeover per manager class" 3 (List.length t.F.takeovers);
  List.iter
    (fun (tk : F.takeover) ->
      let name = tk.F.tk_class in
      check_bool (name ^ ": detected") true (tk.F.tk_detect > 0.0);
      check_bool (name ^ ": mttr bounded, >= detect") true
        (Float.is_finite tk.F.tk_mttr && tk.F.tk_mttr >= tk.F.tk_detect);
      check_bool (name ^ ": claimed sites") true (tk.F.tk_sites > 0))
    t.F.takeovers;
  check_int "zero requests lost" 0 t.F.audit.F.aud_lost;
  check_bool "audit checked something" true (t.F.audit.F.aud_checked > 0);
  check_int "no ownership violations" 0 t.F.audit.F.aud_ownership_violations;
  check_bool "zombies probed" true (t.F.zombies <> []);
  List.iter
    (fun (z : F.zombie) -> check_bool (z.F.z_name ^ " fenced") true z.F.z_update_blocked)
    t.F.zombies

let suite =
  [
    ("table2 smoke", `Slow, table2_smoke);
    ("table3 smoke", `Quick, table3_smoke);
    ("fig3 smoke", `Slow, fig3_smoke);
    ("fig4 smoke", `Slow, fig4_smoke);
    ("offload smoke", `Quick, offload_smoke);
    ("failover exhibit", `Quick, failover_exhibit);
    ("e2e under packet loss", `Quick, e2e_under_packet_loss);
    ("deterministic runs", `Quick, deterministic_runs);
  ]
