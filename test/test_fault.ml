open Helpers
module Engine = Slice_sim.Engine
module Net = Slice_net.Net
module Packet = Slice_net.Packet
module Rpc = Slice_net.Rpc
module Nfs = Slice_nfs.Nfs
module Fh = Slice_nfs.Fh
module Codec = Slice_nfs.Codec
module Host = Slice_storage.Host
module Obsd = Slice_storage.Obsd
module Tenure = Slice_storage.Tenure
module Coordinator = Slice_storage.Coordinator
module Dirserver = Slice_dir.Dirserver
module Ctrl = Slice_storage.Ctrl
module Client = Slice_workload.Client
module Ensemble = Slice.Ensemble
module Proxy = Slice.Proxy
module Table = Slice.Table
module Chaos = Slice_experiments.Chaos
module Fault = Slice.Fault

let mk_net ?(seed = 11) () =
  let eng = Engine.create () in
  let net = Net.create eng ~seed () in
  (eng, net)

let pkt ~src ~dst = Packet.make ~src ~dst ~sport:1 ~dport:9 (Bytes.create 100)

let link ?src ?dst ?(drop = 0.0) ?(delay = 0.0) ?(dup = 0.0) () =
  Net.Link { Net.src; dst; drop; delay; dup }

(* A one-action schedule due now: it applies before [now] returns. *)
let now ens action = Fault.install ens [ (Engine.now (Ensemble.engine ens), action) ]

(* ---- net-level faults ---- *)

let link_fault_drops () =
  let eng, net = mk_net () in
  let a = Net.add_node net ~name:"a" in
  let b = Net.add_node net ~name:"b" in
  let got = ref 0 in
  Net.listen net a ~port:9 (fun _ -> incr got);
  Net.listen net b ~port:9 (fun _ -> incr got);
  Net.fault net (link ~src:a ~dst:b ~drop:1.0 ());
  Net.send net (pkt ~src:a ~dst:b);
  Net.send net (pkt ~src:b ~dst:a);
  Engine.run eng;
  (* a->b black-holed; the reverse direction unaffected *)
  check_int "only reverse delivered" 1 !got;
  check_int "link drop counted" 1 (Net.fault_counts net).Net.link_drops;
  check_int "summed in fault_drops" 1 (Net.fault_drops net)

let link_fault_duplicates () =
  let eng, net = mk_net () in
  let a = Net.add_node net ~name:"a" in
  let b = Net.add_node net ~name:"b" in
  let got = ref 0 in
  Net.listen net b ~port:9 (fun _ -> incr got);
  Net.fault net (link ~src:a ~dst:b ~dup:1.0 ());
  Net.send net (pkt ~src:a ~dst:b);
  Engine.run eng;
  check_int "both copies arrive" 2 !got;
  check_int "duplicate counted" 1 (Net.fault_counts net).Net.duplicates

let link_fault_delay () =
  let base = ref 0.0 in
  let slow = ref 0.0 in
  let once ~delay cell =
    let eng, net = mk_net () in
    let a = Net.add_node net ~name:"a" in
    let b = Net.add_node net ~name:"b" in
    Net.listen net b ~port:9 (fun _ -> cell := Engine.now eng);
    if delay > 0.0 then Net.fault net (link ~src:a ~dst:b ~delay ());
    Net.send net (pkt ~src:a ~dst:b);
    Engine.run eng
  in
  once ~delay:0.0 base;
  once ~delay:0.005 slow;
  check_float_eps 1e-9 "delay added verbatim" (!base +. 0.005) !slow

let partition_drops_and_heals () =
  let eng, net = mk_net () in
  let a = Net.add_node net ~name:"a" in
  let b = Net.add_node net ~name:"b" in
  let c = Net.add_node net ~name:"c" in
  let got = ref [] in
  List.iter (fun n -> Net.listen net n ~port:9 (fun p -> got := p.Packet.src :: !got)) [ a; b; c ];
  (* a | {b, c} *)
  Net.fault net (Net.Partition [ a ]);
  Net.send net (pkt ~src:a ~dst:b);
  Net.send net (pkt ~src:b ~dst:c);
  Engine.run eng;
  check_bool "same-side traffic flows" true (!got = [ b ]);
  check_int "cross traffic dropped" 1 (Net.fault_counts net).Net.partition_drops;
  Net.fault net Net.Heal;
  Net.send net (pkt ~src:a ~dst:b);
  Engine.run eng;
  check_bool "healed" true (List.mem a !got)

let crash_window_silences_node () =
  let eng, net = mk_net () in
  let a = Net.add_node net ~name:"a" in
  let b = Net.add_node net ~name:"b" in
  let got = ref 0 in
  Net.listen net b ~port:9 (fun _ -> incr got);
  Engine.schedule_at eng 1.0 (fun () -> Net.set_node_up net b false);
  Engine.schedule_at eng 2.0 (fun () -> Net.set_node_up net b true);
  Engine.schedule_at eng 1.5 (fun () ->
      check_bool "down inside the window" false (Net.node_up net b);
      Net.send net (pkt ~src:a ~dst:b));
  Engine.schedule_at eng 2.5 (fun () ->
      check_bool "up after the window" true (Net.node_up net b);
      Net.send net (pkt ~src:a ~dst:b));
  Engine.run eng;
  check_int "only post-recovery packet arrives" 1 !got;
  check_int "crash-window loss counted" 1 (Net.fault_counts net).Net.node_drops

let crashed_source_transmits_nothing () =
  let eng, net = mk_net () in
  let a = Net.add_node net ~name:"a" in
  let b = Net.add_node net ~name:"b" in
  let got = ref 0 in
  Net.listen net b ~port:9 (fun _ -> incr got);
  Net.set_node_up net a false;
  Net.send net (pkt ~src:a ~dst:b);
  Engine.run eng;
  check_int "nothing delivered" 0 !got;
  check_int "counted as node drop" 1 (Net.fault_counts net).Net.node_drops

let faultfree_runs_identical () =
  (* the fault layer must not perturb the PRNG stream of a run that
     never matches: same seed and loss, same delivery times *)
  let once ~faults =
    let eng, net = mk_net ~seed:3 () in
    Net.fault net (Net.Loss 0.2);
    let a = Net.add_node net ~name:"a" in
    let b = Net.add_node net ~name:"b" in
    if faults then Net.fault net (link ~src:b ~dst:a ~drop:1.0 ());
    let log = ref [] in
    Net.listen net b ~port:9 (fun _ -> log := Engine.now eng :: !log);
    for _ = 1 to 50 do
      Net.send net (pkt ~src:a ~dst:b)
    done;
    Engine.run eng;
    !log
  in
  check_bool "iid loss pattern unchanged by unrelated fault rules" true
    (once ~faults:false = once ~faults:true)

(* ---- the fault schedule ---- *)

let small_ensemble () =
  Ensemble.create { Ensemble.default_config with storage_nodes = 2; smallfile_servers = 0 }

(* Two bare nodes on the ensemble's LAN that count what reaches them. *)
let probes ens =
  let net = Ensemble.net ens in
  let a = Net.add_node net ~name:"probe-a" in
  let b = Net.add_node net ~name:"probe-b" in
  let got = ref 0 in
  List.iter (fun n -> Net.listen net n ~port:9 (fun _ -> incr got)) [ a; b ];
  (a, b, got)

(* Due actions apply inside [install], before any packet moves: a packet
   sent the moment [install] returns already meets the partition, and a
   crash due at 0 has happened. *)
let due_actions_apply_at_once () =
  let ens = small_ensemble () in
  let net = Ensemble.net ens in
  let a, b, _ = probes ens in
  Fault.install ens [ (0.0, Net (Net.Partition [ a ])); (0.0, Crash (Server (Storage, 1))) ];
  Net.send net (pkt ~src:a ~dst:b);
  check_int "partition already in force" 1 (Net.fault_counts net).Net.partition_drops;
  check_bool "crash already applied" false (Ensemble.is_up ens Storage 1);
  Ensemble.run ens;
  (* The journal writers too: with a directory server's and the
     coordinator's journals non-empty, their due crashes apply outside
     any fiber and take no simulated time. *)
  let ens = small_ensemble () in
  let eng = Ensemble.engine ens in
  let coord =
    match Ensemble.coordinator ens with Some c -> c | None -> Alcotest.fail "no coordinator"
  in
  let host, _ = Ensemble.add_client ens ~name:"writer" in
  let cl = Client.create host ~server:(Ensemble.virtual_addr ens) () in
  run_on eng (fun () ->
      let fh, _ = ok_or_fail "create" (Client.create_file cl Ensemble.root "doomed") in
      ignore (ok_or_fail "write" (Client.write_at cl fh ~off:0L ~data:(Nfs.Data "bytes") ()));
      ignore (ok_or_fail "remove" (Client.remove cl Ensemble.root "doomed")));
  check_bool "the coordinator journaled an intent" true (Coordinator.intents_logged coord > 0);
  let t0 = Engine.now eng in
  Fault.install ens [ (t0, Crash Coordinator) ];
  check_bool "coordinator down" false (Tenure.is_up (Coordinator.tenure coord));
  Fault.install ens [ (t0, Crash (Server (Dir, 0))) ];
  check_bool "directory server down" false (Ensemble.is_up ens Dir 0);
  check_float "no simulated time spent" t0 (Engine.now eng);
  Ensemble.run ens

(* One instant's actions apply in list order, each on the state the one
   before it left: a crash then a recover leaves the server up, and of
   three partition changes the last one holds. *)
let one_instant_in_list_order () =
  let ens = small_ensemble () in
  let eng = Ensemble.engine ens in
  let net = Ensemble.net ens in
  let a, b, got = probes ens in
  let coord =
    match Ensemble.coordinator ens with Some c -> c | None -> Alcotest.fail "no coordinator"
  in
  Fault.install ens
    [
      (1.0, Crash (Server (Storage, 1)));
      (1.0, Recover (Server (Storage, 1)));
      (1.0, Recover (Server (Storage, 0)));
      (1.0, Crash (Server (Storage, 0)));
      (1.0, Crash Coordinator);
      (1.0, Recover Coordinator);
      (1.0, Net (Net.Partition [ a ]));
      (1.0, Net Net.Heal);
      (1.0, Net (Net.Partition [ b ]));
    ];
  Engine.schedule_at eng 0.5 (fun () ->
      check_bool "nothing before its time" true (Ensemble.is_up ens Storage 0));
  Engine.schedule_at eng 1.5 (fun () ->
      check_bool "crash then recover: up" true (Ensemble.is_up ens Storage 1);
      check_bool "recover then crash: down" false (Ensemble.is_up ens Storage 0);
      check_bool "coordinator crashed and recovered" true (Tenure.is_up (Coordinator.tenure coord));
      Net.send net (pkt ~src:a ~dst:b));
  Engine.run eng;
  check_int "the last partition holds" 0 !got;
  check_int "one partition drop" 1 (Net.fault_counts net).Net.partition_drops

(* A schedule is checked whole before anything applies. *)
let bad_schedule_rejected () =
  let ens = small_ensemble () in
  let crash = Fault.Crash (Server (Storage, 1)) in
  let rejected label schedule =
    Alcotest.check_raises label
      (Invalid_argument "Fault.install: times negative or out of order") (fun () ->
        Fault.install ens schedule)
  in
  rejected "out of order" [ (0.0, crash); (2.0, crash); (1.0, crash) ];
  rejected "negative time" [ (-1.0, crash) ];
  rejected "not a number" [ (Float.nan, crash) ];
  check_bool "no prefix applied" true (Ensemble.is_up ens Storage 1)

(* The paper's soft-state claim as a schedule: a client µproxy that loses
   every cache and pending record, again and again mid-workload, costs
   the client nothing it can see. *)
let soft_state_loss_mid_run () =
  let once schedule =
    let ens = small_ensemble () in
    let eng = Ensemble.engine ens in
    let host, proxy = Ensemble.add_client ens ~name:"forgetful" in
    let cl = Client.create host ~server:(Ensemble.virtual_addr ens) () in
    Fault.install ens schedule;
    run_on eng (fun () ->
        for i = 1 to 30 do
          let name = Printf.sprintf "s%02d" i in
          let fh, _ = ok_or_fail "create" (Client.create_file cl Ensemble.root name) in
          ignore (ok_or_fail "write" (Client.write_at cl fh ~off:0L ~data:(Nfs.Data name) ()));
          ignore (ok_or_fail "lookup" (Client.lookup cl Ensemble.root name));
          match ok_or_fail "read" (Client.read_at cl fh ~off:0L ~count:3) with
          | Nfs.Data d, _ -> check_string "bytes survive" name d
          | _ -> Alcotest.fail "synthetic"
        done;
        check_bool "the discards landed mid-run" true (Engine.now eng > 0.01));
    check_int "no client-visible errors" 0 (Client.errors cl);
    check_int "pending empty at quiesce" 0 (Proxy.pending_size proxy);
    (Proxy.meta_cache_stats proxy).Proxy.hits
  in
  let kept = once [] in
  let lost =
    once (List.init 20 (fun i -> (0.0005 *. float_of_int (i + 1), Fault.Discard_soft_state 0)))
  in
  check_bool "the discards cost cache hits" true (lost < kept)

(* Two clients create 300 files each in their own directory over two
   name-hashed directory servers; dir 0 crashes at [at] and recovers
   0.5 s later. The µproxy's name cache is off: its lease would answer
   the lookups for a lost entry. Returns the creates answered OK, the
   directories and the count of creates answered with an error, filled
   in as the engine runs. *)
let crash_during_creates at =
  let ens =
    Ensemble.create
      {
        Ensemble.default_config with
        dir_servers = 2;
        proxy_params =
          { Slice.Params.default with name_policy = Slice.Params.Name_hashing; meta_cache_ttl = 0.0 };
      }
  in
  let eng = Ensemble.engine ens in
  Fault.install ens [ (at, Crash (Server (Dir, 0))); (at +. 0.5, Recover (Server (Dir, 0))) ];
  let clients =
    List.init 2 (fun i ->
        let host, _ = Ensemble.add_client ens ~name:(Printf.sprintf "c%d" i) in
        Client.create host ~server:(Ensemble.virtual_addr ens) ())
  in
  let acked = ref [] and dirs = ref [] and errors = ref 0 in
  List.iteri
    (fun i cl ->
      Engine.spawn eng (fun () ->
          let d, _ = ok_or_fail "mkdir" (Client.mkdir cl Ensemble.root (Printf.sprintf "d%d" i)) in
          dirs := (cl, d) :: !dirs;
          for k = 1 to 300 do
            let name = Printf.sprintf "f%03d" k in
            match Client.create_file cl d name with
            | Ok _ -> acked := (cl, d, name) :: !acked
            | Error _ -> incr errors
          done))
    clients;
  (ens, eng, acked, dirs, errors)

(* A create parked in the journal's group commit when its directory
   server crashes was never made durable, so it must not be answered:
   the client retransmits after recovery and the create runs again.
   Every create answered OK must then resolve, and each directory must
   list all 300. At 0.0475, 0.0605 and 0.088 s a create's round is in
   flight when the crash comes; a sync that returned from that dropped
   round would lose one create at each. The other instants lost a
   create to a crash that rebuilt the journal on disk while a create
   parked in the old one. *)
let dir_crash_keeps_acked_creates () =
  let run at =
    let _, eng, acked, dirs, _ = crash_during_creates at in
    Engine.run eng;
    check_int (Printf.sprintf "crash at %g: every create answered" at) 600 (List.length !acked);
    run_on eng (fun () ->
        let lost =
          List.filter (fun (cl, d, name) -> Result.is_error (Client.lookup cl d name)) !acked
        in
        check_int (Printf.sprintf "crash at %g: acknowledged creates lost" at) 0 (List.length lost);
        List.iter
          (fun (cl, d) ->
            match Client.readdir_all cl d with
            | Ok entries -> check_int (Printf.sprintf "crash at %g: listing" at) 300 (List.length entries)
            | Error st -> Alcotest.failf "readdir: %s" (Nfs.status_name st))
          !dirs)
  in
  List.iter run [ 0.0203; 0.0407; 0.0475; 0.0507; 0.0605; 0.0611; 0.0713; 0.0809; 0.088 ]

(* Error answers and directories whose attribute size disagrees with
   their listing after [crash_during_creates at] has run to the end. *)
let crash_outcome at =
  let _, eng, _, dirs, errors = crash_during_creates at in
  Engine.run eng;
  run_on eng (fun () ->
      let drifted (cl, d) =
        match (Client.getattr cl d, Client.readdir_all cl d) with
        | Ok a, Ok entries -> Int64.to_int a.Nfs.size / 24 <> List.length entries
        | _ -> true
      in
      (!errors, List.length (List.filter drifted !dirs)))

(* A create lands its entry and its parent's count in one journal round,
   so a crash keeps both or neither: no retransmission finds its own
   entry and answers EXIST, and no directory's count drifts from its
   listing. At each of these instants the entry used to land one round
   before the count. *)
let dir_crash_lands_whole_creates () =
  List.iter
    (fun at ->
      let errors, drifted = crash_outcome at in
      check_int (Printf.sprintf "crash at %g: error answers" at) 0 errors;
      check_int (Printf.sprintf "crash at %g: drifted directories" at) 0 drifted)
    [ 0.0249; 0.0366; 0.0388; 0.0408; 0.0504; 0.0561; 0.0610; 0.0622; 0.0635; 0.0711; 0.0823 ]

(* The same over every 0.1 ms from 0.0200 to 0.0900 s (701 instants,
   outside [dune runtest]: [dune build @crash-sweep]). Prints the totals
   and each instant that failed; false when any did. *)
let crash_sweep () =
  let bad = ref 0 and errors = ref 0 and drifted = ref 0 in
  for i = 200 to 900 do
    let at = float_of_int i /. 10000. in
    let e, d = crash_outcome at in
    if e + d > 0 then begin
      incr bad;
      Printf.printf "crash at %.4f: %d error answers, %d drifted directories\n" at e d
    end;
    errors := !errors + e;
    drifted := !drifted + d
  done;
  Printf.printf "crash sweep: 701 instants, %d error answers, %d drifted directories\n" !errors
    !drifted;
  !bad = 0

(* A crash is fail-stop and silent: a create admitted just before it,
   still waiting for the CPU, must not run on the tables the crash
   reset. Dir 0's journal may not grow from the crash until just before
   its recovery. At each of these instants a create was in its CPU
   charge when the crash came. *)
let crashed_dir_server_stays_silent () =
  let run at =
    let ens, eng, _, _, _ = crash_during_creates at in
    let dir0 = (Ensemble.dirs ens).(0) in
    let at_crash = ref 0 and later = ref 0 in
    (* scheduled after the crash's own event, so it runs once the crash
       has applied *)
    Engine.schedule_at eng at (fun () ->
        Engine.spawn eng (fun () ->
            check_bool (Printf.sprintf "crash at %g: down" at) false (Ensemble.is_up ens Dir 0);
            at_crash := Dirserver.log_bytes dir0));
    Engine.schedule_at eng (at +. 0.49) (fun () -> later := Dirserver.log_bytes dir0);
    Engine.run eng;
    check_int (Printf.sprintf "crash at %g: journal bytes written while down" at) 0
      (!later - !at_crash)
  in
  List.iter run [ 0.0203; 0.020457; 0.0407; 0.0507; 0.0605; 0.0713; 0.0809 ]

(* The coordinator's host stays up when the coordinator alone crashes,
   so a message admitted just before the crash must be silenced by the
   coordinator itself. [msg] goes to a coordinator with one storage node
   beside it, and the coordinator crashes at the first microsecond tick
   at which [due] holds; no answer may come. *)
let crashed_coordinator_answers_nothing ~due msg =
  let eng = Engine.create () in
  let net = Net.create eng () in
  let chost = Host.create net ~name:"coord" ~disks:1 () in
  let coord = Coordinator.attach chost () in
  let node = Obsd.attach (Host.create net ~name:"node" ~cpu_scale:1.6 ~disks:8 ()) () in
  let rpc = Rpc.create net (Host.create net ~name:"cl" ()).Host.addr ~port:1000 in
  let rec watch () =
    Engine.schedule eng 1e-6 (fun () -> if due chost coord then Coordinator.crash coord else watch ())
  in
  watch ();
  run_on eng (fun () ->
      let xid = Rpc.fresh_xid rpc in
      match
        Rpc.call rpc ~timeout:0.2 ~retries:1 ~dst:(Coordinator.addr coord)
          ~dport:Ctrl.port
          (Ctrl.encode_msg ~xid (msg (Obsd.addr node)))
      with
      | (_ : bytes) -> Alcotest.fail "a crashed coordinator answered"
      | exception Rpc.Timeout -> ());
  coord

let fh42 = { Fh.file_id = 42L; gen = 1; ftype = Fh.Reg; mirrored = false; attr_site = 0; cap = 0L }

(* The crash comes 1 µs into the Intent's CPU charge: the intent is
   neither logged nor acknowledged. *)
let crashed_coordinator_stays_silent () =
  let before = ref (-1) in
  let coord =
    crashed_coordinator_answers_nothing
      ~due:(fun host _ ->
        let served = Slice_sim.Resource.served host.Host.cpu in
        if !before < 0 then before := served;
        served > !before)
      (fun _ -> Ctrl.Intent { op_id = 5L; kind = Ctrl.K_remove; fh = fh42; participants = [||] })
  in
  check_int "no intent logged" 0 (Coordinator.intents_logged coord)

(* The crash comes once a remove's intent is stable, while its call to
   the storage node is in flight: the intent stays logged, for redo
   after recovery, but the remove is not acknowledged. *)
let coordinator_crash_mid_fan_out () =
  let coord =
    crashed_coordinator_answers_nothing
      ~due:(fun _ coord -> Coordinator.intents_logged coord > 0)
      (fun node -> Ctrl.Remove_file { fh = fh42; sites = [| node |] })
  in
  check_int "the intent was logged" 1 (Coordinator.intents_logged coord)

(* ---- RPC exponential backoff ---- *)

let backoff_schedule () =
  let eng, net = mk_net () in
  let a = Net.add_node net ~name:"a" in
  let b = Net.add_node net ~name:"b" in
  let rpc = Rpc.create net a ~port:50 in
  run_on eng (fun () ->
      (* no listener on b: every attempt times out. Waits are
         0.1, 0.2, 0.4, 0.8 seconds, each with at most +10% jitter. *)
      let t0 = Engine.now eng in
      let payload = Bytes.create 8 in
      Bytes.set_int32_be payload 0 (Int32.of_int (Rpc.fresh_xid rpc));
      (try
         ignore (Rpc.call rpc ~timeout:0.1 ~retries:3 ~dst:b ~dport:9 payload);
         Alcotest.fail "expected Rpc.Timeout"
       with Rpc.Timeout -> ());
      let elapsed = Engine.now eng -. t0 in
      check_bool "at least the base schedule" true (elapsed >= 1.5 -. 1e-9);
      check_bool "at most +10% jitter" true (elapsed <= 1.65 +. 1e-9);
      check_int "three retransmissions" 3 (Rpc.retransmissions rpc);
      check_int "one exhausted call" 1 (Rpc.timeouts rpc);
      check_int "no pending entry leaked" 0 (Rpc.pending_calls rpc);
      let s = Rpc.endpoint_stats rpc b in
      check_bool "per-endpoint counters" true
        (s.Rpc.calls = 1 && s.Rpc.retransmits = 3 && s.Rpc.timeouts = 1);
      let z = Rpc.endpoint_stats rpc 999 in
      check_bool "unknown endpoint all zero" true
        (z.Rpc.calls = 0 && z.Rpc.retransmits = 0 && z.Rpc.timeouts = 0))

let backoff_cap () =
  let eng, net = mk_net () in
  let a = Net.add_node net ~name:"a" in
  let b = Net.add_node net ~name:"b" in
  let rpc = Rpc.create net a ~port:50 in
  run_on eng (fun () ->
      (* cap at max_timeout: 0.5, 1.0, 2.0, 2.0, 2.0 -> base total 7.5 *)
      let t0 = Engine.now eng in
      let payload = Bytes.create 8 in
      Bytes.set_int32_be payload 0 (Int32.of_int (Rpc.fresh_xid rpc));
      (try ignore (Rpc.call rpc ~timeout:0.5 ~retries:4 ~dst:b ~dport:9 payload)
       with Rpc.Timeout -> ());
      let elapsed = Engine.now eng -. t0 in
      check_bool "capped schedule lower bound" true (elapsed >= 7.5 -. 1e-9);
      check_bool "capped schedule upper bound" true (elapsed <= 8.25 +. 1e-9))

(* ---- µproxy pending sweep ---- *)

let dead_node_expires_pending () =
  let ens =
    Ensemble.create
      { Ensemble.default_config with storage_nodes = 2; smallfile_servers = 0 }
  in
  let eng = Ensemble.engine ens in
  let net = Ensemble.net ens in
  let host, proxy = Ensemble.add_client ens ~name:"giveup" in
  let rpc = Rpc.create net host.Host.addr ~port:5000 in
  (* both storage nodes dead: a bulk read can never be answered *)
  Fault.install ens [ (0.0, Crash (Server (Storage, 0))); (0.0, Crash (Server (Storage, 1))) ];
  run_on eng (fun () ->
      let fh =
        { Fh.file_id = 42L; gen = 1; ftype = Fh.Reg; mirrored = false; attr_site = 0; cap = 0L }
      in
      let xid = Rpc.fresh_xid rpc in
      let payload = Codec.encode_call ~xid (Nfs.Read (fh, 0L, 1000)) in
      (try
         ignore
           (Rpc.call rpc ~timeout:0.05 ~retries:2 ~dst:(Ensemble.virtual_addr ens) ~dport:2049
              payload);
         Alcotest.fail "expected Rpc.Timeout"
       with Rpc.Timeout -> ());
      (* the client gave up; its record is stranded in the µproxy *)
      check_int "record stranded" 1 (Proxy.pending_size proxy);
      (* the µproxy expires a record 10 s after its last refresh *)
      Engine.sleep eng 13.0;
      check_int "sweep reaped it" 0 (Proxy.pending_size proxy);
      check_bool "reap counted" true (Proxy.expired_pending proxy >= 1));
  (* the sweep disarms once pending is empty, so the run above terminated *)
  check_int "rpc side clean too" 0 (Rpc.pending_calls rpc)

(* A COMMIT whose small-file server is down: the µproxy's commit fan-out
   times out, and the client hears an error instead of the run dying
   with the fan-out's [Rpc.Timeout]. The client's retransmissions of
   the COMMIT arrive while that fan-out runs and join it: one fan-out
   answers them all. *)
let commit_to_dead_smallfile () =
  let ens = Ensemble.create { Ensemble.default_config with smallfile_servers = 2 } in
  let eng = Ensemble.engine ens in
  let host, proxy = Ensemble.add_client ens ~name:"committer" in
  let cl = Client.create host ~server:(Ensemble.virtual_addr ens) () in
  let result = ref None in
  Fault.install ens
    [ (1.0, Crash (Server (Smallfile, 0))); (1.0, Crash (Server (Smallfile, 1))) ];
  run_on eng (fun () ->
      let fh, _ = ok_or_fail "create" (Client.create_file cl Ensemble.root "small") in
      ignore (ok_or_fail "write" (Client.write_at cl fh ~off:0L ~data:(Nfs.Synthetic 4096) ()));
      check_bool "written before the crash" true (Engine.now eng < 1.0);
      Engine.sleep eng (1.5 -. Engine.now eng);
      result := Some (Client.commit cl fh));
  (match !result with
  | Some r -> expect_err "commit to a dead small-file server" Nfs.ERR_IO r
  | None -> Alcotest.fail "the commit never returned");
  check_int "one fan-out for the COMMIT and its retransmissions" 1
    (Proxy.commits_orchestrated proxy)

(* A REMOVE while storage node 0, the coordinator's host, is down: the
   directory server answers the client, then asks the coordinator to
   remove the file's data from a fiber of its own. That call times out,
   and the timeout must end the fiber, not the run. The data itself
   stays orphaned: remove logs no intent yet (ROADMAP item 10, stage
   A). *)
let remove_with_coordinator_host_down () =
  let ens = small_ensemble () in
  let eng = Ensemble.engine ens in
  let host, _proxy = Ensemble.add_client ens ~name:"remover" in
  let cl = Client.create host ~server:(Ensemble.virtual_addr ens) () in
  Fault.install ens [ (1.0, Crash (Server (Storage, 0))) ];
  run_on eng (fun () ->
      let fh, _ = ok_or_fail "create" (Client.create_file cl Ensemble.root "doomed") in
      ignore (ok_or_fail "write" (Client.write_at cl fh ~off:0L ~data:(Nfs.Synthetic 65536) ()));
      check_bool "written before the crash" true (Engine.now eng < 1.0);
      Engine.sleep eng (1.5 -. Engine.now eng);
      ok_or_fail "remove" (Client.remove cl Ensemble.root "doomed"));
  check_bool "the run outlived the coordinator call's timeout" true (Engine.now eng > 10.0)

(* ---- mirrored writes must not mask a replica failure ---- *)

let mirror_failure_not_masked () =
  let eng = Engine.create () in
  let net = Net.create eng ~seed:4 () in
  let vaddr = Net.add_node net ~name:"virtual" in
  let dirnode = Net.add_node net ~name:"dir-unused" in
  let s0 = Host.create net ~name:"s0" ~disks:1 () in
  let s1 = Host.create net ~name:"s1" ~disks:1 () in
  (* replica 0 demands sealed capability handles; replica 1 does not: an
     unsealed handle fails on exactly one replica of the pair *)
  let _o0 = Obsd.attach s0 ~cap_secret:"secret" () in
  let _o1 = Obsd.attach s1 ~sites:[ 1 ] () in
  let ch = Host.create net ~name:"client" () in
  let _proxy =
    Proxy.install ch
      {
        Proxy.virtual_addr = vaddr;
        dir_table = Table.create [| dirnode |];
        smallfile_table = None;
        storage = Some (Table.create [| s0.Host.addr; s1.Host.addr |]);
        coordinator = (fun () -> None);
      }
  in
  let cl = Client.create ch ~server:vaddr () in
  run_on eng (fun () ->
      let fh =
        { Fh.file_id = 7L; gen = 1; ftype = Fh.Reg; mirrored = true; attr_site = 0; cap = 0L }
      in
      (* one replica acks OK, the other NFS3ERR_PERM: the client must see
         the failure, whichever replica answers last *)
      expect_err "worst mirror status forwarded" Nfs.ERR_PERM
        (Client.write_at cl fh ~off:0L ~data:(Nfs.Data "payload") ()))

(* ---- chaos: real workloads under loss and crash ---- *)

let clean_run_is_quiet () =
  let r = Chaos.run Chaos.Untar [] in
  check_int "no errors" 0 r.Chaos.errors;
  check_int "no retransmissions" 0 r.Chaos.retransmissions;
  check_int "no expiries" 0 r.Chaos.expired_pending;
  check_int "no fault drops" 0 r.Chaos.fault_drops;
  check_int "pending empty at quiesce" 0 r.Chaos.pending_at_quiesce;
  check_bool "work actually ran" true (r.Chaos.ops > 1000)

let untar_under_loss () =
  List.iter
    (fun drop ->
      let r = Chaos.run Chaos.Untar [ (0.0, Net (Net.Loss drop)) ] in
      let tag = Printf.sprintf "%.0f%% loss:" (drop *. 100.0) in
      check_int (tag ^ " zero lost operations") 0 r.Chaos.errors;
      check_int (tag ^ " pending empty at quiesce") 0 r.Chaos.pending_at_quiesce;
      check_bool (tag ^ " loss actually bit") true (r.Chaos.packets_dropped > 0);
      check_bool (tag ^ " recovery by retransmission") true (r.Chaos.retransmissions > 0))
    [ 0.01; 0.03; 0.05 ]

let untar_with_node_crash () =
  (* untar traffic is all name operations: the dir server is the victim *)
  let r = Chaos.run Chaos.Untar (snd (chaos_row "untar, 2% loss + dir crash")) in
  check_int "zero lost operations" 0 r.Chaos.errors;
  check_int "pending empty at quiesce" 0 r.Chaos.pending_at_quiesce;
  check_bool "crash actually bit" true (r.Chaos.fault_drops > 0);
  check_bool "recovery by retransmission" true (r.Chaos.retransmissions > 0)

let specsfs_with_node_crash () =
  let w, schedule = chaos_row "specsfs, loss + storage crash" in
  check_bool "a specsfs row" true (w = Chaos.Specsfs);
  let r = Chaos.run w schedule in
  check_int "zero lost operations" 0 r.Chaos.errors;
  check_int "pending empty at quiesce" 0 r.Chaos.pending_at_quiesce;
  check_bool "work actually ran" true (r.Chaos.ops > 100);
  check_bool "crash actually bit" true (r.Chaos.fault_drops > 0);
  check_bool "recovery by retransmission" true (r.Chaos.retransmissions > 0)

(* regression: a coordinator redo whose fan-out times out used to retire
   the intent anyway after the first probe — a participant behind a
   partition never saw its redo. The redo must re-arm the probe and only
   retire once every participant acks. *)
let coordinator_redo_waits_for_partition_heal () =
  let eng = Engine.create () in
  let net = Net.create eng () in
  let hosts =
    Array.init 2 (fun i ->
        Host.create net ~name:(Printf.sprintf "cs%d" i) ~cpu_scale:1.6 ~disks:8 ())
  in
  let obsds = Array.map (fun h -> Obsd.attach h ()) hosts in
  let coord =
    Coordinator.attach hosts.(0) ~probe_timeout:0.2
      ~map_sites:(Array.map (fun (h : Host.t) -> h.Host.addr) hosts)
      ()
  in
  let client = Host.create net ~name:"cl" () in
  let rpc = Rpc.create net client.Host.addr ~port:1000 in
  let victim = hosts.(1).Host.addr in
  let fh =
    { Fh.file_id = 42L; gen = 1; ftype = Fh.Reg; mirrored = false; attr_site = 0; cap = 0L }
  in
  run_on eng (fun () ->
      (* seed the object on the victim, then cut it off *)
      let xid = Rpc.fresh_xid rpc in
      ignore
        (Rpc.call rpc ~dst:victim ~dport:2049
           (Codec.encode_call ~xid (Nfs.Write (fh, 0L, Nfs.Unstable, Nfs.Data "zz"))));
      Net.fault net (Net.Partition [ victim ]);
      (* log a remove intent whose completion never arrives *)
      let xid = Rpc.fresh_xid rpc in
      (match
           (Ctrl.decode_reply
              (Rpc.call rpc ~timeout:2.0 ~dst:(Coordinator.addr coord)
                 ~dport:Ctrl.port
                 (Ctrl.encode_msg ~xid
                    (Ctrl.Intent
                       { op_id = 99L; kind = Ctrl.K_remove; fh; participants = [| victim |] }))))
       with
      | Ctrl.Ack -> ()
      | _ -> Alcotest.fail "intent not acked");
      Engine.sleep eng 1.0;
      (* the first probe fired into the partition: it must keep the intent *)
      check_bool "redo attempted" true (Coordinator.redos coord >= 1);
      check_int "intent survives failed redo" 1 (Coordinator.pending_intents coord);
      check_bool "victim untouched behind partition" true
        (Obsd.object_size obsds.(1) fh <> None);
      Net.fault net Net.Heal;
      Engine.sleep eng 6.0;
      check_int "intent retired after heal" 0 (Coordinator.pending_intents coord);
      check_bool "remove reached the participant" true (Obsd.object_size obsds.(1) fh = None))

(* ---- failover: coordinator crash mid-2PC ---- *)

(* regression: the block coordinator used to be pinned to storage node 0
   — crashing that node stalled every commit until the node itself came
   back. A peer storage host must be able to open the victim's intention
   log in place and finish the in-flight 2PC, and a successor that
   crashes and recovers after adopting must not resurrect retired
   intents. *)
let coordinator_takeover_completes_2pc () =
  let eng = Engine.create () in
  let net = Net.create eng () in
  let hosts =
    Array.init 2 (fun i ->
        Host.create net ~name:(Printf.sprintf "cs%d" i) ~cpu_scale:1.6 ~disks:8 ())
  in
  let obsds = Array.map (fun h -> Obsd.attach h ()) hosts in
  let map_sites = Array.map (fun (h : Host.t) -> h.Host.addr) hosts in
  let coord = Coordinator.attach hosts.(0) ~probe_timeout:0.2 ~map_sites () in
  let client = Host.create net ~name:"cl" () in
  let rpc = Rpc.create net client.Host.addr ~port:1000 in
  let participant = hosts.(1).Host.addr in
  let fh =
    { Fh.file_id = 42L; gen = 1; ftype = Fh.Reg; mirrored = false; attr_site = 0; cap = 0L }
  in
  run_on eng (fun () ->
      (* seed the object on the participant *)
      let xid = Rpc.fresh_xid rpc in
      ignore
        (Rpc.call rpc ~dst:participant ~dport:2049
           (Codec.encode_call ~xid (Nfs.Write (fh, 0L, Nfs.Unstable, Nfs.Data "zz"))));
      (* log a remove intent, then kill the coordinator before its redo
         can complete the operation *)
      let xid = Rpc.fresh_xid rpc in
      (match
           (Ctrl.decode_reply
              (Rpc.call rpc ~timeout:2.0 ~dst:(Coordinator.addr coord)
                 ~dport:Ctrl.port
                 (Ctrl.encode_msg ~xid
                    (Ctrl.Intent
                       { op_id = 7L; kind = Ctrl.K_remove; fh; participants = [| participant |] }))))
       with
      | Ctrl.Ack -> ()
      | _ -> Alcotest.fail "intent not acked");
      check_int "intent in flight" 1 (Coordinator.pending_intents coord);
      Coordinator.crash coord;
      (* the standby on the surviving peer opens the victim's log on
         shared storage *)
      let coord' = Coordinator.attach hosts.(1) ~probe_timeout:0.2 ~map_sites () in
      ignore (Coordinator.adopt_log coord' ~from:coord);
      Engine.sleep eng 2.0;
      check_int "adopted intent retired" 0 (Coordinator.pending_intents coord');
      check_bool "redo ran on the new coordinator" true (Coordinator.redos coord' >= 1);
      check_bool "remove reached the participant" true (Obsd.object_size obsds.(1) fh = None);
      (* the successor journals into the log it opened: a crash and a
         recovery after adopting must not resurrect retired intents *)
      Coordinator.crash coord';
      Coordinator.recover coord';
      Engine.sleep eng 1.0;
      check_int "recovery resurrects nothing" 0 (Coordinator.pending_intents coord'))

(* ---- failover: detector false positive under partition ---- *)

(* A partitioned-but-alive manager is indistinguishable from a dead one.
   The detector will declare it and promote a standby — that is fine,
   PROVIDED exactly one side of the split serves: the donor must have
   self-wedged (lease expiry) strictly before the standby claims its
   sites, and must stay fenced after the partition heals until it is
   explicitly rejoined. *)
let failover_partition_false_positive () =
  let module Fo = Slice_failover.Failover in
  let module Reconfig = Slice_reconfig.Reconfig in
  let module Dirserver = Slice_dir.Dirserver in
  let ens =
    Ensemble.create
      { Ensemble.default_config with storage_nodes = 2; smallfile_servers = 0; dir_servers = 2; seed = 5 }
  in
  let eng = Ensemble.engine ens in
  let net = Ensemble.net ens in
  let rc = Reconfig.attach ens in
  let fo = Fo.attach ens rc in
  let ch, _ = Ensemble.add_client ens ~name:"c0" in
  let cl = Client.create ch ~server:(Ensemble.virtual_addr ens) () in
  run_on eng (fun () ->
      let names = List.init 8 (Printf.sprintf "p%02d") in
      List.iter
        (fun n -> ignore (ok_or_fail "create" (Client.create_file cl Ensemble.root n)))
        names;
      let dirs = Ensemble.dirs ens in
      let victim = Ensemble.server_addr ens Dir 0 in
      (* dir 0 is cut off but NOT dead: renewals stop, the detector
         declares it, a standby takes over — a false positive by design *)
      now ens (Net (Net.Partition [ victim ]));
      Engine.sleep eng 1.0;
      check_int "false positive declared and replaced" 1 (Fo.takeovers fo);
      check_bool "donor self-wedged behind the partition" true (Tenure.wedged (Dirserver.tenure dirs.(0)) ~now:(Engine.now eng));
      check_bool "deposed list names the donor" true (Fo.deposed fo = [ "dir0" ]);
      (* the majority side serves the full namespace meanwhile *)
      List.iter
        (fun n -> ignore (ok_or_fail "lookup during partition" (Client.lookup cl Ensemble.root n)))
        names;
      now ens (Net Net.Heal);
      (* healed zombie: still fenced — a mutation sent straight to it
         bounces and leaves no trace *)
      let zh = Host.create net ~name:"zprobe" () in
      let zc = Client.create zh ~server:victim () in
      let before = Tenure.fence_bounces (Dirserver.tenure dirs.(0)) in
      check_bool "zombie refuses updates" true
        (Result.is_error (Client.mkdir zc Ensemble.root "zombie-d"));
      check_bool "zombie bounced, not served" true (Tenure.fence_bounces (Dirserver.tenure dirs.(0)) > before);
      check_bool "phantom directory absent" true
        (Result.is_error (Client.lookup cl Ensemble.root "zombie-d"));
      (* explicit rejoin lifts the fence: the donor returns as a peer *)
      Fo.rejoin fo Dir 0;
      check_bool "rejoined donor unfenced" false (Tenure.wedged (Dirserver.tenure dirs.(0)) ~now:(Engine.now eng));
      List.iter
        (fun n -> ignore (ok_or_fail "lookup after rejoin" (Client.lookup cl Ensemble.root n)))
        names;
      Fo.stop fo)

(* A COMMIT after a directory takeover, while the writer's µproxy still
   routes the file's attribute site to the deposed server, revived and
   fenced by the lease it lost: the attribute write-back bounces off it
   and goes again, after a table refresh, to the server that took the
   site over. The commit's OK then means the new size reached a
   directory server, where a second client, whose µproxy caches
   nothing, reads it. *)
let commit_across_dir_takeover () =
  let module Fo = Slice_failover.Failover in
  let module Reconfig = Slice_reconfig.Reconfig in
  let ens =
    Ensemble.create
      { Ensemble.default_config with storage_nodes = 2; smallfile_servers = 0; dir_servers = 2; seed = 5 }
  in
  let eng = Ensemble.engine ens in
  let rc = Reconfig.attach ens in
  let fo = Fo.attach ens rc in
  let wh, _ = Ensemble.add_client ens ~name:"writer" in
  let writer = Client.create wh ~server:(Ensemble.virtual_addr ens) () in
  let rh, _ = Ensemble.add_client ens ~name:"reader" in
  let reader = Client.create rh ~server:(Ensemble.virtual_addr ens) () in
  run_on eng (fun () ->
      let fh, _ = ok_or_fail "create" (Client.create_file writer Ensemble.root "f") in
      ignore (ok_or_fail "write" (Client.write_at writer fh ~off:0L ~data:(Nfs.Synthetic 65536) ()));
      let owner = Table.lookup (Ensemble.dir_table ens) fh.Fh.attr_site in
      let victim = if Ensemble.server_addr ens Dir 0 = owner then 0 else 1 in
      now ens (Crash (Server (Dir, victim)));
      Engine.sleep eng 1.0;
      check_int "the site was taken over" 1 (Fo.takeovers fo);
      Ensemble.recover ens Dir victim;
      let t0 = Engine.now eng in
      ok_or_fail "commit" (Client.commit writer fh);
      check_bool "the write-back waited out no timeout" true (Engine.now eng -. t0 < 1.0);
      let a = ok_or_fail "getattr at the new owner" (Client.getattr reader fh) in
      check_int "the size reached the new owner" 65536 (Int64.to_int a.Nfs.size);
      Fo.stop fo)

(* A small-file server owns its files' attributes, so committing its
   zones asks no directory server anything. With directory server 0
   down, a client COMMIT of a small file whose attributes live on
   directory server 1 returns at once: only the client's own write-back
   visits a directory server, the live one. *)
let smallfile_commit_skips_dead_dir () =
  let params = { Slice.Params.default with name_policy = Slice.Params.Name_hashing } in
  let ens =
    Ensemble.create
      { Ensemble.default_config with storage_nodes = 2; dir_servers = 2; proxy_params = params }
  in
  let eng = Ensemble.engine ens in
  let host, _ = Ensemble.add_client ens ~name:"committer" in
  let cl = Client.create host ~server:(Ensemble.virtual_addr ens) () in
  let dir1 = Ensemble.server_addr ens Dir 1 in
  run_on eng (fun () ->
      let rec on_dir1 i =
        let fh, _ = ok_or_fail "create" (Client.create_file cl Ensemble.root (Printf.sprintf "f%d" i)) in
        if Table.lookup (Ensemble.dir_table ens) fh.Fh.attr_site = dir1 then fh else on_dir1 (i + 1)
      in
      let fh = on_dir1 0 in
      ignore (ok_or_fail "write" (Client.write_at cl fh ~off:0L ~data:(Nfs.Synthetic 4096) ()));
      now ens (Crash (Server (Dir, 0)));
      let t0 = Engine.now eng in
      let r = try Client.commit cl fh with Rpc.Timeout -> Error Nfs.ERR_IO in
      check_bool "the commit waited on no directory server" true (Engine.now eng -. t0 < 0.5);
      ok_or_fail "commit" r)

(* A coordinator deposed by a takeover (its lease has run out, its host
   is up) answers every control message with a Nack. A client COMMIT
   sent meanwhile asks it to commit the file's storage objects, and the
   small-file server's zone sync that the COMMIT starts asks it to
   commit both zones, once for each zone it commits. Neither takes the
   Nack for done: each goes again, and once a successor holds the role
   it lands there, so the COMMIT answers only after the successor logged
   all five intents. *)
let commit_across_coordinator_takeover () =
  let ens =
    Ensemble.create
      { Ensemble.default_config with storage_nodes = 2; dir_servers = 1; seed = 5 }
  in
  let eng = Ensemble.engine ens in
  let host, _ = Ensemble.add_client ens ~name:"committer" in
  let cl = Client.create host ~server:(Ensemble.virtual_addr ens) () in
  run_on eng (fun () ->
      let fh, _ = ok_or_fail "create" (Client.create_file cl Ensemble.root "f") in
      ignore (ok_or_fail "write" (Client.write_at cl fh ~off:0L ~data:(Nfs.Synthetic 4096) ()));
      let old = Option.get (Ensemble.coordinator ens) in
      Tenure.set_lease (Coordinator.tenure old) ~epoch:1 ~until:(Engine.now eng);
      let successor = ref None and installed = ref infinity in
      Engine.spawn eng (fun () ->
          Engine.sleep eng 0.05;
          let h = Obsd.host (Ensemble.storage ens).(1) in
          let c = Coordinator.attach h ~map_sites:(Coordinator.map_sites old) () in
          ignore (Coordinator.adopt_log c ~from:old);
          Ensemble.replace_coordinator ens c;
          successor := Some c;
          installed := Engine.now eng);
      ok_or_fail "commit" (Client.commit cl fh);
      check_bool "the commit answered after the takeover" true (Engine.now eng >= !installed);
      check_bool "the deposed coordinator refused" true
        (Tenure.fence_bounces (Coordinator.tenure old) >= 3);
      match !successor with
      | None -> Alcotest.fail "no successor"
      | Some c -> check_int "intents at the successor" 5 (Coordinator.intents_logged c))

(* A REMOVE of a renamed file: its entry is at dir 0 and its cell at
   dir 1, whose lease has run out when the link-count update reaches it,
   so dir 1 refuses the update. The lease is renewed 50 ms later. The
   update goes again until dir 1 applies it, so the last link frees the
   cell and the coordinator logs the remove of the file's data. *)
let remove_across_a_wedged_peer () =
  let ens =
    Ensemble.create
      {
        Ensemble.default_config with
        dir_servers = 2;
        smallfile_servers = 0;
        proxy_params = { Slice.Params.default with name_policy = Slice.Params.Name_hashing };
      }
  in
  let eng = Ensemble.engine ens and net = Ensemble.net ens in
  let rpc = Rpc.create net (Host.create net ~name:"cl" ()).Host.addr ~port:1000 in
  let call i c =
    let xid = Rpc.fresh_xid rpc in
    snd
      (Codec.decode_reply
         (Rpc.call rpc ~dst:(Ensemble.server_addr ens Dir i) ~dport:2049 (Codec.encode_call ~xid c)))
  in
  let rec name_at prefix site i =
    let n = prefix ^ string_of_int i in
    if Slice_nfs.Routekey.name_site ~nsites:2 Fh.root n = site then n else name_at prefix site (i + 1)
  in
  let a = name_at "a" 1 0 and b = name_at "b" 0 0 in
  run_on eng (fun () ->
      let fh =
        match call 1 (Nfs.Create (Fh.root, a)) with
        | Ok (Nfs.RCreate (fh, _)) -> fh
        | _ -> Alcotest.fail "create"
      in
      check_int "the cell is at site 1" 1 fh.Fh.attr_site;
      (match call 1 (Nfs.Rename (Fh.root, a, Fh.root, b)) with
      | Ok Nfs.RRename -> ()
      | _ -> Alcotest.fail "rename");
      let coord = Option.get (Ensemble.coordinator ens) in
      let logged = Coordinator.intents_logged coord in
      let tenure = Ensemble.tenure ens Dir 1 in
      Tenure.set_lease tenure ~epoch:1 ~until:(Engine.now eng);
      Engine.spawn eng (fun () ->
          Engine.sleep eng 0.05;
          Tenure.set_lease tenure ~epoch:1 ~until:infinity);
      (match call 0 (Nfs.Remove (Fh.root, b)) with
      | Ok Nfs.RRemove -> ()
      | _ -> Alcotest.fail "remove");
      check_bool "dir 1 refused the update first" true (Tenure.fence_bounces tenure > 0);
      Engine.sleep eng 0.1;
      (match call 1 (Nfs.Getattr fh) with
      | Error st -> expect_err "the last link freed the cell" Nfs.ERR_STALE (Error st)
      | Ok (Nfs.RGetattr a) -> Alcotest.failf "the cell still has %d link(s)" a.Nfs.nlink
      | _ -> Alcotest.fail "getattr");
      check_int "the coordinator logged the remove" (logged + 1) (Coordinator.intents_logged coord))

(* Crashing a storage node crashes the coordinator its host runs. The
   coordinator's call to a dead participant is in flight when its host
   crashes; a successor takes the role on another node, and the host
   comes back 2.5 s later. From the crash on, the deposed instance sends
   nothing from its port, and its expired lease still fences it. *)
let host_crash_silences_its_coordinator () =
  let ens =
    Ensemble.create { Ensemble.default_config with storage_nodes = 3; smallfile_servers = 0 }
  in
  let eng = Ensemble.engine ens and net = Ensemble.net ens in
  let old = Option.get (Ensemble.coordinator ens) in
  let rpc = Rpc.create net (Host.create net ~name:"cl" ()).Host.addr ~port:1000 in
  let ctrl msg =
    let xid = Rpc.fresh_xid rpc in
    Ctrl.decode_reply
      (Rpc.call rpc ~timeout:0.5 ~retries:2 ~dst:(Coordinator.addr old) ~dport:Ctrl.port
         (Ctrl.encode_msg ~xid msg))
  in
  let crashed_at = ref infinity and sent = ref 0 in
  Net.add_egress_filter net (Coordinator.addr old) (fun p ->
      if p.Packet.sport = 2052 && Engine.now eng >= !crashed_at then incr sent;
      Some p);
  run_on eng (fun () ->
      Ensemble.crash ens Storage 2;
      let dead = Ensemble.server_addr ens Storage 2 in
      Engine.spawn eng (fun () ->
          try ignore (ctrl (Ctrl.Remove_file { fh = fh42; sites = [| dead |] }))
          with Rpc.Timeout -> ());
      Engine.sleep eng 0.5;
      check_int "the remove is logged" 1 (Coordinator.intents_logged old);
      Tenure.set_lease (Coordinator.tenure old) ~epoch:1 ~until:(Engine.now eng);
      crashed_at := Engine.now eng;
      Ensemble.crash ens Storage 0;
      let c =
        Coordinator.attach (Ensemble.server_host ens Storage 1)
          ~map_sites:(Coordinator.map_sites old) ()
      in
      ignore (Coordinator.adopt_log c ~from:old);
      Ensemble.replace_coordinator ens c;
      Engine.sleep eng 2.5;
      Ensemble.recover ens Storage 0;
      Engine.sleep eng 20.0;
      check_int "nothing sent from the deposed coordinator's port" 0 !sent;
      check_bool "the deposed coordinator refuses" true (ctrl (Ctrl.Complete { op_id = 0L }) = Ctrl.Nack);
      Ensemble.recover ens Storage 2)

let chaos_deterministic () =
  let w, schedule = chaos_row "untar, 2% loss + dir crash" in
  let r1 = Chaos.run w schedule in
  let r2 = Chaos.run w schedule in
  check_bool "identical seeds, identical chaos" true (compare r1 r2 = 0)

let suite =
  [
    ("link fault drops", `Quick, link_fault_drops);
    ("link fault duplicates", `Quick, link_fault_duplicates);
    ("link fault delay", `Quick, link_fault_delay);
    ("partition drops and heals", `Quick, partition_drops_and_heals);
    ("crash window silences node", `Quick, crash_window_silences_node);
    ("commit to a dead small-file server", `Quick, commit_to_dead_smallfile);
    ("remove with the coordinator's host down", `Quick, remove_with_coordinator_host_down);
    ("crashed source transmits nothing", `Quick, crashed_source_transmits_nothing);
    ("fault-free runs identical", `Quick, faultfree_runs_identical);
    ("schedule: due actions apply at once", `Quick, due_actions_apply_at_once);
    ("schedule: one instant in list order", `Quick, one_instant_in_list_order);
    ("schedule: bad schedule rejected", `Quick, bad_schedule_rejected);
    ("schedule: µproxy soft-state loss mid-run", `Quick, soft_state_loss_mid_run);
    ("dir crash keeps acknowledged creates", `Quick, dir_crash_keeps_acked_creates);
    ("dir crash lands whole creates", `Quick, dir_crash_lands_whole_creates);
    ("crashed dir server stays silent", `Quick, crashed_dir_server_stays_silent);
    ("crashed coordinator stays silent", `Quick, crashed_coordinator_stays_silent);
    ("coordinator crash mid-fan-out", `Quick, coordinator_crash_mid_fan_out);
    ("rpc backoff schedule", `Quick, backoff_schedule);
    ("rpc backoff cap", `Quick, backoff_cap);
    ("dead node expires pending", `Quick, dead_node_expires_pending);
    ("mirror failure not masked", `Quick, mirror_failure_not_masked);
    ("chaos: clean run is quiet", `Slow, clean_run_is_quiet);
    ("chaos: untar under loss", `Slow, untar_under_loss);
    ("coordinator redo waits for partition heal", `Quick, coordinator_redo_waits_for_partition_heal);
    ("coordinator takeover completes 2pc", `Quick, coordinator_takeover_completes_2pc);
    ("failover partition false positive", `Quick, failover_partition_false_positive);
    ("commit across a directory takeover", `Quick, commit_across_dir_takeover);
    ("small-file commit skips a dead directory server", `Quick, smallfile_commit_skips_dead_dir);
    ("commit across a coordinator takeover", `Quick, commit_across_coordinator_takeover);
    ("remove across a wedged peer", `Quick, remove_across_a_wedged_peer);
    ("a host crash silences its coordinator", `Quick, host_crash_silences_its_coordinator);
    ("chaos: untar with node crash", `Slow, untar_with_node_crash);
    ("chaos: specsfs with node crash", `Slow, specsfs_with_node_crash);
    ("chaos: deterministic", `Slow, chaos_deterministic);
  ]
