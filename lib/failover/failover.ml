(* Dataless failover: a lease/heartbeat failure detector plus
   hot-standby takeover for the three manager classes (directory,
   small-file, block coordinator).

   The controller runs on its own host and renews a fencing lease at
   every manager over the simulated network. Each renewal carries the
   expiry time computed at send time, so the controller always knows the
   largest lease it could possibly have granted — even if an ack is
   lost one way. After [miss_limit] consecutive unanswered renewals the
   target is declared dead; before promoting a standby the controller
   waits out that largest grant, so by construction the victim is
   already wedged (bouncing everything with [SLICE_MISDIRECTED]) when
   the takeover's epoch bump publishes. Exactly one side of any
   partition can therefore execute requests: the deposed side loses its
   lease strictly before the surviving side gains the sites.

   Directory and small-file takeovers go through the [Slice_reconfig]
   intent machinery ({!Reconfig.takeover}): per site a Begin intent,
   state rebuild from shared storage (journal opened in place / zone
   images), a table rebind, and a Commit seal — so a standby crash
   mid-takeover is rolled back by {!Reconfig.recover} like any abandoned
   migration.
   Coordinator takeover attaches a fresh coordinator to a surviving
   storage node's host, opens the victim's intention log in place on
   shared storage (redo completes in-flight 2PC), swaps the ensemble's
   endpoint, and advances the storage table's fencing epoch. *)

module Engine = Slice_sim.Engine
module Metrics = Slice_util.Metrics
module Net = Slice_net.Net
module Packet = Slice_net.Packet
module Rpc = Slice_net.Rpc
module Enc = Slice_xdr.Xdr.Enc
module Dec = Slice_xdr.Xdr.Dec
module Host = Slice_storage.Host
module Obsd = Slice_storage.Obsd
module Coordinator = Slice_storage.Coordinator
module Tenure = Slice_storage.Tenure
module Nfs_endpoint = Slice_storage.Nfs_endpoint
module Table = Slice.Table
module Ensemble = Slice.Ensemble
module Reconfig = Slice_reconfig.Reconfig

let lease_port = 2060
let ctl_rpc_port = 2061

(* Renewal period and the consecutive misses that declare a target dead
   (≈ 300 ms detection). One lease lasts just less than the worst-case
   time to accumulate [miss_limit] timeouts (2·heartbeat per miss: sleep
   + timeout), so a donor cut off from renewals is always wedged by
   declaration time. *)
let heartbeat = 0.05
let miss_limit = 3
let lease_dur = ((2. *. float_of_int miss_limit) -. 1.) *. heartbeat

type tclass = Manager of Ensemble.klass * int | Coordinator

type target = {
  tname : string;
  tclass : tclass;
  mutable deposed : bool;
  mutable misses : int;
  mutable suspect_since : float;
  (* Largest lease expiry this controller has ever put on the wire for
     this target. Promotion never starts before it has passed: an ack
     lost on the return path must not let a still-leased donor coexist
     with a promoted standby. *)
  mutable max_granted : float;
}

type event = {
  ev_time : float;
  ev_class : string;
  ev_victim : int;
  ev_standby : int;
  ev_sites : int;
  ev_bytes : int;
  ev_detect : float;
  ev_mttr : float;
}

type t = {
  ens : Ensemble.t;
  rc : Reconfig.t;
  eng : Engine.t;
  net : Net.t;
  rpc : Rpc.t;
  reg : Metrics.t;
  mutable targets : target list;
  mutable events : event list;
  mutable endpoints : Packet.addr list;
  mutable heartbeats : int;
  mutable stopped : bool;
}

(* ---- lease wire protocol (xid, epoch, expiry) ---- *)

let encode_renew ~xid ~epoch ~until =
  let e = Enc.create () in
  Enc.u32 e xid;
  Enc.u32 e epoch;
  Enc.u64 e (Int64.bits_of_float until);
  Enc.to_bytes e

let decode_renew payload =
  match
    let d = Dec.of_bytes payload in
    let xid = Dec.u32 d in
    let epoch = Dec.u32 d in
    let until = Int64.float_of_bits (Dec.u64 d) in
    (xid, epoch, until)
  with
  | v -> Some v
  | exception Slice_xdr.Xdr.Truncated -> None

let encode_ack ~xid =
  let e = Enc.create () in
  Enc.u32 e xid;
  Enc.u32 e 1;
  Enc.to_bytes e

(* One lease endpoint per host; [grant] resolves the resident service at
   delivery time (the coordinator role migrates between hosts) and stays
   silent when it is down — silence is what the detector counts. *)
let install_endpoint t host grant =
  if not (List.mem host.Host.addr t.endpoints) then begin
    t.endpoints <- host.Host.addr :: t.endpoints;
    Nfs_endpoint.serve_raw host ~port:lease_port ~handler:(fun pkt ->
        match decode_renew pkt.Packet.payload with
        | Some (xid, epoch, until) ->
            if grant ~epoch ~until then
              Nfs_endpoint.reply_to host pkt (encode_ack ~xid)
        | None -> ())
  end

(* ---- target plumbing ---- *)

let find_target t tclass = List.find_opt (fun tg -> tg.tclass = tclass) t.targets

let taddr t tg =
  match tg.tclass with
  | Manager (k, i) -> Ensemble.server_addr t.ens k i
  | Coordinator -> (
      match Ensemble.coordinator t.ens with
      | Some c -> (Coordinator.host c).Host.addr
      | None -> -1)

(* The fencing epoch a target's leases carry: its class table's. The
   coordinator role fences under the storage table. *)
let class_epoch t k =
  match Ensemble.table t.ens k with Some tbl -> Table.epoch tbl | None -> 1

let current_epoch t tg =
  class_epoch t (match tg.tclass with Manager (k, _) -> k | Coordinator -> Ensemble.Storage)

let is_deposed t tclass =
  match find_target t tclass with Some tg -> tg.deposed | None -> false

(* ---- standby selection: least-loaded live peer, lowest index wins ---- *)

let pick_standby ~n ~victim ~live ~load =
  let best = ref (-1) and best_load = ref max_int in
  for j = 0 to n - 1 do
    if j <> victim && live j then begin
      let l = load j in
      if l < !best_load then begin
        best := j;
        best_load := l
      end
    end
  done;
  if !best < 0 then None else Some !best

let record_takeover t tg ~kname ~victim ~standby ~sites ~bytes ~declared =
  let now = Engine.now t.eng in
  let detect = declared -. tg.suspect_since in
  let mttr = now -. tg.suspect_since in
  t.events <-
    {
      ev_time = now;
      ev_class = kname;
      ev_victim = victim;
      ev_standby = standby;
      ev_sites = sites;
      ev_bytes = bytes;
      ev_detect = detect;
      ev_mttr = mttr;
    }
    :: t.events;
  Metrics.incr t.reg "failover.takeovers";
  Metrics.add t.reg "failover.sites_claimed" sites;
  Metrics.observe t.reg "failover.detect_latency" detect;
  Metrics.observe t.reg "failover.mttr" mttr

(* ---- per-class takeover ---- *)

let takeover_manager t tg k ~victim ~declared =
  let live j =
    Ensemble.is_up t.ens k j
    && Net.node_up t.net (Ensemble.server_addr t.ens k j)
    && not (is_deposed t (Manager (k, j)))
  in
  match
    pick_standby ~n:(Ensemble.servers t.ens k) ~victim ~live ~load:(fun j ->
        Tenure.load (Ensemble.tenure t.ens k j))
  with
  | None -> Metrics.incr t.reg "failover.no_standby"
  | Some standby ->
      let copied = Reconfig.bytes_copied t.rc in
      let sites = Reconfig.takeover t.rc k ~victim ~standby in
      (* Re-lease the standby in process under the bumped epoch; its own
         monitor keeps renewing from here. *)
      let until = Engine.now t.eng +. lease_dur in
      Tenure.set_lease (Ensemble.tenure t.ens k standby) ~epoch:(class_epoch t k) ~until;
      (match find_target t (Manager (k, standby)) with
      | Some stg -> stg.max_granted <- Float.max stg.max_granted until
      | None -> ());
      record_takeover t tg ~kname:(Ensemble.klass_name k) ~victim ~standby ~sites
        ~bytes:(Int64.to_int (Int64.sub (Reconfig.bytes_copied t.rc) copied)) ~declared

(* The endpoint installed on a storage host must only renew the
   coordinator while the role actually resides there — after a further
   takeover the old host's endpoint goes silent again. *)
let coordinator_grant_at t haddr ~epoch ~until =
  match Ensemble.coordinator t.ens with
  | Some c when (Coordinator.host c).Host.addr = haddr ->
      Tenure.grant (Coordinator.tenure c) ~epoch ~until
  | _ -> false

let promote_coordinator t tg ~declared =
  match Ensemble.coordinator t.ens with
  | None -> ()
  | Some old ->
      let old_addr = (Coordinator.host old).Host.addr in
      let storage = Ensemble.storage t.ens in
      let candidate = ref (-1) in
      Array.iteri
        (fun j o ->
          if
            !candidate < 0 && Tenure.is_up (Obsd.tenure o)
            && Net.node_up t.net (Obsd.addr o)
            && (Obsd.host o).Host.addr <> old_addr
          then candidate := j)
        storage;
      if !candidate < 0 then Metrics.incr t.reg "failover.no_standby"
      else begin
        let j = !candidate in
        let h = Obsd.host storage.(j) in
        let c =
          Coordinator.attach h
            ~map_sites:(Coordinator.map_sites old)
            ?trace:(Ensemble.trace t.ens) ()
        in
        (* The victim's intention log survives on shared storage: open
           it in place so redo completes any 2PC the victim left in
           flight. *)
        let bytes = Coordinator.adopt_log c ~from:old in
        Ensemble.replace_coordinator t.ens c;
        (match Ensemble.storage_table t.ens with
        | Some tbl -> Table.bump_epoch tbl
        | None -> ());
        install_endpoint t h (coordinator_grant_at t h.Host.addr);
        let until = Engine.now t.eng +. lease_dur in
        Tenure.set_lease (Coordinator.tenure c) ~epoch:(current_epoch t tg) ~until;
        (* The coordinator target tracks the role, not the instance: the
           monitor resumes against the successor immediately. *)
        tg.max_granted <- until;
        tg.deposed <- false;
        tg.misses <- 0;
        let victim_idx = ref (-1) in
        Array.iteri
          (fun i o -> if (Obsd.host o).Host.addr = old_addr then victim_idx := i)
          storage;
        record_takeover t tg ~kname:"coordinator" ~victim:!victim_idx ~standby:j
          ~sites:(Array.length (Coordinator.map_sites c))
          ~bytes ~declared
      end

let declare t tg =
  let declared = Engine.now t.eng in
  Metrics.incr t.reg "failover.declared";
  tg.deposed <- true;
  (* Fencing safety: the victim self-wedges when its lease runs out, and
     no lease outlasting [max_granted] was ever sent. Waiting it out
     guarantees the donor bounces before the standby owns anything. *)
  if tg.max_granted > declared then
    Engine.sleep t.eng (tg.max_granted -. declared +. (heartbeat /. 10.));
  match tg.tclass with
  | Manager (k, i) -> takeover_manager t tg k ~victim:i ~declared
  | Coordinator -> promote_coordinator t tg ~declared

(* ---- the detector loop ---- *)

let rec monitor t tg =
  Engine.sleep t.eng heartbeat;
  if not t.stopped then
    if tg.deposed then monitor t tg
    else begin
      let start = Engine.now t.eng in
      let until = start +. lease_dur in
      let epoch = current_epoch t tg in
      tg.max_granted <- Float.max tg.max_granted until;
      t.heartbeats <- t.heartbeats + 1;
      match
        Rpc.call t.rpc ~retries:0 ~timeout:heartbeat ~dst:(taddr t tg)
          ~dport:lease_port
          (encode_renew ~xid:(Rpc.fresh_xid t.rpc) ~epoch ~until)
      with
      | _ack ->
          if tg.misses > 0 then Metrics.incr t.reg "failover.false_suspects";
          tg.misses <- 0;
          monitor t tg
      | exception Rpc.Timeout ->
          if tg.misses = 0 then tg.suspect_since <- start;
          tg.misses <- tg.misses + 1;
          if tg.misses >= miss_limit then declare t tg;
          monitor t tg
    end

let watch t tg grant host =
  install_endpoint t host grant;
  (* Seed a finite lease in process: attaching the detector is what
     arms fencing (servers default to an infinite lease). *)
  let until = Engine.now t.eng +. lease_dur in
  grant ~epoch:(current_epoch t tg) ~until |> ignore;
  tg.max_granted <- Float.max tg.max_granted until;
  t.targets <- t.targets @ [ tg ];
  Engine.spawn t.eng (fun () -> monitor t tg)

let mk_target tname tclass =
  {
    tname;
    tclass;
    deposed = false;
    misses = 0;
    suspect_since = nan;
    max_granted = neg_infinity;
  }

let attach ens rc =
  let eng = Ensemble.engine ens in
  let net = Ensemble.net ens in
  let host = Host.create net ~name:"failover-ctl" () in
  let rpc = Rpc.create net host.Host.addr ~port:ctl_rpc_port in
  let t =
    {
      ens;
      rc;
      eng;
      net;
      rpc;
      reg = Metrics.create ();
      targets = [];
      events = [];
      endpoints = [];
      heartbeats = 0;
      stopped = false;
    }
  in
  List.iter
    (fun k ->
      for i = 0 to Ensemble.servers ens k - 1 do
        watch t
          (mk_target (Ensemble.klass_name k ^ string_of_int i) (Manager (k, i)))
          (Tenure.grant (Ensemble.tenure ens k i))
          (Ensemble.server_host ens k i)
      done)
    [ Ensemble.Dir; Smallfile ];
  (match Ensemble.coordinator ens with
  | Some c ->
      let h = Coordinator.host c in
      watch t
        (mk_target "coordinator" Coordinator)
        (coordinator_grant_at t h.Host.addr)
        h
  | None -> ());
  Metrics.gauge t.reg "failover.heartbeats" (fun () ->
      float_of_int t.heartbeats);
  Metrics.gauge t.reg "failover.targets" (fun () ->
      float_of_int (List.length t.targets));
  Metrics.gauge t.reg "failover.deposed" (fun () ->
      float_of_int (List.length (List.filter (fun tg -> tg.deposed) t.targets)));
  Metrics.gauge t.reg "failover.lease_duration" (fun () -> lease_dur);
  t

(* ---- rejoin ---- *)

let resume tg until =
  tg.max_granted <- Float.max tg.max_granted until;
  tg.misses <- 0;
  tg.deposed <- false

(* A deposed manager rejoins as a peer: recover it, shed every site the
   table has since bound elsewhere, and lease it under the current
   epoch. *)
let rejoin t k i =
  if k = Ensemble.Storage then invalid_arg "Failover.rejoin: storage nodes are not managers";
  Ensemble.recover t.ens k i;
  Reconfig.shed t.rc k i;
  let until = Engine.now t.eng +. lease_dur in
  Tenure.set_lease (Ensemble.tenure t.ens k i) ~epoch:(class_epoch t k) ~until;
  match find_target t (Manager (k, i)) with
  | Some tg -> resume tg until
  | None -> ()

(* ---- introspection ---- *)

let stop t = t.stopped <- true
let metrics t = t.reg
let events t = List.rev t.events
let takeovers t = List.length t.events
let heartbeats t = t.heartbeats
let lease_duration _ = lease_dur

let deposed t =
  List.filter_map (fun tg -> if tg.deposed then Some tg.tname else None)
    t.targets
