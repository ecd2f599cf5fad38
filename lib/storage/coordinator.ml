module Engine = Slice_sim.Engine
module Fiber = Slice_sim.Fiber
module Rpc = Slice_net.Rpc
module Nfs = Slice_nfs.Nfs
module Codec = Slice_nfs.Codec
module Fh = Slice_nfs.Fh
module Wal = Slice_wal.Wal
module Trace = Slice_trace.Trace

type intent = {
  kind : Ctrl.kind;
  fh : Fh.t;
  participants : int array;
  call : Nfs.call; (* what it pushes to its participants, first and on redo *)
  mutable completed : bool;
}

let rt_intent = 1
let rt_complete = 2

type t = {
  host : Host.t;
  rpc : Rpc.t;
  trace : Trace.t option;
  probe_timeout : float;
  map_sites : int array;
  wal : Wal.t;
  intents : (int64, intent) Hashtbl.t;
  maps : (int64, int array ref) Hashtbl.t; (* fileID -> site per block-map chunk *)
  mutable next_op : int64;
  mutable logged : int;
  mutable completed_count : int;
  mutable redo_count : int;
  tenure : Tenure.t; (* life and fencing lease only: the coordinator owns no sites *)
}

(* An expired lease wedges the coordinator — control messages get Nack,
   probes/redo stop — so a zombie deposed by a takeover cannot drive 2PC
   against the new incarnation. *)
let wedged t = Tenure.wedged t.tenure ~now:(Engine.now t.host.Host.eng)

let cpu_cost = 25e-6

(* A log record's payload is the control message's wire form with xid 0,
   encoded straight into the log. *)
let enc_record e msg = Ctrl.enc_msg e ~xid:0 msg

(* Returns once the intent is stable. A crash that drops its journal
   round raises [Wal.Crashed], and the message root then sends no reply:
   the requester retries after recovery. *)
let log_intent ?(span = Trace.null) t op_id (i : intent) =
  ignore
    (Wal.append_with t.wal ~site:0 ~rtype:rt_intent enc_record
       (Ctrl.Intent { op_id; kind = i.kind; fh = i.fh; participants = i.participants }));
  Wal.sync ~span t.wal;
  t.logged <- t.logged + 1

let log_complete t op_id =
  (* Completions clear intentions asynchronously — appended but not
     force-synced (the paper amortizes these off the critical path). *)
  ignore (Wal.append_with t.wal ~site:0 ~rtype:rt_complete enc_record (Ctrl.Complete { op_id }))

(* The idempotent call an intent pushes to its participants, first and
   on redo: removes remove; commit-like kinds commit, forcing
   participants' dirty state stable. Built once, with the intent. *)
let intent_call kind fh : Nfs.call =
  match kind with
  | Ctrl.K_remove -> Nfs.Remove (fh, "")
  | Ctrl.K_commit | Ctrl.K_mirror_write -> Nfs.Commit (fh, 0L, 0)

let intent kind fh participants =
  { kind; fh; participants; call = intent_call kind fh; completed = false }

(* Push the intent's call to every participant; true only when all of
   them acked. A participant timing out must not raise out of the join
   (that would abandon the sibling fibers) nor count as done — the
   caller keeps the intent and probes again. *)
let fan_out ?(span = Trace.null) t (i : intent) =
  let ok = ref true in
  Fiber.fan_out t.host.Host.eng (Array.length i.participants) (fun k ->
      let xid = Rpc.fresh_xid t.rpc in
      let payload = Codec.encode_call ~xid i.call in
      match Rpc.call t.rpc ~span ~timeout:2.0 ~dst:i.participants.(k) ~dport:2049 payload with
      | (_ : bytes) -> ()
      | exception Rpc.Timeout -> ok := false);
  !ok

(* Completion retires the intent from the in-memory table — the log
   already carries the completion record, so the table only ever holds
   operations in progress and cannot grow with op count. *)
let retire t op_id (i : intent) =
  i.completed <- true;
  t.completed_count <- t.completed_count + 1;
  log_complete t op_id;
  Hashtbl.remove t.intents op_id

(* Retire only when every participant acked the redo; otherwise keep the
   intent and re-arm the probe — a partitioned participant must still see
   its redo once the partition heals. *)
let rec redo t op_id (i : intent) =
  if (not i.completed) && not (wedged t) then begin
    t.redo_count <- t.redo_count + 1;
    if fan_out t i then retire t op_id i
    else schedule_probe t op_id
  end

and schedule_probe t op_id =
  Engine.schedule t.host.Host.eng t.probe_timeout (fun () ->
      if Tenure.is_up t.tenure && not (wedged t) then
        match Hashtbl.find_opt t.intents op_id with
        | Some i when not i.completed -> Engine.spawn t.host.Host.eng (fun () -> redo t op_id i)
        | _ -> ())

let fresh_op t =
  t.next_op <- Int64.add t.next_op 1L;
  t.next_op

let sites_for t fh block =
  let n = Array.length t.map_sites in
  if n = 0 then None
  else begin
    let key = fh.Fh.file_id in
    let map =
      match Hashtbl.find_opt t.maps key with
      | Some m -> m
      | None ->
          let m = ref [||] in
          Hashtbl.replace t.maps key m;
          m
    in
    if block >= Array.length !map then begin
      (* Extend the map with the placement policy: rotate the stripe start
         by a hash of the fileID so files spread over different nodes. *)
      let start = Int64.to_int (Int64.rem (Int64.abs key) (Int64.of_int n)) in
      let old = !map in
      let nm = Array.init (block + 1) (fun b ->
          if b < Array.length old then old.(b) else t.map_sites.((start + b) mod n))
      in
      map := nm
    end;
    Some !map.(block)
  end

(* A whole-file operation across [sites] (remove or commit): log the
   intent, push the call to every site, retire it once all acked. The
   intent is durable, so it acks either way: a site that missed the call
   gets it from the probe/redo path. *)
let file_op ~span t kind fh sites =
  let op_id = fresh_op t in
  let i = intent kind fh sites in
  Hashtbl.replace t.intents op_id i;
  log_intent ~span t op_id i;
  if fan_out ~span t i then retire t op_id i else schedule_probe t op_id;
  Ctrl.Ack

(* Fenced: a deposed coordinator must refuse to log new intentions or
   acknowledge anything. Its Nack is a refusal to the requester's
   {!Ctrl.call}, which goes again to whoever holds the role: at once to
   a successor, after a pause while none is installed. *)
let handle t span (msg : Ctrl.msg) : Ctrl.reply =
  if wedged t then begin
    Tenure.note_fence t.tenure;
    Ctrl.Nack
  end
  else
    match msg with
    | Ctrl.Intent { op_id; kind; fh; participants } ->
        let i = intent kind fh participants in
        Hashtbl.replace t.intents op_id i;
        log_intent ~span t op_id i;
        schedule_probe t op_id;
        Ctrl.Ack
    | Ctrl.Complete { op_id } ->
        (match Hashtbl.find_opt t.intents op_id with
        | Some i when not i.completed -> retire t op_id i
        | _ -> ());
        Ctrl.Ack
    | Ctrl.Remove_file { fh; sites } -> file_op ~span t Ctrl.K_remove fh sites
    | Ctrl.Commit_file { fh; sites } -> file_op ~span t Ctrl.K_commit fh sites
    | Ctrl.Get_map { fh; first_block; count } -> (
        match sites_for t fh (first_block + count - 1) with
        | None -> Ctrl.Map { first_block; sites = [||] }
        | Some _ ->
            let sites =
              Array.init count (fun k ->
                  match sites_for t fh (first_block + k) with Some s -> s | None -> -1)
            in
            Ctrl.Map { first_block; sites })

(* The port of the coordinator's own calls to storage nodes. *)
let rpc_port = 2052

let attach host ?(probe_timeout = 0.5) ?(map_sites = [||]) ?trace () =
  let wal =
    match host.Host.disk with
    | Some disk -> Wal.create ~eng:host.Host.eng ~disk ~name:"coord.wal" ()
    | None -> Wal.create ~name:"coord.wal" ()
  in
  let t =
    {
      host;
      rpc = Rpc.create host.Host.net host.Host.addr ~port:rpc_port;
      trace;
      probe_timeout;
      map_sites;
      wal;
      (* lint: bounded — holds only ops in progress: completion retires the row (WAL keeps history) *)
      intents = Hashtbl.create 64;
      (* lint: bounded — one row per file with a block map; soft state, reset on crash *)
      maps = Hashtbl.create 64;
      next_op = Int64.of_int (host.Host.addr * 1_000_000);
      logged = 0;
      completed_count = 0;
      redo_count = 0;
      tenure = Tenure.create [];
    }
  in
  Nfs_endpoint.serve_msg host ~port:Ctrl.port ~tenure:t.tenure ~cpu:cpu_cost ?trace
    ~decode:Ctrl.decode_msg ~encode:Ctrl.encode_reply ~handler:(handle t) ();
  t

let addr t = t.host.Host.addr
let host t = t.host
let map_sites t = t.map_sites

let tenure t = t.tenure

let pending_intents t =
  Hashtbl.fold (fun _ i acc -> if i.completed then acc else acc + 1) t.intents 0

let intents_logged t = t.logged
let completions t = t.completed_count
let redos t = t.redo_count
let map_entries t = Hashtbl.length t.maps

let crash t =
  Tenure.crash t.tenure;
  (* Volatile state and calls in flight are lost; only the synced log image survives. *)
  Hashtbl.reset t.intents;
  Hashtbl.reset t.maps;
  Wal.crash t.wal;
  Rpc.crash t.rpc

let recover t =
  (* Scan the intentions log: rebuild the table, then drive incomplete
     operations to completion ("a failed coordinator recovers by scanning
     its intentions log, completing or aborting operations in progress"). *)
  (* a record's payload is the message it logs, so its kind says how to
     apply it *)
  ignore
    (Wal.replay (Wal.image t.wal ~site:0) (fun ~lsn:_ ~rtype:_ payload ->
         match Ctrl.decode_msg (Bytes.of_string payload) with
         | Ctrl.Intent { op_id; kind; fh; participants } ->
             Hashtbl.replace t.intents op_id (intent kind fh participants)
         | Ctrl.Complete { op_id } -> Hashtbl.remove t.intents op_id
         | _ -> ()
         | exception Codec.Malformed _ -> ()));
  Tenure.recover t.tenure;
  let incomplete =
    Hashtbl.fold (fun op_id i acc -> if i.completed then acc else (op_id, i) :: acc) t.intents []
  in
  Engine.spawn t.host.Host.eng (fun () ->
      List.iter (fun (op_id, i) -> redo t op_id i) incomplete)

(* The intentions log is its WAL's site 0. *)
let adopt_log t ~from =
  Wal.hand_over from.wal ~site:0 ~to_:t.wal;
  recover t;
  String.length (Wal.image t.wal ~site:0)
