(* Online reconfiguration: migrate logical sites between live servers
   and republish the routing tables. See reconfig.mli for the state
   machine and crash matrix; the short version is

     intend (log Begin) -> drain (donor bounces writes) ->
     copy (modelled transfer occupies simulated time) ->
     commit (atomic: hand the site over, flip ownership, rebind table,
     log Commit)  |  abort (lift drain, log Abort, table untouched).

   All state transfer happens inside the atomic commit step, so a crash
   anywhere leaves the site wholly on one side. *)

module Engine = Slice_sim.Engine
module Net = Slice_net.Net
module Metrics = Slice_util.Metrics
module Trace = Slice_trace.Trace
module Wal = Slice_wal.Wal
module Enc = Slice_xdr.Xdr.Enc
module Ensemble = Slice.Ensemble
module Table = Slice.Table
module Dirserver = Slice_dir.Dirserver
module Smallfile = Slice_smallfile.Smallfile
module Obsd = Slice_storage.Obsd
module Tenure = Slice_storage.Tenure

exception Abandoned

(* Intent-log record types. *)
let rt_begin = 1
let rt_commit = 2
let rt_abort = 3

(* Fixed per-migration setup cost (control messages, drain install), so
   even an empty site's move occupies simulated time. *)
let setup_latency = 0.0005

(* What really differs per server class; everything else (server count,
   address, tenure, growth, name) comes from [Ensemble] by [k].
   Ownership, drains, load and bounce counts are the same for every
   class and are read through each server's [Tenure]. [settle] runs after
   the copy, before the commit step; [copy_commit] runs inside the
   atomic commit step and returns the bytes streamed. Server arguments are indices, resolved at
   call time, so elastic growth is always visible. *)
type class_ops = {
  k : Ensemble.klass;
  table : Table.t;
  drop : int -> int -> unit;
  settle : donor:int -> site:int -> unit;
  copy_bytes : donor:int -> site:int -> int64;
  copy_commit : donor:int -> recv:int -> site:int -> int64;
}

type plan =
  | Add_server of Ensemble.klass
  | Remove_server of Ensemble.klass * int
  | Rebalance

type t = {
  ens : Ensemble.t;
  eng : Engine.t;
  net : Net.t;
  trace : Trace.t option;
  wal : Wal.t;  (* migration intent log (coordinator stable storage) *)
  reg : Metrics.t;
  bandwidth : float;  (* modelled copy rate, bytes per simulated second *)
  classes : class_ops list;  (* the classes the ensemble runs, Dir first *)
  mutable next_op : int;
  mutable n_migrations : int;
  mutable n_moved : int;
  mutable n_aborted : int;
  mutable n_bytes : int64;
}

let kname ops = Ensemble.klass_name ops.k
let nservers t ops = Ensemble.servers t.ens ops.k
let tenure t ops i = Ensemble.tenure t.ens ops.k i
let addr t ops i = Ensemble.server_addr t.ens ops.k i

let load_key ops site = Printf.sprintf "reconfig.load.%s.%03d" (kname ops) site

(* Physical owner (server index) of a logical site, resolved through the
   authoritative table. *)
let owner_of t ops site =
  let a = Table.lookup ops.table site in
  let n = nservers t ops in
  let rec go i = if i >= n then -1 else if addr t ops i = a then i else go (i + 1) in
  go 0

(* Rebind one site; idempotent commits publish nothing (Table.update
   skips the version bump on an identical mapping). *)
let set_site ops site addr =
  let map, _v = Table.snapshot ops.table in
  if map.(site) <> addr then begin
    map.(site) <- addr;
    Table.update ops.table map
  end

(* Small-file and storage sites move as deep-copied images; a drained
   site of theirs changes nothing, so there is nothing to settle. *)
let image_class k table srv ~drop ~site_bytes ~export ~import ~image_bytes =
  {
    k;
    table;
    drop = (fun i site -> drop (srv i) site);
    settle = (fun ~donor:_ ~site:_ -> ());
    copy_bytes = (fun ~donor ~site -> site_bytes (srv donor) site);
    copy_commit =
      (fun ~donor ~recv ~site ->
        let img = export (srv donor) site in
        import (srv recv) site img;
        image_bytes img);
  }

let class_of ens k table =
  match (k : Ensemble.klass) with
  | Dir ->
      let srv i = (Ensemble.dirs ens).(i) in
      {
        k;
        table;
        drop = (fun i site -> Dirserver.drop_site (srv i) site);
        (* a record the site logged during the copy, by a request
           admitted before the drain, lands before the journal moves *)
        settle = (fun ~donor ~site -> Dirserver.settle_site (srv donor) site);
        copy_bytes = (fun ~donor ~site -> Int64.of_int (Dirserver.site_bytes (srv donor) site));
        copy_commit =
          (fun ~donor ~recv ~site -> Int64.of_int (Dirserver.adopt_site (srv recv) ~from:(srv donor) site));
      }
  | Smallfile ->
      image_class k table (fun i -> (Ensemble.smallfiles ens).(i)) ~drop:Smallfile.drop_site
        ~site_bytes:Smallfile.site_bytes ~export:Smallfile.export_site ~import:Smallfile.import_site
        ~image_bytes:Smallfile.image_bytes
  | Storage ->
      image_class k table (fun i -> (Ensemble.storage ens).(i)) ~drop:Obsd.drop_site
        ~site_bytes:Obsd.site_bytes ~export:Obsd.export_site ~import:Obsd.import_site
        ~image_bytes:Obsd.image_bytes

(* Per-site load gauge: resolves the owner through the table and the
   server arrays at read time, so it follows every move and takeover
   without being registered again. *)
let register_load_gauge t ops j =
  Metrics.gauge t.reg (load_key ops j) (fun () ->
      let o = owner_of t ops j in
      if o < 0 then 0.0 else float_of_int (Tenure.site_load (tenure t ops o) j))

let server_indices t ops = List.init (nservers t ops) Fun.id

let drain_bounces t =
  List.fold_left
    (fun a ops ->
      List.fold_left (fun a i -> a + Tenure.drain_bounces (tenure t ops i)) a (server_indices t ops))
    0 t.classes

let attach ?(bandwidth = 50e6) ?trace ens =
  let reg = Metrics.create () in
  let t =
    {
      ens;
      eng = Ensemble.engine ens;
      net = Ensemble.net ens;
      trace;
      wal = Wal.create ~name:"reconfig.intents" ();
      reg;
      bandwidth;
      classes =
        List.filter_map
          (fun k -> Option.map (class_of ens k) (Ensemble.table ens k))
          [ Ensemble.Dir; Smallfile; Storage ];
      next_op = 1;
      n_migrations = 0;
      n_moved = 0;
      n_aborted = 0;
      n_bytes = 0L;
    }
  in
  Metrics.gauge reg "reconfig.migrations" (fun () ->
      float_of_int t.n_migrations);
  Metrics.gauge reg "reconfig.sites_moved" (fun () -> float_of_int t.n_moved);
  Metrics.gauge reg "reconfig.aborted" (fun () -> float_of_int t.n_aborted);
  Metrics.gauge reg "reconfig.bytes_copied" (fun () -> Int64.to_float t.n_bytes);
  Metrics.gauge reg "reconfig.drain_bounces" (fun () -> float_of_int (drain_bounces t));
  List.iter
    (fun ops ->
      for j = 0 to Table.nsites ops.table - 1 do
        register_load_gauge t ops j
      done)
    t.classes;
  t

(* Intent records are text: "op kind site donor recv" opens a
   migration, the op id alone seals it. Each is hardened at once. *)
let journal t rtype text =
  ignore (Wal.append_with t.wal ~site:0 ~rtype Enc.raw text);
  Wal.sync t.wal

let metrics t = t.reg
let migrations t = t.n_migrations
let sites_moved t = t.n_moved
let aborted t = t.n_aborted
let bytes_copied t = t.n_bytes

(* Exactly one owner per logical site, and the table publishes it. *)
let ownership_violations t =
  List.concat_map
    (fun ops ->
      List.filter_map
        (fun j ->
          let owners = List.filter (fun i -> Tenure.owns (tenure t ops i) j) (server_indices t ops) in
          match owners with
          | [ o ] when Table.lookup ops.table j = addr t ops o -> None
          | _ -> Some (kname ops, j, List.length owners))
        (List.init (Table.nsites ops.table) Fun.id))
    t.classes

(* One site move, intend -> drain -> copy -> commit/abort, or with
   [~takeover] a hot-standby claim of a dead donor's site: no drain and
   no donor-liveness check, its state being rebuilt from shared storage
   (the directory class opens the site's journal in place; the
   small-file class re-materializes the site's zone files). A taken-over
   donor is deliberately NOT disowned: a zombie that wakes up still
   believing it owns the site is stopped by the fencing epoch (its lease
   expired before the takeover was allowed to start), not by
   control-plane writes to a machine we just declared unreachable. Runs
   in the caller's fiber; only the copy sleep and the settle give up the
   simulated clock. True when the move commits. *)
let migrate ?abandon ?(takeover = false) t ops ~site ~donor ~recv =
  let span =
    Trace.root t.trace
      ~op:((if takeover then "takeover." else "migrate.") ^ kname ops)
      ~site:(string_of_int site)
  in
  let op_id = t.next_op in
  t.next_op <- op_id + 1;
  t.n_migrations <- t.n_migrations + 1;
  journal t rt_begin (Printf.sprintf "%d %s %d %d %d" op_id (kname ops) site donor recv);
  if not takeover then Tenure.begin_drain (tenure t ops donor) site;
  (match abandon with Some `After_begin -> raise Abandoned | None -> ());
  let est = ops.copy_bytes ~donor ~site in
  Engine.sleep t.eng (setup_latency +. (Int64.to_float est /. t.bandwidth));
  if not takeover then ops.settle ~donor ~site;
  (* commit step: atomic in simulated time from here to the end *)
  if (takeover || Net.node_up t.net (addr t ops donor)) && Net.node_up t.net (addr t ops recv) then begin
    let bytes = ops.copy_commit ~donor ~recv ~site in
    Tenure.own (tenure t ops recv) site;
    if not takeover then begin
      Tenure.disown (tenure t ops donor) site;
      ops.drop donor site
    end;
    (* the donor's traffic history moved with the site *)
    Tenure.reset_load (tenure t ops donor) site;
    set_site ops site (addr t ops recv);
    journal t rt_commit (string_of_int op_id);
    t.n_moved <- t.n_moved + 1;
    t.n_bytes <- Int64.add t.n_bytes bytes;
    Trace.finish ~outcome:"committed" span;
    true
  end
  else begin
    (* donor or receiver is down: the site stays wholly on the donor
       (a donor crash already cleared its volatile drain mark) *)
    if not takeover then Tenure.end_drain (tenure t ops donor) site;
    journal t rt_abort (string_of_int op_id);
    t.n_aborted <- t.n_aborted + 1;
    Trace.finish ~outcome:"aborted" span;
    false
  end

(* Load-driven placement: heaviest site first into the least-loaded
   bucket, with two deterministic refinements — equal buckets break
   toward fewer assigned sites (so an unloaded ensemble spreads
   round-robin instead of piling onto server 0), and an exact tie that
   includes the current owner keeps the site in place (so a balanced
   ensemble is a fixed point and rebalancing is idempotent). *)
let rebalance_class ?abandon ?exclude t ops =
  let nsites = Table.nsites ops.table in
  let n = nservers t ops in
  let eligible i = match exclude with Some e -> i <> e | None -> true in
  let load =
    Array.init nsites (fun j -> Metrics.value t.reg (load_key ops j))
  in
  let owner = Array.init nsites (fun j -> owner_of t ops j) in
  let order =
    List.sort
      (fun a b ->
        match Float.compare load.(b) load.(a) with
        | 0 -> Int.compare a b
        | c -> c)
      (List.init nsites Fun.id)
  in
  let bload = Array.make n 0.0 in
  let bn = Array.make n 0 in
  let target = Array.make nsites (-1) in
  List.iter
    (fun j ->
      let better i best =
        match Float.compare bload.(i) bload.(best) with
        | 0 -> bn.(i) < bn.(best)
        | c -> c < 0
      in
      let best = ref (-1) in
      for i = 0 to n - 1 do
        if eligible i && (!best < 0 || better i !best) then best := i
      done;
      if !best >= 0 then begin
        let o = owner.(j) in
        if
          o >= 0 && eligible o && o <> !best
          && Float.compare bload.(o) bload.(!best) = 0
          && bn.(o) = bn.(!best)
        then best := o;
        target.(j) <- !best;
        bload.(!best) <- bload.(!best) +. load.(j);
        bn.(!best) <- bn.(!best) + 1
      end)
    order;
  for j = 0 to nsites - 1 do
    if target.(j) >= 0 && owner.(j) >= 0 && target.(j) <> owner.(j) then
      ignore (migrate ?abandon t ops ~site:j ~donor:owner.(j) ~recv:target.(j))
  done

let class_ops t k = List.find_opt (fun ops -> ops.k = k) t.classes

let require t k =
  match class_ops t k with
  | Some o -> o
  | None ->
      invalid_arg
        (Printf.sprintf "Reconfig: ensemble runs no %s class"
           (Ensemble.klass_name k))

(* Claim every site the dead victim still owns for the standby, then
   advance the class table's fencing epoch exactly once — the epoch bump
   both refreshes stale µproxy snapshots and marks the victim's
   incarnation deposed (its cached metadata is flushed everywhere, its
   lease can never be renewed under the old epoch). *)
let takeover t k ~victim ~standby =
  if k = Ensemble.Storage then
    (* Storage sites are not dataless: their bytes die with the node
       (mirroring is the storage class's redundancy story, and the
       coordinator's failover lives in Slice_failover). *)
    invalid_arg "Reconfig: storage sites are not dataless; cannot take over";
  let ops = require t k in
  if victim = standby then invalid_arg "Reconfig: takeover onto the victim";
  let n = nservers t ops in
  if victim < 0 || victim >= n || standby < 0 || standby >= n then
    invalid_arg "Reconfig: takeover server index out of range";
  let claimed = ref 0 in
  for j = 0 to Table.nsites ops.table - 1 do
    if owner_of t ops j = victim then
      if migrate ~takeover:true t ops ~site:j ~donor:victim ~recv:standby then
        incr claimed
  done;
  if !claimed > 0 then Table.bump_epoch ops.table;
  !claimed

let shed t k i =
  match class_ops t k with
  | None -> ()
  | Some ops ->
      let tn = tenure t ops i in
      List.iter
        (fun site ->
          if Table.lookup ops.table site <> addr t ops i then begin
            Tenure.disown tn site;
            ops.drop i site;
            Tenure.reset_load tn site
          end)
        (Tenure.owned_sites tn)

let execute ?abandon t plan =
  try
    match plan with
    | Rebalance -> List.iter (rebalance_class ?abandon t) t.classes
    | Add_server k ->
        let ops = require t k in
        ignore (Ensemble.add_server t.ens k);
        rebalance_class ?abandon t ops
    | Remove_server (k, idx) ->
        let ops = require t k in
        let n = nservers t ops in
        if idx < 0 || idx >= n then
          invalid_arg "Reconfig: server index out of range";
        if n <= 1 then
          invalid_arg "Reconfig: cannot remove the last server of a class";
        rebalance_class ?abandon ~exclude:idx t ops
  with Abandoned -> ()

let recover t =
  (* lint: bounded — one entry per unsealed migration intent *)
  let opens = Hashtbl.create 8 in
  let order = ref [] in
  ignore
    (Wal.replay (Wal.image t.wal ~site:0) (fun ~lsn:_ ~rtype payload ->
         if rtype = rt_begin then (
           try
             Scanf.sscanf payload "%d %s %d %d %d"
               (fun id k site donor recv ->
                 Hashtbl.replace opens id (k, site, donor, recv);
                 order := id :: !order)
           with Scanf.Scan_failure _ | Failure _ | End_of_file -> ())
         else
           match int_of_string_opt (String.trim payload) with
           | Some id -> Hashtbl.remove opens id
           | None -> ()));
  List.iter
    (fun id ->
      match Hashtbl.find_opt opens id with
      | None -> ()
      | Some (k, site, donor, recv) ->
          (match Option.bind (Ensemble.klass_of_name k) (class_ops t) with
          | None -> ()
          | Some ops ->
              let n = nservers t ops in
              if donor >= 0 && donor < n then begin
                let tn = tenure t ops donor in
                Tenure.end_drain tn site;
                Tenure.own tn site;
                set_site ops site (addr t ops donor)
              end;
              if recv >= 0 && recv < n && recv <> donor then begin
                Tenure.disown (tenure t ops recv) site;
                ops.drop recv site
              end);
          t.n_aborted <- t.n_aborted + 1;
          journal t rt_abort (string_of_int id))
    (List.rev !order)
