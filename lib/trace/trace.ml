(* Structured request tracing for the simulation.

   A span records one hop of one request: an id, its parent span, the
   request's op class, the site (node) where the hop ran, sim-time
   start/stop, and an outcome string.  Spans form trees rooted at the
   µproxy's interception of a client call; remote hops (server handler,
   disk, WAL) attach to the right tree through the RPC xid, which is
   globally unique per simulation.

   The disabled path is allocation-free: every operation on [null] (the
   span handed out when tracing is off, the root was not sampled, or the
   span cap was reached) is a constant-time no-op.  Because children of
   an unallocated span are themselves [null], recorded trees are always
   complete — the cap truncates whole requests, never subtrees. *)

module Engine = Slice_sim.Engine
module Prng = Slice_util.Prng
module Json = Slice_util.Json
module Stats = Slice_util.Stats

type t = {
  eng : Engine.t;
  sample : float;
  prng : Prng.t;
  mutable spans : span array; (* index i holds the span with id i+1 *)
  mutable len : int;
  mutable dropped : int;
  xids : (int, span) Hashtbl.t; (* one row per in-flight rpc xid *)
}

and span = {
  tr : t option; (* None = the null span: every op is a no-op *)
  id : int;
  parent : int; (* 0 for roots *)
  op : string;
  hop : string;
  site : string;
  t_start : float;
  mutable t_stop : float;
  mutable outcome : string;
}

let null =
  { tr = None; id = 0; parent = 0; op = ""; hop = ""; site = ""; t_start = 0.0;
    t_stop = 0.0; outcome = "" }

let is_live sp = sp.tr <> None

(* Spans retained before new roots are dropped whole, and the seed of
   the sampling stream. *)
let cap = 200_000
let seed = 0x7ace

let create eng ?(sample = 1.0) () =
  { eng; sample; prng = Prng.create seed; spans = Array.make 256 null;
    (* lint: bounded — one row per in-flight rpc xid, removed on unbind *)
    len = 0; dropped = 0; xids = Hashtbl.create 256 }

let record t sp =
  if t.len = Array.length t.spans then begin
    let bigger = Array.make (2 * t.len) null in
    Array.blit t.spans 0 bigger 0 t.len;
    t.spans <- bigger
  end;
  t.spans.(t.len) <- sp;
  t.len <- t.len + 1

let alloc t ~parent ~op ~hop ~site ~start =
  if t.len >= cap then begin
    t.dropped <- t.dropped + 1;
    null
  end
  else begin
    let sp =
      { tr = Some t; id = t.len + 1; parent; op; hop; site; t_start = start;
        t_stop = start; outcome = "" }
    in
    record t sp;
    sp
  end

let root topt ~op ~site =
  match topt with
  | None -> null
  | Some t ->
      if t.sample < 1.0 && Prng.float t.prng 1.0 >= t.sample then null
      else alloc t ~parent:0 ~op ~hop:"request" ~site ~start:(Engine.now t.eng)

let child sp ?op ~hop ~site () =
  match sp.tr with
  | None -> null
  | Some t ->
      let op = match op with Some o -> o | None -> sp.op in
      alloc t ~parent:sp.id ~op ~hop ~site ~start:(Engine.now t.eng)

let finish_at ?(outcome = "ok") sp stop =
  match sp.tr with
  | None -> ()
  | Some _ ->
      sp.t_stop <- (if stop > sp.t_start then stop else sp.t_start);
      sp.outcome <- outcome

let finish ?outcome sp =
  match sp.tr with
  | None -> ()
  | Some t -> finish_at ?outcome sp (Engine.now t.eng)

let emit sp ?op ~hop ~site ~start ~stop ?(outcome = "ok") () =
  match sp.tr with
  | None -> ()
  | Some t ->
      if stop > start then begin
        let op = match op with Some o -> o | None -> sp.op in
        let c = alloc t ~parent:sp.id ~op ~hop ~site ~start in
        finish_at ~outcome c stop
      end

let timed sp ~hop ~site f =
  match sp.tr with
  | None -> f ()
  | Some t ->
      let start = Engine.now t.eng in
      let r = f () in
      emit sp ~hop ~site ~start ~stop:(Engine.now t.eng) ();
      r

let bind_xid sp xid =
  match sp.tr with None -> () | Some t -> Hashtbl.replace t.xids xid sp

let unbind_xid sp xid =
  match sp.tr with None -> () | Some t -> Hashtbl.remove t.xids xid

let span_of_xid topt xid =
  match topt with
  | None -> null
  | Some t -> ( match Hashtbl.find_opt t.xids xid with Some sp -> sp | None -> null)

(* -- inspection ---------------------------------------------------------- *)

type info = {
  i_id : int;
  i_parent : int;
  i_op : string;
  i_hop : string;
  i_site : string;
  i_start : float;
  i_stop : float;
  i_outcome : string;
}

let info_of sp =
  { i_id = sp.id; i_parent = sp.parent; i_op = sp.op; i_hop = sp.hop;
    i_site = sp.site; i_start = sp.t_start; i_stop = sp.t_stop;
    i_outcome = (if sp.outcome = "" then "unfinished" else sp.outcome) }

let count t = t.len
let dropped t = t.dropped
let infos t = List.init t.len (fun i -> info_of t.spans.(i))

let to_json t =
  (* Spans are stored in id order, so the dump is deterministic without a
     sort; fields within each object are emitted in a fixed order. *)
  let one sp =
    let i = info_of sp in
    Json.Obj
      [
        ("hop", Json.Str i.i_hop);
        ("id", Json.Num (float_of_int i.i_id));
        ("op", Json.Str i.i_op);
        ("outcome", Json.Str i.i_outcome);
        ("parent", Json.Num (float_of_int i.i_parent));
        ("site", Json.Str i.i_site);
        ("start", Json.Num i.i_start);
        ("stop", Json.Num i.i_stop);
      ]
  in
  Json.Obj
    [
      ("dropped", Json.Num (float_of_int t.dropped));
      ("spans", Json.Arr (List.init t.len (fun i -> one t.spans.(i))));
    ]

(* -- per-hop latency breakdown ------------------------------------------ *)

(* Self-time analysis: a span's self time is its duration minus the summed
   durations of its direct children (clamped at zero — overlapping
   concurrent children, e.g. mirrored writes, can exceed the parent).
   A root's self time is the part of request latency no hop accounts for:
   wire time plus queueing, reported as "network". *)
let hop_breakdown t =
  let n = t.len in
  let child_sum = Array.make (n + 1) 0.0 in
  let root_of = Array.make (n + 1) 0 in
  for i = 0 to n - 1 do
    let sp = t.spans.(i) in
    let dur = Stdlib.max 0.0 (sp.t_stop -. sp.t_start) in
    if sp.parent > 0 then begin
      (* Parents always allocate before children, so parent < id. *)
      child_sum.(sp.parent) <- child_sum.(sp.parent) +. dur;
      root_of.(sp.id) <- root_of.(sp.parent)
    end
    else root_of.(sp.id) <- sp.id
  done;
  (* Per-request, per-hop self-time sums, then per-op-class distributions. *)
  (* lint: bounded — keyed by (root id, hop); local to this analysis call *)
  let per_req : (int * string, float ref) Hashtbl.t = Hashtbl.create 256 in
  let bump root hop v =
    match Hashtbl.find_opt per_req (root, hop) with
    | Some r -> r := !r +. v
    | None -> Hashtbl.replace per_req (root, hop) (ref v)
  in
  for i = 0 to n - 1 do
    let sp = t.spans.(i) in
    let dur = Stdlib.max 0.0 (sp.t_stop -. sp.t_start) in
    let self = Stdlib.max 0.0 (dur -. child_sum.(sp.id)) in
    let root = root_of.(sp.id) in
    if sp.parent = 0 then begin
      bump root "total" dur;
      bump root "network" self
    end
    else bump root sp.hop self
  done;
  (* lint: bounded — keyed by (op class, hop name); both small sets *)
  let dists : (string * string, Stats.t) Hashtbl.t = Hashtbl.create 64 in
  (* lint: D2 ok — fold output is sorted on the next line *)
  let rows = Hashtbl.fold (fun k v acc -> (k, !v) :: acc) per_req [] in
  let rows = List.sort compare rows in
  List.iter
    (fun ((root, hop), v) ->
      let op = t.spans.(root - 1).op in
      let s =
        match Hashtbl.find_opt dists (op, hop) with
        | Some s -> s
        | None ->
            let s = Stats.create () in
            Hashtbl.replace dists (op, hop) s;
            s
      in
      Stats.add s v)
    rows;
  (* lint: D2 ok — fold output is sorted on the next line *)
  let out = Hashtbl.fold (fun k v acc -> (k, v) :: acc) dists [] in
  List.sort (fun (a, _) (b, _) -> compare a b) out
  |> List.map (fun ((op, hop), s) -> (op, hop, s))
