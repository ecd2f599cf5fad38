module Engine = Slice_sim.Engine
module Resource = Slice_sim.Resource

type params = {
  bandwidth : float;
  wire_latency : float;
  switch_latency : float;
  drop_prob : float;
}

let default_params =
  { bandwidth = 125_000_000.0; wire_latency = 10e-6; switch_latency = 8e-6; drop_prob = 0.0 }

type filter = Packet.t -> Packet.t option

type node = {
  name : string;
  tx : Resource.t;
  rx : Resource.t;
  mutable up : bool;
  mutable egress : filter list; (* in application order *)
  mutable ingress : filter list;
  handlers : (int, Packet.t -> unit) Hashtbl.t;
}

(* An injected link fault: applies to every packet whose (src, dst) pair
   matches ([None] matches any address). *)
type link_fault = {
  lf_src : Packet.addr option;
  lf_dst : Packet.addr option;
  lf_drop : float;
  lf_delay : float;
  lf_dup : float;
}

type t = {
  eng : Engine.t;
  p : params;
  prng : Slice_util.Prng.t;
  mutable nodes : node array;
  mutable n : int;
  mutable sent : int;
  mutable bytes : int;
  mutable dropped : int;
  mutable xid_counter : int;
  (* fault schedule *)
  mutable link_faults : link_fault list;
  mutable partition : (Packet.addr -> int) option;
  mutable f_node_drops : int;
  mutable f_link_drops : int;
  mutable f_part_drops : int;
  mutable f_dups : int;
}

let create eng ?(params = default_params) ?(seed = 1) () =
  {
    eng;
    p = params;
    prng = Slice_util.Prng.create seed;
    nodes = [||];
    n = 0;
    sent = 0;
    bytes = 0;
    dropped = 0;
    xid_counter = 0;
    link_faults = [];
    partition = None;
    f_node_drops = 0;
    f_link_drops = 0;
    f_part_drops = 0;
    f_dups = 0;
  }

let engine t = t.eng

let fresh_xid t =
  t.xid_counter <- t.xid_counter + 1;
  t.xid_counter land 0xFFFFFFFF

let add_node t ~name =
  let node =
    {
      name;
      tx = Resource.create t.eng ~name:(name ^ ".tx") ();
      rx = Resource.create t.eng ~name:(name ^ ".rx") ();
      up = true;
      egress = [];
      ingress = [];
      (* lint: bounded — one handler per port bound on this node *)
      handlers = Hashtbl.create 4;
    }
  in
  if t.n = Array.length t.nodes then begin
    let cap = if t.n = 0 then 8 else t.n * 2 in
    let nodes = Array.make cap node in
    Array.blit t.nodes 0 nodes 0 t.n;
    t.nodes <- nodes
  end;
  t.nodes.(t.n) <- node;
  t.n <- t.n + 1;
  t.n - 1

let get t a =
  if a < 0 || a >= t.n then invalid_arg "Net: unknown address";
  t.nodes.(a)

let node_name t a = (get t a).name
let node_count t = t.n
let listen t a ~port handler = Hashtbl.replace (get t a).handlers port handler
let add_egress_filter t a f = (get t a).egress <- (get t a).egress @ [ f ]
let add_ingress_filter t a f = (get t a).ingress <- (get t a).ingress @ [ f ]

let rec apply_filters filters pkt =
  match filters with
  | [] -> Some pkt
  | f :: rest -> ( match f pkt with None -> None | Some pkt -> apply_filters rest pkt)

let handle_local t (node : node) (pkt : Packet.t) =
  match Hashtbl.find node.handlers pkt.dport with
  | h -> h pkt
  | exception Not_found -> t.dropped <- t.dropped + 1

let deliver t (pkt : Packet.t) =
  let dst = get t pkt.dst in
  match dst.ingress with
  | [] -> handle_local t dst pkt
  | fs -> (
      match apply_filters fs pkt with
      | None -> ()
      | Some pkt -> handle_local t dst pkt)

(* Put the packet on the destination NIC at [arrival]; a node that is down
   when the packet lands loses it silently. The receive serialization
   time is recomputed from the packet instead of captured, keeping the
   scheduled closure free of a boxed float. *)
let deliver_at t (pkt : Packet.t) ~arrival =
  Engine.schedule_at t.eng arrival (fun () ->
      let dst = get t pkt.dst in
      if not dst.up then begin
        t.dropped <- t.dropped + 1;
        t.f_node_drops <- t.f_node_drops + 1
      end
      else begin
        let rx_done =
          Resource.reserve dst.rx (float_of_int (Packet.wire_size pkt) /. t.p.bandwidth)
        in
        Engine.schedule_at t.eng rx_done (fun () -> deliver t pkt)
      end)

(* Consult the fault schedule for one transmission. The PRNG is only drawn
   for faults that are actually configured, so fault-free runs keep the
   exact event/random stream they had before the fault layer existed. *)
let fault_verdict t (pkt : Packet.t) =
  let partitioned =
    match t.partition with Some group -> group pkt.src <> group pkt.dst | None -> false
  in
  if partitioned then begin
    t.f_part_drops <- t.f_part_drops + 1;
    `Drop
  end
  else begin
    let delay = ref 0.0 in
    let dup = ref false in
    let dropped = ref false in
    List.iter
      (fun lf ->
        let matches =
          (match lf.lf_src with None -> true | Some a -> a = pkt.src)
          && match lf.lf_dst with None -> true | Some a -> a = pkt.dst
        in
        if matches && not !dropped then
          if lf.lf_drop > 0.0 && Slice_util.Prng.float t.prng 1.0 < lf.lf_drop then begin
            t.f_link_drops <- t.f_link_drops + 1;
            dropped := true
          end
          else begin
            delay := !delay +. lf.lf_delay;
            if lf.lf_dup > 0.0 && Slice_util.Prng.float t.prng 1.0 < lf.lf_dup then dup := true
          end)
      t.link_faults;
    if !dropped then `Drop else `Deliver (!delay, !dup)
  end

let transmit t (pkt : Packet.t) =
  if pkt.dst < 0 || pkt.dst >= t.n then t.dropped <- t.dropped + 1
  else begin
    t.sent <- t.sent + 1;
    let size = Packet.wire_size pkt in
    t.bytes <- t.bytes + size;
    let src = get t pkt.src in
    let ser = float_of_int size /. t.p.bandwidth in
    let tx_done = Resource.reserve src.tx ser in
    if not src.up then begin
      (* a crashed host transmits nothing *)
      t.dropped <- t.dropped + 1;
      t.f_node_drops <- t.f_node_drops + 1
    end
    else if t.p.drop_prob > 0.0 && Slice_util.Prng.float t.prng 1.0 < t.p.drop_prob then
      t.dropped <- t.dropped + 1
    else if t.partition == None && t.link_faults == [] then
      (* fault-free fast path: no verdict to build, no PRNG draws — the
         common case stays allocation-light and keeps the exact random
         stream of runs with no fault schedule configured *)
      deliver_at t pkt ~arrival:(tx_done +. t.p.wire_latency +. t.p.switch_latency)
    else
      match fault_verdict t pkt with
      | `Drop -> t.dropped <- t.dropped + 1
      | `Deliver (extra_delay, dup) ->
          let arrival = tx_done +. t.p.wire_latency +. t.p.switch_latency +. extra_delay in
          deliver_at t pkt ~arrival;
          if dup then begin
            (* an independent copy: downstream filters rewrite in place *)
            t.f_dups <- t.f_dups + 1;
            deliver_at t (Packet.copy pkt) ~arrival
          end
  end

let send t (pkt : Packet.t) =
  let src = get t pkt.src in
  match src.egress with
  | [] -> transmit t pkt
  | fs -> (
      match apply_filters fs pkt with
      | None -> ()
      | Some pkt -> transmit t pkt)

let inject t pkt = transmit t pkt

let dispatch t (pkt : Packet.t) = handle_local t (get t pkt.dst) pkt
(* ---- fault schedule ---- *)

let set_node_up t a up = (get t a).up <- up
let node_up t a = (get t a).up

let schedule_crash t a ~at ~until =
  if until <= at then invalid_arg "Net.schedule_crash: until <= at";
  Engine.schedule_at t.eng at (fun () -> set_node_up t a false);
  Engine.schedule_at t.eng until (fun () -> set_node_up t a true)

let add_link_fault t ?src ?dst ?(drop = 0.0) ?(delay = 0.0) ?(dup = 0.0) () =
  t.link_faults <-
    t.link_faults
    @ [ { lf_src = src; lf_dst = dst; lf_drop = drop; lf_delay = delay; lf_dup = dup } ]

let set_partition t group = t.partition <- Some group
let clear_partition t = t.partition <- None
let fault_node_drops t = t.f_node_drops
let fault_link_drops t = t.f_link_drops
let fault_partition_drops t = t.f_part_drops
let fault_duplicates t = t.f_dups
let fault_drops t = t.f_node_drops + t.f_link_drops + t.f_part_drops

let packets_sent t = t.sent
let bytes_sent t = t.bytes
let packets_dropped t = t.dropped
let nic_busy_time t a = Resource.busy_time (get t a).tx
