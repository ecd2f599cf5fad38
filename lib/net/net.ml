module Engine = Slice_sim.Engine
module Resource = Slice_sim.Resource

(* Gigabit Ethernet with jumbo frames, per the paper's testbed. *)
let bandwidth = 125_000_000.0
let wire_latency = 10e-6
let switch_latency = 8e-6

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

type link =
  { src : Packet.addr option; dst : Packet.addr option; drop : float; delay : float; dup : float }

type fault = Loss of float | Link of link | Partition of Packet.addr list | Heal

(* The faults in force. [cut] is the isolated side of the partition
   ([[]] when none). Immutable, and [no_faults] itself whenever nothing
   is in force, so the fault-free path is one pointer test. *)
type faults = { loss : float; cut : Packet.addr list; links : link list }

let no_faults = { loss = 0.0; cut = []; links = [] }

type fault_counts = {
  mutable node_drops : int; mutable link_drops : int; mutable partition_drops : int;
  mutable duplicates : int;
}

type t = {
  eng : Engine.t;
  prng : Slice_util.Prng.t;
  mutable nodes : node array;
  mutable n : int;
  mutable sent : int;
  mutable bytes : int;
  mutable dropped : int;
  mutable xid_counter : int;
  mutable faults : faults;
  counts : fault_counts;
  mutable free_dl : delivery;
}

(* A packet on its way to the destination NIC. Records are pooled on an
   intrusive freelist and each builds its two event thunks once, when it
   is created: [arrive] runs when the packet reaches the receiving NIC,
   [landed] when that NIC has taken it in. *)
and delivery = {
  mutable d_pkt : Packet.t;
  mutable d_next : delivery; (* freelist link *)
  arrive : unit -> unit;
  landed : unit -> unit;
}

let no_packet = Packet.make ~src:0 ~dst:0 ~sport:0 ~dport:0 Bytes.empty

(* Cyclic sentinel: terminates the freelist without an option. *)
let rec no_delivery = { d_pkt = no_packet; d_next = no_delivery; arrive = ignore; landed = ignore }

let create eng ?(seed = 1) () =
  {
    eng;
    prng = Slice_util.Prng.create seed;
    nodes = [||];
    n = 0;
    sent = 0;
    bytes = 0;
    dropped = 0;
    xid_counter = 0;
    faults = no_faults;
    counts = { node_drops = 0; link_drops = 0; partition_drops = 0; duplicates = 0 };
    free_dl = no_delivery;
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

(* Returning a record drops its packet, so the pool keeps no payload
   alive. *)
let[@hot] release_delivery t d =
  d.d_pkt <- no_packet;
  d.d_next <- t.free_dl;
  t.free_dl <- d

(* The record is free again before [deliver] runs, so a handler that
   sends at once reuses it. *)
let landed t d =
  let pkt = d.d_pkt in
  release_delivery t d;
  deliver t pkt

(* A node that is down when the packet lands loses it silently. The
   receive serialization time is recomputed from the packet. *)
let arrive t d =
  let pkt = d.d_pkt in
  let dst = get t pkt.dst in
  if not dst.up then begin
    release_delivery t d;
    t.dropped <- t.dropped + 1;
    t.counts.node_drops <- t.counts.node_drops + 1
  end
  else begin
    let rx_done = Resource.reserve dst.rx (float_of_int (Packet.wire_size pkt) /. bandwidth)
    in
    Engine.schedule_at t.eng rx_done d.landed
  end

(* Cold: the pool is empty. One new record, so the pool tracks the peak
   number of packets in flight. *)
let new_delivery t =
  let rec d =
    { d_pkt = no_packet; d_next = no_delivery; arrive = (fun () -> arrive t d);
      landed = (fun () -> landed t d) }
  in
  d

(* Put the packet on the destination NIC at [arrival]. Inlined, so the
   arrival time reaches the engine's time column unboxed. *)
let[@inline] deliver_at t (pkt : Packet.t) ~arrival =
  let d = t.free_dl in
  let d =
    if d == no_delivery then new_delivery t
    else begin
      t.free_dl <- d.d_next;
      d.d_next <- no_delivery;
      d
    end
  in
  d.d_pkt <- pkt;
  Engine.schedule_at t.eng arrival d.arrive

let matches (l : link) (pkt : Packet.t) =
  (match l.src with None -> true | Some a -> a = pkt.src)
  && match l.dst with None -> true | Some a -> a = pkt.dst

(* Matching link rules apply in installation order: each may drop the
   packet, add its delay and draw a duplicate. *)
let rec through_links t (pkt : Packet.t) ~tx_done ~delay ~dup = function
  | [] ->
      let arrival = tx_done +. wire_latency +. switch_latency +. delay in
      deliver_at t pkt ~arrival;
      if dup then begin
        (* an independent copy: downstream filters rewrite in place *)
        t.counts.duplicates <- t.counts.duplicates + 1;
        deliver_at t (Packet.copy pkt) ~arrival
      end
  | l :: rest when not (matches l pkt) -> through_links t pkt ~tx_done ~delay ~dup rest
  | l :: rest ->
      if l.drop > 0.0 && Slice_util.Prng.float t.prng 1.0 < l.drop then begin
        t.dropped <- t.dropped + 1;
        t.counts.link_drops <- t.counts.link_drops + 1
      end
      else
        let dup' = l.dup > 0.0 && Slice_util.Prng.float t.prng 1.0 < l.dup in
        through_links t pkt ~tx_done ~delay:(delay +. l.delay) ~dup:(dup || dup') rest

(* Loss first, then the partition, then the link rules. The PRNG is only
   drawn for faults in force, so a fault that never matches leaves the
   random stream as it was. *)
let transmit_faulty t (pkt : Packet.t) ~tx_done =
  let fs = t.faults in
  if fs.loss > 0.0 && Slice_util.Prng.float t.prng 1.0 < fs.loss then t.dropped <- t.dropped + 1
  else if fs.cut <> [] && List.mem pkt.src fs.cut <> List.mem pkt.dst fs.cut then begin
    t.dropped <- t.dropped + 1;
    t.counts.partition_drops <- t.counts.partition_drops + 1
  end
  else through_links t pkt ~tx_done ~delay:0.0 ~dup:false fs.links

let transmit t (pkt : Packet.t) =
  if pkt.dst < 0 || pkt.dst >= t.n then t.dropped <- t.dropped + 1
  else begin
    t.sent <- t.sent + 1;
    let size = Packet.wire_size pkt in
    t.bytes <- t.bytes + size;
    let src = get t pkt.src in
    let tx_done = Resource.reserve src.tx (float_of_int size /. bandwidth) in
    if not src.up then begin
      (* a crashed host transmits nothing *)
      t.dropped <- t.dropped + 1;
      t.counts.node_drops <- t.counts.node_drops + 1
    end
    else if t.faults == no_faults then
      deliver_at t pkt ~arrival:(tx_done +. wire_latency +. switch_latency)
    else transmit_faulty t pkt ~tx_done
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

(* ---- faults ---- *)

let set_node_up t a up = (get t a).up <- up
let node_up t a = (get t a).up

let fault t f =
  let fs = t.faults in
  let fs =
    match f with
    | Loss p -> { fs with loss = p }
    | Link l -> { fs with links = fs.links @ [ l ] }
    | Partition side -> { fs with cut = side }
    | Heal -> { fs with cut = [] }
  in
  t.faults <- (if fs.loss = 0.0 && fs.cut = [] && fs.links = [] then no_faults else fs)

let fault_counts t = t.counts
let fault_drops t = t.counts.node_drops + t.counts.link_drops + t.counts.partition_drops

let packets_sent t = t.sent
let bytes_sent t = t.bytes
let packets_dropped t = t.dropped
let nic_busy_time t a = Resource.busy_time (get t a).tx
