(** Switched-LAN model: nodes with full-duplex NICs attached to a single
    switch, per-endpoint transmit/receive serialization (bandwidth), fixed
    wire + switch latency, optional random loss, and per-node egress /
    ingress packet filters — the interposition points where the Slice
    µproxy lives ("configurable to run as an intermediary at any point in
    the network between a client and the server ensemble").

    Filters run synchronously in event context and must not park; they may
    rewrite the packet in place, absorb it (return [None]), and initiate
    new packets via {!send} or {!inject}. *)

type t

type params = {
  bandwidth : float;  (** per-NIC bytes/second (full duplex, each way) *)
  wire_latency : float;  (** propagation delay per hop, seconds *)
  switch_latency : float;  (** forwarding latency of the switch, seconds *)
  drop_prob : float;  (** iid loss probability per packet *)
}

val default_params : params
(** Gigabit Ethernet with jumbo frames, per the paper's testbed:
    125 MB/s NICs, ~10 µs wire + ~8 µs switch latency, no loss. *)

val create : Slice_sim.Engine.t -> ?params:params -> ?seed:int -> unit -> t
val engine : t -> Slice_sim.Engine.t

val fresh_xid : t -> int
(** Next transaction id from this network's private counter (32-bit
    wrap).  One stream per simulated network keeps xids unique across
    all its endpoints while staying deterministic even when several
    simulations run in one process. *)

val add_node : t -> name:string -> Packet.addr
(** Attach a host; allocates its NIC resources. Addresses are dense
    small ints. *)

val node_name : t -> Packet.addr -> string
val node_count : t -> int

val listen : t -> Packet.addr -> port:int -> (Packet.t -> unit) -> unit
(** Register the datagram handler for [addr:port]. Packets to an
    unregistered port are counted as drops. *)

type filter = Packet.t -> Packet.t option

val add_egress_filter : t -> Packet.addr -> filter -> unit
(** Filters apply in registration order to every packet leaving [addr]. *)

val add_ingress_filter : t -> Packet.addr -> filter -> unit
(** Filters apply to every packet arriving at [addr], before dispatch. *)

val send : t -> Packet.t -> unit
(** Transmit from [pkt.src]: egress filters, NIC serialization, latency,
    loss, receive serialization, ingress filters, dispatch. *)

val inject : t -> Packet.t -> unit
(** Like {!send} but skipping the source's egress filters: used by a
    filter that emits packets of its own (a filter re-sending through
    itself would loop). *)

val dispatch : t -> Packet.t -> unit
(** Deliver straight to the destination's port handler, bypassing
    filters, NICs and latency: how an interposed filter hands an
    already-arrived packet onward after processing it. *)

(** {2 Fault injection}

    A deterministic fault schedule layered on the switched LAN, driven by
    the same seeded PRNG as [drop_prob] (runs stay bit-reproducible; the
    PRNG is only consulted for faults actually configured). Three fault
    classes:

    - {e node crashes}: a down node transmits nothing and loses every
      packet that lands on it, in both directions — a dead host is silent,
      it does not refuse;
    - {e link faults}: per-(src, dst) drop probability, added one-way
      delay, and duplicate probability ([None] endpoints match any
      address);
    - {e partitions}: a node-grouping function; packets crossing groups
      are dropped until the partition heals.

    End-to-end retransmission (client RPC) is what recovers; the counters
    below let tests assert that injected faults actually bit. *)

val set_node_up : t -> Packet.addr -> bool -> unit
(** Crash ([false]) or recover ([true]) a node at the net layer. *)

val node_up : t -> Packet.addr -> bool

val schedule_crash : t -> Packet.addr -> at:float -> until:float -> unit
(** Pre-plan a crash window \[[at], [until]) in absolute simulated time.
    Raises [Invalid_argument] if [until <= at]. *)

val add_link_fault :
  t ->
  ?src:Packet.addr ->
  ?dst:Packet.addr ->
  ?drop:float ->
  ?delay:float ->
  ?dup:float ->
  unit ->
  unit
(** Install a link-fault rule. Matching rules apply in installation
    order: each may drop the packet (probability [drop]), add [delay]
    seconds of one-way latency, and deliver a duplicate copy
    (probability [dup]). *)

val set_partition : t -> (Packet.addr -> int) -> unit
(** Partition the LAN: packets between nodes in different groups are
    dropped. *)

val clear_partition : t -> unit
(** Heal the partition. *)

val fault_node_drops : t -> int
(** Packets lost to a down node (either endpoint). *)

val fault_link_drops : t -> int
val fault_partition_drops : t -> int
val fault_duplicates : t -> int

val fault_drops : t -> int
(** Sum of node, link and partition drops (excludes iid [drop_prob]
    losses, which count only in {!packets_dropped}). *)

(** {2 Accounting} *)

val packets_sent : t -> int
val bytes_sent : t -> int
val packets_dropped : t -> int
(** Loss-injected (iid and fault-schedule) plus no-handler drops. *)

val nic_busy_time : t -> Packet.addr -> float
(** Transmit-side NIC busy seconds for a node. *)
