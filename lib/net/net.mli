(** Switched-LAN model: nodes with full-duplex NICs attached to a single
    switch, per-endpoint transmit/receive serialization (bandwidth), fixed
    wire + switch latency, injectable faults, and per-node egress /
    ingress packet filters — the interposition points where the Slice
    µproxy lives ("configurable to run as an intermediary at any point in
    the network between a client and the server ensemble").

    Filters run synchronously in event context and must not park; they may
    rewrite the packet in place, absorb it (return [None]), and initiate
    new packets via {!send} or {!inject}. *)

type t

val create : Slice_sim.Engine.t -> ?seed:int -> unit -> t
(** A fault-free LAN. The link model is fixed: Gigabit Ethernet with
    jumbo frames, per the paper's testbed — 125 MB/s NICs, ~10 µs wire
    + ~8 µs switch latency. [seed] drives the fault PRNG. *)

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

(** {2 Faults}

    Faults are driven by a PRNG seeded at {!create}, so runs stay
    bit-reproducible; it is drawn only for faults in force. Node crashes
    are {!set_node_up}: a down node transmits nothing and loses every
    packet that lands on it, in both directions — a dead host is silent,
    it does not refuse. {!fault} sets everything else, and
    [Slice.Fault] places both on a time schedule.

    End-to-end retransmission (client RPC) is what recovers; the
    counters below let tests assert that injected faults actually bit. *)

type link = {
  src : Packet.addr option;  (** [None] matches any sender *)
  dst : Packet.addr option;  (** [None] matches any receiver *)
  drop : float;  (** drop probability *)
  delay : float;  (** added one-way latency, seconds *)
  dup : float;  (** probability of delivering a second copy *)
}
(** A link rule, applied to every packet whose (src, dst) pair matches. *)

type fault =
  | Loss of float
      (** iid loss probability for every packet from now on; [Loss 0.0]
          ends it. Drawn before the partition and the link rules. *)
  | Link of link
      (** add a link rule; matching rules apply in the order added, each
          may drop the packet, add its delay and draw a duplicate *)
  | Partition of Packet.addr list
      (** cut the listed nodes off from the rest: packets between the two
          sides are dropped. Replaces any earlier partition. *)
  | Heal  (** end the partition *)

val fault : t -> fault -> unit

val set_node_up : t -> Packet.addr -> bool -> unit
(** Crash ([false]) or recover ([true]) a node at the net layer. *)

val node_up : t -> Packet.addr -> bool

type fault_counts = private {
  mutable node_drops : int;  (** lost to a down node (either endpoint) *)
  mutable link_drops : int;
  mutable partition_drops : int;
  mutable duplicates : int;
}

val fault_counts : t -> fault_counts
(** The live counters; each of these drops also counts in
    {!packets_dropped}, and so does iid loss, which has no counter of its
    own. *)

val fault_drops : t -> int
(** Node, link and partition drops: every loss but iid loss. *)

(** {2 Accounting} *)

val packets_sent : t -> int
val bytes_sent : t -> int
val packets_dropped : t -> int
(** Fault losses plus no-handler drops. *)

val nic_busy_time : t -> Packet.addr -> float
(** Transmit-side NIC busy seconds for a node. *)
