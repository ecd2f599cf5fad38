(** Datagram RPC endpoint with end-to-end retransmission.

    This is the client side of the NFS/RPC/UDP stack the paper relies on
    for correctness: the µproxy "is free to discard its state and/or
    pending packets without compromising correctness — end-to-end
    protocols retransmit packets as necessary to recover from drops in the
    µproxy". Replies are matched to calls by XID (first big-endian word of
    the payload). *)

exception Timeout
(** Raised when all retransmissions are exhausted. *)

type t

val create : Net.t -> Packet.addr -> port:int -> t
(** [create net addr ~port] claims [addr:port] for reply dispatch. *)

val addr : t -> Packet.addr

val fresh_xid : t -> int
(** Allocate the next XID from the network's per-simulation counter
    (callers that build their own payloads must place it in the first
    word).  Equal to {!Net.fresh_xid} on the endpoint's network. *)

val call :
  t ->
  ?timeout:float ->
  ?retries:int ->
  ?backoff:float ->
  ?max_timeout:float ->
  ?span:Slice_trace.Trace.span ->
  dst:Packet.addr ->
  dport:int ->
  ?extra_size:int ->
  bytes ->
  bytes
(** [call t ~dst ~dport payload] sends the payload (whose first word must
    be a fresh XID from {!fresh_xid}) and parks the calling fiber until a
    matching reply arrives, raising {!Timeout} after [retries]
    retransmissions (default 8). The retransmit schedule starts at
    [timeout] seconds (default 0.1) and grows by factor [backoff]
    (default 2) up to [max_timeout] (default 2 s, or [timeout] if that is
    larger), with up to 10 % additive jitter from a deterministic
    per-endpoint stream — exponential backoff stops the fixed-interval
    retransmit storm under sustained loss while jitter decorrelates
    clients that lost packets together. Returns the reply payload.
    When [span] is live, an ["rpc"] child span covers the call and is
    bound to the xid while outstanding, so server-side spans for this
    request attach under it.

    [call] takes ownership of [payload]: the first attempt puts those
    very bytes on the wire, where an interposed filter may rewrite them
    in place, so pass a freshly encoded buffer and do not reuse it.
    Retransmissions carry the bytes as they were at the call, from a
    copy the endpoint keeps. *)

val retransmissions : t -> int
(** Total timeout-triggered resends across all calls. *)

val timeouts : t -> int
(** Calls that exhausted their retransmission budget and raised
    {!Timeout}. *)

val calls_completed : t -> int

val pending_calls : t -> int
(** Calls currently awaiting a reply (0 at quiesce). *)

val pool_size : t -> int
(** Call records the endpoint has created: the peak number of calls it
    has had outstanding at once. A finished call's record is reused by
    the next call. *)

type endpoint_stats = { calls : int; retransmits : int; timeouts : int }

val endpoint_stats : t -> Packet.addr -> endpoint_stats
(** Per-destination counters: how a specific server behaved from this
    endpoint's point of view (all zero for a destination never called). *)
