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

val fresh_xid : t -> int
(** Allocate the next XID from the network's per-simulation counter
    (callers that build their own payloads must place it in the first
    word).  Equal to {!Net.fresh_xid} on the endpoint's network. *)

val call :
  t ->
  ?timeout:float ->
  ?retries:int ->
  ?span:Slice_trace.Trace.span ->
  dst:Packet.addr ->
  dport:int ->
  ?extra_size:int ->
  bytes ->
  bytes
(** [call t ~dst ~dport payload] sends the payload (whose first word must
    be a fresh XID from {!fresh_xid}) and parks the calling fiber until a
    matching reply arrives, raising {!Timeout} after [retries]
    retransmissions (default [attempts - 1]). The retransmit schedule starts at
    [timeout] seconds (default 0.1) and doubles on each retransmission up
    to 2 s (or [timeout], if that is larger), with up to 10 % additive jitter from a deterministic
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

val attempts : int
(** Transmissions of a call that hears nothing (9): the one re-send
    budget. *)

val pause : float
(** The one re-send pause (10 ms). *)

val call_role :
  t ->
  span:Slice_trace.Trace.span ->
  timeout:float ->
  holder:(int -> Packet.addr) ->
  site:int ->
  dst:Packet.addr ->
  dport:int ->
  refused:(bytes -> bool) ->
  extra_size:int ->
  bytes ->
  bytes
(** {!call}, with [timeout] as its first retransmit timeout, to whoever
    holds a role: a logical site, or the coordinator. The first
    transmission goes to [dst], the caller's reading of the holder;
    every later one goes to [holder site] read as it is sent, so a
    retransmission follows a move or a takeover. A reply [refused] picks
    (a bounce, a deposed coordinator's Nack) sends the call again under
    a fresh xid, since a server answers an xid it has seen from its
    request table: at once if the holder moved, after {!pause} times the
    refusals so far if not. A call only refused raises {!Timeout} after
    19.8 s of refusals, as long as nine silent transmissions wait at
    most. The arguments are labelled, not optional, so pass closures
    built once and the call allocates no more than {!call}. *)

val crash : t -> unit
(** The host crashed: every outstanding call raises {!Timeout} now and
    sends nothing more. *)

val retransmissions : t -> int
(** Total timeout-triggered resends across all calls. *)

val timeouts : t -> int
(** Calls that raised {!Timeout}: those that exhausted their
    retransmission budget, role calls that gave up after being refused
    for 19.8 s, and calls a {!crash} ended. *)

val calls_completed : t -> int

val pending_calls : t -> int
(** Calls currently awaiting a reply (0 at quiesce). *)

val pool_size : t -> int
(** Call records the endpoint has created: the peak number of calls it
    has had outstanding at once. Each record belongs to a slot of the
    endpoint's call table and is built when the slot is first used; a
    finished call's record is reused by the next call in its slot. *)

type endpoint_stats = private { mutable calls : int; mutable retransmits : int; mutable timeouts : int }

val endpoint_stats : t -> Packet.addr -> endpoint_stats
(** Per-destination counters, live, kept where each transmission went (a
    call's {!Timeout} where its last one went): how a specific server
    behaved from this endpoint's point of view (all zero for a
    destination never sent to). *)
