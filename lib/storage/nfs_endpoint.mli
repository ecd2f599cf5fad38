(** Server-side NFS endpoint: listens on a host port, decodes calls,
    charges per-request CPU, runs the handler in a fiber, and sends the
    encoded reply back to the requester. All Slice server classes and the
    baseline servers are built on this. *)

type cost = { per_op : float; per_byte : float }
(** CPU consumed per request: fixed cost plus cost proportional to the
    data payload moved (copies/checksums through the server stack). *)

val serve :
  Host.t ->
  port:int ->
  cost:cost ->
  ?alive:(unit -> bool) ->
  ?trace:Slice_trace.Trace.t ->
  ?qos:Slice_qos.Wfq.t ->
  handler:(Slice_trace.Trace.span -> Slice_nfs.Nfs.call -> Slice_nfs.Nfs.response) ->
  unit ->
  unit
(** The handler runs in a fiber and may use storage/cache/RPC operations
    that park. Malformed packets are dropped (the client retransmits).

    Each endpoint deduplicates by xid. A retransmission of a request
    still running (or waiting in [qos]) is dropped; the original's reply
    answers both. However many requests run, the replies of the 512 most
    recently completed ones are kept: a retransmission of one of them
    gets the cached reply again, re-encoded, without running the
    handler, and counts as a use for recency. The two tables behind this
    ({!Slice_util.Slot_lru}) allocate nothing per request once they have
    grown to their peak.
    While [alive] (default: always) returns [false] the endpoint is
    silent — packets are swallowed without decode or reply, modeling a
    crashed service whose clients recover by retransmission.

    With [trace], each executed request gets a ["server"] span covering
    CPU charge + handler + reply encode, parented under the span bound
    to the request's xid (see {!Slice_net.Rpc.call} and the µproxy);
    its outcome is the NFS status. The span is handed to the handler so
    deeper hops (disk, WAL) can nest under it; handlers get
    {!Slice_trace.Trace.null} when tracing is off.

    With [qos], executed requests pass through the per-tenant WFQ
    scheduler instead of FIFO dispatch: the source address classifies
    the tenant, the request's estimated CPU is its scheduling cost, and
    service order under saturation is weight-proportional. DRC hits and
    drops bypass the scheduler (they cost one op and must stay fast).
    Without [qos] the path is unchanged. *)

val serve_raw :
  Host.t ->
  port:int ->
  handler:(Slice_net.Packet.t -> unit) ->
  unit
(** Escape hatch for non-NFS protocols (coordinator/peer messages):
    dispatch without decode; the handler spawns its own fibers. *)

val reply_to :
  Host.t -> Slice_net.Packet.t -> ?extra_size:int -> bytes -> unit
(** Send [payload] back to the source of [pkt], from this host. *)
