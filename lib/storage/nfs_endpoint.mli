(** Server-side NFS endpoint: listens on a host port, decodes calls,
    charges per-request CPU, runs the handler in a fiber, and sends the
    encoded reply back to the requester. All Slice server classes and the
    baseline servers are built on this; the peer and control ports on
    {!serve_msg}.

    It is the one fail-stop gate (DESIGN.md §8): a request is admitted
    only while its server's {!Tenure} is up, and a crash since its
    admission (seen after the CPU wait and before the reply) ends it
    without a handler run, a reply or a request-table row. *)

type cost = { per_op : float; per_byte : float }
(** CPU consumed per request: fixed cost plus cost proportional to the
    data payload moved (copies/checksums through the server stack). *)

val serve :
  Host.t ->
  port:int ->
  cost:cost ->
  tenure:Tenure.t ->
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
    grown to their peak, and neither does the request's own record: the
    packet, call and crash count it carries from arrival to reply sit in
    a pooled record whose fiber body and WFQ job are built with it, so a
    request allocates its call, its response and its reply's bytes and
    packet. A handler that raises {!Slice_wal.Wal.Crashed}
    or, when a call it made to another server ran out of retries,
    {!Slice_net.Rpc.Timeout}, sends no reply and leaves no row.

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

val serve_msg :
  Host.t ->
  port:int ->
  tenure:Tenure.t ->
  cpu:float ->
  ?trace:Slice_trace.Trace.t ->
  decode:(bytes -> 'msg) ->
  encode:(xid:int -> 'reply -> bytes) ->
  handler:(Slice_trace.Trace.span -> 'msg -> 'reply) ->
  unit ->
  unit
(** A message protocol behind the same gate: each message gets a fiber
    (on a pooled record, as {!serve}'s requests do), is decoded
    ([decode] raises {!Slice_nfs.Codec.Malformed} to drop it; the xid is
    read from the payload's first word), charged [cpu] seconds, and
    answered with the handler's reply, or with nothing if the handler
    raises {!Slice_wal.Wal.Crashed} or {!Slice_net.Rpc.Timeout}. No request table: re-sent messages
    run again, so they must be idempotent. With [trace], a ["server"]
    hop under the xid's span, handed to the handler. *)

val serve_raw :
  Host.t ->
  port:int ->
  handler:(Slice_net.Packet.t -> unit) ->
  unit
(** Escape hatch: dispatch without decode or gate; the handler spawns
    its own fibers. *)

val reply_to :
  Host.t -> Slice_net.Packet.t -> ?extra_size:int -> bytes -> unit
(** Send [payload] back to the source of [pkt], from this host. *)
