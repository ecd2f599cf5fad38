module Engine = Slice_sim.Engine
module Packet = Slice_net.Packet
module Net = Slice_net.Net
module Nfs = Slice_nfs.Nfs
module Codec = Slice_nfs.Codec
module Trace = Slice_trace.Trace
module Xid_index = Slice_util.Xid_index
module Wfq = Slice_qos.Wfq

type cost = { per_op : float; per_byte : float }

let reply_to (host : Host.t) (pkt : Packet.t) ?(extra_size = 0) payload =
  let reply =
    Packet.make ~src:host.addr ~dst:pkt.src ~sport:pkt.dport ~dport:pkt.sport ~extra_size
      payload
  in
  Net.send host.net reply

let request_data_bytes (call : Nfs.call) =
  match call with Nfs.Write (_, _, _, d) -> Nfs.wdata_length d | _ -> 0

let response_data_bytes (resp : Nfs.response) =
  match resp with Ok (Nfs.RRead (d, _, _)) -> Nfs.wdata_length d | _ -> 0

(* WFQ cost estimate: the CPU this request will charge. For reads the
   response size isn't known until the handler runs, so the requested
   count stands in for it — an upper bound, and the right one for
   scheduling (a tenant pays for what it asked to move). *)
let estimate_cost cost (call : Nfs.call) =
  let data =
    match call with
    | Nfs.Write (_, _, _, d) -> Nfs.wdata_length d
    | Nfs.Read (_, _, count) -> count
    | _ -> 0
  in
  cost.per_op +. (cost.per_byte *. float_of_int data)

(* The request table: one slot per xid the server is running or has
   recently completed, found through [index]. A running slot holds
   [running] in [resp]; a completed one holds its response and is linked
   through [older]/[newer] into a recency list. At most [drc_capacity]
   completed slots are kept, so the completed slots are the duplicate
   request cache and the running ones the in-flight marks. Free slots
   chain through [older]. *)
type server = {
  host : Host.t;
  cost : cost;
  alive : unit -> bool;
  trace : Trace.t option;
  qos : Wfq.t option;
  handler : Trace.span -> Nfs.call -> Nfs.response;
  index : Xid_index.t;
  mutable resp : Nfs.response array;
  mutable older : int array;
  mutable newer : int array;
  mutable newest : int; (* -1: no completed slot *)
  mutable oldest : int;
  mutable completed : int;
  mutable free : int;
}

(* Duplicate request cache: a retransmitted non-idempotent call (create,
   remove, rename, ...) whose reply was lost must get the cached reply,
   not a re-execution. Keyed by xid, which is unique per simulation. It
   holds the response, not its bytes: a hit re-encodes. *)
let drc_capacity = 512

(* Physically distinct from every handler's response. *)
let running : Nfs.response = Error (Sys.opaque_identity Nfs.ERR_IO)

let[@hot] unlink s i =
  let o = s.older.(i) and n = s.newer.(i) in
  if o >= 0 then s.newer.(o) <- n else s.oldest <- n;
  if n >= 0 then s.older.(n) <- o else s.newest <- o

let[@hot] push_newest s i =
  s.older.(i) <- s.newest;
  s.newer.(i) <- -1;
  if s.newest >= 0 then s.newer.(s.newest) <- i else s.oldest <- i;
  s.newest <- i

(* A hit makes its entry the newest. *)
let[@hot] promote s i =
  if s.newest <> i then begin
    unlink s i;
    push_newest s i
  end

(* The running slot takes its response and becomes the newest entry;
   past capacity, the oldest entry leaves the table. *)
let[@hot] complete s i resp =
  s.resp.(i) <- resp;
  push_newest s i;
  if s.completed < drc_capacity then s.completed <- s.completed + 1
  else begin
    let o = s.oldest in
    unlink s o;
    ignore (Xid_index.remove s.index (Xid_index.key s.index o));
    s.resp.(o) <- running;
    s.older.(o) <- s.free;
    s.free <- o
  end

(* Cold: every slot is in use. Doubling links the new slots into the
   free list. *)
let grow s =
  let n = Array.length s.resp in
  let cap = if n = 0 then 64 else 2 * n in
  let widen a fill =
    let b = Array.make cap fill in
    Array.blit a 0 b 0 n;
    b
  in
  s.resp <- widen s.resp running;
  s.older <- widen s.older (-1);
  s.newer <- widen s.newer (-1);
  for i = cap - 1 downto n do
    s.older.(i) <- s.free;
    s.free <- i
  done;
  Xid_index.resize s.index cap

(* Mark [xid] running; a free slot holds [running] already. *)
let start s xid =
  if s.free < 0 then grow s;
  let i = s.free in
  s.free <- s.older.(i);
  Xid_index.add s.index ~xid ~slot:i;
  i

(* Run the handler, then encode its reply once and send it. The trace
   calls run only on live spans. *)
let execute s (pkt : Packet.t) slot call =
  let xid = Xid_index.key s.index slot in
  let parent = Trace.span_of_xid s.trace xid in
  let span =
    if Trace.is_live parent then
      Trace.child parent ~op:(Nfs.call_name call) ~hop:"server" ~site:(Host.name s.host) ()
    else Trace.null
  in
  let in_bytes = request_data_bytes call in
  Host.cpu s.host (s.cost.per_op +. (s.cost.per_byte *. float_of_int in_bytes));
  let resp = s.handler span call in
  let out_bytes = response_data_bytes resp in
  if out_bytes > 0 then Host.cpu s.host (s.cost.per_byte *. float_of_int out_bytes);
  if Trace.is_live span then
    Trace.finish ~outcome:(match resp with Ok _ -> "ok" | Error e -> Nfs.status_name e) span;
  let payload = Codec.encode_reply ~xid resp in
  complete s slot resp;
  reply_to s.host pkt ~extra_size:(Codec.extra_size_of_response resp) payload

let receive s (pkt : Packet.t) =
  (* A crashed service is silent: no decode, no error reply — the client's
     end-to-end retransmission is the recovery. *)
  if s.alive () && Slice_net.Cksum.verify pkt then
    match Codec.decode_call pkt.payload with
    | exception Codec.Malformed _ -> () (* garbage: drop; client retransmits *)
    | xid, call ->
        let slot = Xid_index.find s.index xid in
        if slot >= 0 then begin
          let resp = s.resp.(slot) in
          (* a retransmission racing the original execution is dropped;
             the eventual reply satisfies both *)
          if resp != running then begin
            (* retransmission of a completed request: the encoder is
               deterministic, so re-encoding resends the original bytes *)
            promote s slot;
            Host.cpu s.host s.cost.per_op;
            reply_to s.host pkt ~extra_size:(Codec.extra_size_of_response resp)
              (Codec.encode_reply ~xid resp)
          end
        end
        else begin
          (* the mark goes in before any WFQ wait, so a request parked in
             a tenant queue is already deduplicated *)
          let slot = start s xid in
          match s.qos with
          | None -> execute s pkt slot call
          | Some q ->
              (* Fair queueing replaces FIFO dispatch: the request waits
                 its turn in its tenant's queue; the done_ continuation
                 fires after the reply is sent, so [depth] bounds true
                 concurrent service. *)
              let tenant = Wfq.tenant_of q pkt.src in
              Wfq.submit q ~tenant ~cost:(estimate_cost s.cost call) (fun done_ ->
                  execute s pkt slot call;
                  done_ ())
        end

let serve (host : Host.t) ~port ~cost ?(alive = fun () -> true) ?trace ?qos ~handler () =
  let s =
    {
      host;
      cost;
      alive;
      trace;
      qos;
      handler;
      index = Xid_index.create 16;
      resp = [||];
      older = [||];
      newer = [||];
      newest = -1;
      oldest = -1;
      completed = 0;
      free = -1;
    }
  in
  Net.listen host.net host.addr ~port (fun pkt -> Engine.spawn host.eng (fun () -> receive s pkt))

let serve_raw (host : Host.t) ~port ~handler = Net.listen host.net host.addr ~port handler
