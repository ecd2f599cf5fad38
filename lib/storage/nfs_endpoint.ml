module Engine = Slice_sim.Engine
module Packet = Slice_net.Packet
module Net = Slice_net.Net
module Nfs = Slice_nfs.Nfs
module Codec = Slice_nfs.Codec
module Trace = Slice_trace.Trace
module Slot_lru = Slice_util.Slot_lru
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
let[@inline] estimate_cost cost (call : Nfs.call) =
  let data =
    match call with
    | Nfs.Write (_, _, _, d) -> Nfs.wdata_length d
    | Nfs.Read (_, _, count) -> count
    | _ -> 0
  in
  cost.per_op +. (cost.per_byte *. float_of_int data)

(* One request from its arrival to its reply: the packet, the decoded
   call and the server's crash count at admission. Records are pooled on
   an intrusive free list, as [Net] keeps its deliveries, and each builds
   its fiber body and its WFQ job once, when it is created. *)
type rx = {
  mutable pkt : Packet.t;
  mutable call : Nfs.call;
  mutable life : int;
  mutable next : rx; (* free-list link *)
  run : unit -> unit;
  job : (unit -> unit) -> unit;
}

let no_packet = Packet.make ~src:0 ~dst:0 ~sport:0 ~dport:0 Bytes.empty

(* Cyclic sentinel: terminates the free list without an option. *)
let rec no_rx =
  { pkt = no_packet; call = Nfs.Null; life = 0; next = no_rx; run = ignore; job = ignore }

type pool = { mutable free : rx }

(* The request table is two Slot_lru tables keyed by xid. [running]
   marks the requests being executed or waiting in a WFQ queue; it is as
   large as they are many. [done_] holds the [drc_capacity] most
   recently completed requests, their responses in [resp]: the duplicate
   request cache. *)
type server = {
  host : Host.t;
  cost : cost;
  tenure : Tenure.t;
  trace : Trace.t option;
  qos : Wfq.t option;
  handler : Trace.span -> Nfs.call -> Nfs.response;
  running : Slot_lru.t;
  done_ : Slot_lru.t;
  mutable resp : Nfs.response array;
  pool : pool;
}

(* Duplicate request cache: a retransmitted non-idempotent call (create,
   remove, rename, ...) whose reply was lost must get the cached reply,
   not a re-execution. Keyed by xid, which is unique per simulation. It
   holds the response, not its bytes: a hit re-encodes. *)
let drc_capacity = 512

(* [life] is the server's crash count when the request was admitted: a
   crash since, even one recovered from, ends the request. *)
let overtaken tenure life = Tenure.crashes tenure <> life

(* The pool's first record, or [no_rx] when it is empty. *)
let[@hot] take p =
  let r = p.free in
  if r != no_rx then begin
    p.free <- r.next;
    r.next <- no_rx
  end;
  r

(* Returning a record drops its packet and call, so the pool keeps no
   payload alive. *)
let[@hot] release p r =
  r.pkt <- no_packet;
  r.call <- Nfs.Null;
  r.next <- p.free;
  p.free <- r

(* Run the handler, then encode its reply once and send it. The trace
   calls run only on live spans. Completion moves the xid from [running]
   to [done_], evicting the oldest completed entry past capacity. A
   request overtaken by a crash, whose journal round one dropped, or
   whose call to another server timed out, leaves no row: the
   retransmission runs the call afresh. The xid is read where it sits,
   in the packet. *)
let execute s r =
  let pkt = r.pkt and call = r.call and life = r.life in
  let xid = Codec.xid_of pkt.Packet.payload in
  let parent = Trace.span_of_xid s.trace xid in
  let span =
    if Trace.is_live parent then
      Trace.child parent ~op:(Nfs.call_name call) ~hop:"server" ~site:(Host.name s.host) ()
    else Trace.null
  in
  let in_bytes = request_data_bytes call in
  Host.cpu s.host (s.cost.per_op +. (s.cost.per_byte *. float_of_int in_bytes));
  if overtaken s.tenure life then Slot_lru.remove s.running xid
  else
    match s.handler span call with
    | exception (Slice_wal.Wal.Crashed | Slice_net.Rpc.Timeout) -> Slot_lru.remove s.running xid
    | resp ->
        let out_bytes = response_data_bytes resp in
        if out_bytes > 0 then Host.cpu s.host (s.cost.per_byte *. float_of_int out_bytes);
        Slot_lru.remove s.running xid;
        if not (overtaken s.tenure life) then begin
          if Trace.is_live span then
            Trace.finish ~outcome:(match resp with Ok _ -> "ok" | Error e -> Nfs.status_name e) span;
          let payload = Codec.encode_reply ~xid resp in
          let i = Slot_lru.add s.done_ xid ~lease:infinity in
          s.resp <- Slot_lru.fit s.done_ s.resp resp;
          s.resp.(i) <- resp;
          reply_to s.host pkt ~extra_size:(Codec.extra_size_of_response resp) payload
        end

(* Fair queueing replaces FIFO dispatch: the request waits its turn in
   its tenant's queue; the completion continuation fires after the reply
   is sent, so [depth] bounds true concurrent service. *)
let run_job s r done_ =
  execute s r;
  release s.pool r;
  done_ ()

(* A request leaves the record in the WFQ queue, or returns it here. *)
let receive s r =
  (* A crashed service is silent: no decode, no error reply — the client's
     end-to-end retransmission is the recovery. *)
  let pkt = r.pkt in
  let life = Tenure.crashes s.tenure in
  let queued =
    Tenure.is_up s.tenure
    && Slice_net.Cksum.verify pkt
    &&
    match Codec.call_of_payload pkt.payload with
    | exception Codec.Malformed _ -> false (* garbage: drop; client retransmits *)
    | call ->
        let xid = Codec.xid_of pkt.payload in
        let i = Slot_lru.find s.done_ xid in
        if i >= 0 then begin
          (* retransmission of a completed request: the encoder is
             deterministic, so re-encoding resends the original bytes *)
          let resp = s.resp.(i) in
          Host.cpu s.host s.cost.per_op;
          if not (overtaken s.tenure life) then
            reply_to s.host pkt ~extra_size:(Codec.extra_size_of_response resp)
              (Codec.encode_reply ~xid resp);
          false
        end
        (* a retransmission racing the original execution is dropped;
           the eventual reply satisfies both *)
        else if Slot_lru.slot s.running xid >= 0 then false
        else begin
          (* the mark goes in before any WFQ wait, so a request parked in
             a tenant queue is already deduplicated *)
          ignore (Slot_lru.add s.running xid ~lease:infinity);
          r.call <- call;
          r.life <- life;
          match s.qos with
          | None ->
              execute s r;
              false
          | Some q ->
              let tenant = Wfq.tenant_of q pkt.src in
              Wfq.submit q ~tenant ~cost:(estimate_cost s.cost call) r.job;
              true
        end
  in
  if not queued then release s.pool r

(* Cold: the pool is empty. One new record, so the pool tracks the peak
   number of requests in service. *)
let new_rx s =
  let rec r =
    { pkt = no_packet; call = Nfs.Null; life = 0; next = no_rx; run = (fun () -> receive s r);
      job = (fun done_ -> run_job s r done_) }
  in
  r

let serve (host : Host.t) ~port ~cost ~tenure ?trace ?qos ~handler () =
  let s =
    {
      host;
      cost;
      tenure;
      trace;
      qos;
      handler;
      running = Slot_lru.create ~capacity:max_int;
      done_ = Slot_lru.create ~capacity:drc_capacity;
      resp = [||];
      pool = { free = no_rx };
    }
  in
  Net.listen host.net host.addr ~port (fun pkt ->
      let r = take s.pool in
      let r = if r == no_rx then new_rx s else r in
      r.pkt <- pkt;
      Engine.spawn host.eng r.run)

(* Cold: a record for [serve_msg]'s pool. Only its packet is used; its
   fiber body hands the packet to [receive] and returns the record. *)
let new_msg_rx pool receive =
  let rec r =
    { pkt = no_packet; call = Nfs.Null; life = 0; next = no_rx;
      run = (fun () -> receive r.pkt; release pool r); job = ignore }
  in
  r

(* The gate of [receive] and [execute], without request table or WFQ.
   Its messages sit in pooled [rx] records too, which saves the fiber
   closure per message (1.3 words/op on the benchmark's [sfs_mix]). *)
let serve_msg (host : Host.t) ~port ~tenure ~cpu ?trace ~decode ~encode ~handler () =
  let pool = { free = no_rx } in
  let receive (pkt : Packet.t) =
    let life = Tenure.crashes tenure in
    if Tenure.is_up tenure then
      match decode pkt.payload with
      | exception Codec.Malformed _ -> ()
      | msg -> (
          let xid = Codec.xid_of pkt.payload in
          let span =
            Trace.child (Trace.span_of_xid trace xid) ~hop:"server" ~site:(Host.name host) ()
          in
          Host.cpu host cpu;
          if not (overtaken tenure life) then
            match handler span msg with
            | exception (Slice_wal.Wal.Crashed | Slice_net.Rpc.Timeout) -> ()
            | reply ->
                if not (overtaken tenure life) then begin
                  Trace.finish span;
                  reply_to host pkt (encode ~xid reply)
                end)
  in
  Net.listen host.net host.addr ~port (fun pkt ->
      let r = take pool in
      let r = if r == no_rx then new_msg_rx pool receive else r in
      r.pkt <- pkt;
      Engine.spawn host.eng r.run)

let serve_raw (host : Host.t) ~port ~handler = Net.listen host.net host.addr ~port handler
