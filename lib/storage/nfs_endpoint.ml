module Engine = Slice_sim.Engine
module Packet = Slice_net.Packet
module Net = Slice_net.Net
module Nfs = Slice_nfs.Nfs
module Codec = Slice_nfs.Codec
module Trace = Slice_trace.Trace
module Lru = Slice_util.Lru
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

type server = {
  host : Host.t;
  cost : cost;
  alive : unit -> bool;
  trace : Trace.t option;
  qos : Wfq.t option;
  handler : Trace.span -> Nfs.call -> Nfs.response;
  drc : (int, Nfs.response) Lru.t;
  in_flight : (int, unit) Hashtbl.t;
}

(* Run the handler, then encode its reply once and send it. *)
let execute s (pkt : Packet.t) xid call =
  let span =
    Trace.child (Trace.span_of_xid s.trace xid) ~op:(Nfs.call_name call) ~hop:"server"
      ~site:(Host.name s.host) ()
  in
  let in_bytes = request_data_bytes call in
  Host.cpu s.host (s.cost.per_op +. (s.cost.per_byte *. float_of_int in_bytes));
  let resp = s.handler span call in
  let out_bytes = response_data_bytes resp in
  if out_bytes > 0 then Host.cpu s.host (s.cost.per_byte *. float_of_int out_bytes);
  let outcome = match resp with Ok _ -> "ok" | Error e -> Nfs.status_name e in
  Trace.finish ~outcome span;
  let payload = Codec.encode_reply ~xid resp in
  Hashtbl.remove s.in_flight xid;
  Lru.add s.drc xid resp;
  reply_to s.host pkt ~extra_size:(Codec.extra_size_of_response resp) payload

let receive s (pkt : Packet.t) =
  (* A crashed service is silent: no decode, no error reply — the client's
     end-to-end retransmission is the recovery. *)
  if s.alive () && Slice_net.Cksum.verify pkt then
    match Codec.decode_call pkt.payload with
    | exception Codec.Malformed _ -> () (* garbage: drop; client retransmits *)
    | xid, call -> (
        match Lru.find s.drc xid with
        | Some resp ->
            (* retransmission of a completed request: the encoder is
               deterministic, so re-encoding resends the original bytes *)
            Host.cpu s.host s.cost.per_op;
            reply_to s.host pkt ~extra_size:(Codec.extra_size_of_response resp)
              (Codec.encode_reply ~xid resp)
        | None ->
            if not (Hashtbl.mem s.in_flight xid) then begin
              (* a retransmission racing the original execution is dropped;
                 the eventual reply satisfies both — and the mark goes in
                 before any WFQ wait, so a request parked in a tenant queue
                 is already deduplicated *)
              Hashtbl.replace s.in_flight xid ();
              match s.qos with
              | None -> execute s pkt xid call
              | Some q ->
                  (* Fair queueing replaces FIFO dispatch: the request waits
                     its turn in its tenant's queue; the done_ continuation
                     fires after the reply is sent, so [depth] bounds true
                     concurrent service. *)
                  let tenant = Wfq.tenant_of q pkt.src in
                  Wfq.submit q ~tenant ~cost:(estimate_cost s.cost call) (fun done_ ->
                      execute s pkt xid call;
                      done_ ())
            end)

let serve (host : Host.t) ~port ~cost ?(alive = fun () -> true) ?trace ?qos ~handler () =
  let s =
    {
      host;
      cost;
      alive;
      trace;
      qos;
      handler;
      (* Duplicate request cache: a retransmitted non-idempotent call
         (create, remove, rename, ...) whose reply was lost must get the
         cached reply, not a re-execution. Keyed by XID (globally unique
         here). It holds the response, not its bytes: a hit re-encodes. *)
      drc = Lru.create ~capacity:512 ();
      (* lint: bounded — one row per request being executed; removed with the reply *)
      in_flight = Hashtbl.create 32;
    }
  in
  Net.listen host.net host.addr ~port (fun pkt -> Engine.spawn host.eng (fun () -> receive s pkt))

let serve_raw (host : Host.t) ~port ~handler = Net.listen host.net host.addr ~port handler
