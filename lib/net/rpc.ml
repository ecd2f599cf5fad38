module Engine = Slice_sim.Engine

module Trace = Slice_trace.Trace

exception Timeout

type outcome = Reply of bytes | Timed_out

type ep = { mutable ep_calls : int; mutable ep_retransmits : int; mutable ep_timeouts : int }

type endpoint_stats = { calls : int; retransmits : int; timeouts : int }

type t = {
  net : Net.t;
  eng : Engine.t;
  addr : Packet.addr;
  port : int;
  prng : Slice_util.Prng.t;
  pending : (int, outcome -> unit) Hashtbl.t;
  endpoints : (Packet.addr, ep) Hashtbl.t;
  mutable retransmits : int;
  mutable timeouts : int;
  mutable completed : int;
}

(* One record per outstanding call holds everything a retransmission
   needs, so its timer closure is built once per call, not per attempt. *)
type call = {
  rpc : t;
  xid : int;
  payload : bytes;
  dst : Packet.addr;
  dport : int;
  extra_size : int;
  ep : ep;
  retries : int;
  backoff : float;
  cap : float;
  mutable attempt : int; (* 0 = the first send *)
  mutable cur : float; (* this attempt's timeout, before jitter *)
  mutable wake : outcome -> unit;
  mutable timer : unit -> unit;
}

let on_packet t (pkt : Packet.t) =
  if Bytes.length pkt.payload >= 4 then begin
    let xid = Int32.to_int (Bytes.get_int32_be pkt.payload 0) land 0xFFFFFFFF in
    match Hashtbl.find_opt t.pending xid with
    | None -> () (* duplicate reply after a retransmission: drop *)
    | Some wake ->
        Hashtbl.remove t.pending xid;
        t.completed <- t.completed + 1;
        wake (Reply pkt.payload)
  end

let create net addr ~port =
  let t =
    {
      net;
      eng = Net.engine net;
      addr;
      port;
      (* jitter stream seeded from the endpoint identity: deterministic
         across runs, decorrelated across endpoints *)
      prng = Slice_util.Prng.create ((addr * 65599) + port + 17);
      (* lint: bounded — one row per outstanding call; reply or timeout removes it *)
      pending = Hashtbl.create 64;
      (* lint: bounded — one row per (addr, port) peer in the ensemble *)
      endpoints = Hashtbl.create 8;
      retransmits = 0;
      timeouts = 0;
      completed = 0;
    }
  in
  Net.listen net addr ~port (on_packet t);
  t

let ep_of t dst =
  match Hashtbl.find_opt t.endpoints dst with
  | Some ep -> ep
  | None ->
      let ep = { ep_calls = 0; ep_retransmits = 0; ep_timeouts = 0 } in
      Hashtbl.replace t.endpoints dst ep;
      ep

let addr t = t.addr

(* XIDs come from the network's private counter so no two endpoints in a
   simulation ever collide (an interposed filter can key its soft state
   on the XID alone) and the stream stays deterministic even when
   several simulations run in one process. *)
let fresh_xid t = Net.fresh_xid t.net

(* Fraction of the current timeout added as uniform jitter, so a fleet of
   endpoints that lost packets together does not retransmit in lockstep. *)
let jitter_frac = 0.1

(* Send the current attempt unless a reply already completed the call. A
   fresh packet per attempt: an interposed filter may have rewritten the
   previous copy in place. *)
let transmit c =
  let t = c.rpc in
  if Hashtbl.mem t.pending c.xid then begin
    if c.attempt > 0 then begin
      t.retransmits <- t.retransmits + 1;
      c.ep.ep_retransmits <- c.ep.ep_retransmits + 1
    end;
    Net.send t.net
      (Packet.make ~src:t.addr ~dst:c.dst ~sport:t.port ~dport:c.dport ~extra_size:c.extra_size
         (Bytes.copy c.payload));
    let wait = c.cur *. (1.0 +. (jitter_frac *. Slice_util.Prng.float t.prng 1.0)) in
    Engine.schedule t.eng wait c.timer
  end

let expire c =
  let t = c.rpc in
  if Hashtbl.mem t.pending c.xid then
    if c.attempt < c.retries then begin
      let next = c.cur *. c.backoff in
      c.attempt <- c.attempt + 1;
      c.cur <- (if next > c.cap then c.cap else next);
      transmit c
    end
    else begin
      Hashtbl.remove t.pending c.xid;
      t.timeouts <- t.timeouts + 1;
      c.ep.ep_timeouts <- c.ep.ep_timeouts + 1;
      c.wake Timed_out
    end

let call t ?(timeout = 0.1) ?(retries = 8) ?(backoff = 2.0) ?(max_timeout = 2.0)
    ?(span = Trace.null) ~dst ~dport ?(extra_size = 0) payload =
  let xid = Int32.to_int (Bytes.get_int32_be payload 0) land 0xFFFFFFFF in
  let cap = if timeout > max_timeout then timeout else max_timeout in
  let ep = ep_of t dst in
  ep.ep_calls <- ep.ep_calls + 1;
  let sp = Trace.child span ~hop:"rpc" ~site:(Net.node_name t.net t.addr) () in
  Trace.bind_xid sp xid;
  let c =
    { rpc = t; xid; payload; dst; dport; extra_size; ep; retries; backoff; cap; attempt = 0;
      cur = timeout; wake = ignore; timer = ignore }
  in
  c.timer <- (fun () -> expire c);
  let outcome =
    Engine.suspend (fun wake ->
        c.wake <- wake;
        Hashtbl.replace t.pending xid wake;
        transmit c)
  in
  Trace.unbind_xid sp xid;
  match outcome with
  | Reply b ->
      Trace.finish sp;
      b
  | Timed_out ->
      Trace.finish ~outcome:"timeout" sp;
      raise Timeout

let retransmissions t = t.retransmits
let timeouts t = t.timeouts
let calls_completed t = t.completed
let pending_calls t = Hashtbl.length t.pending

let endpoint_stats t dst =
  match Hashtbl.find_opt t.endpoints dst with
  | None -> { calls = 0; retransmits = 0; timeouts = 0 }
  | Some ep ->
      { calls = ep.ep_calls; retransmits = ep.ep_retransmits; timeouts = ep.ep_timeouts }
