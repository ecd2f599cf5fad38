module Engine = Slice_sim.Engine
module Xid_index = Slice_util.Xid_index

module Trace = Slice_trace.Trace

exception Timeout

type ep = { mutable ep_calls : int; mutable ep_retransmits : int; mutable ep_timeouts : int }

type endpoint_stats = { calls : int; retransmits : int; timeouts : int }

(* One outstanding call. Slots are pooled: created on a pool miss, so the
   pool never outgrows the peak number of outstanding calls, and reused
   from an intrusive freelist. Everything a call needs lives in the slot,
   so the retransmit timer closure and the waiter are built once per
   slot, not per call. *)
type slot = {
  id : int;
  mutable buf : bytes; (* pristine request bytes, grown and kept across reuse *)
  mutable len : int;
  mutable dst : Packet.addr;
  mutable dport : int;
  mutable extra_size : int;
  mutable ep : ep;
  mutable retries : int;
  mutable attempt : int; (* 0 = the first send *)
  fl : float array; (* [| backoff; cap; this attempt's timeout |], unboxed *)
  mutable reply : bytes; (* [awaiting] until the reply lands, [expired] on timeout *)
  mutable timer : Engine.timer;
  mutable timer_seq : int;
  waiter : Engine.waiter;
  expire : unit -> unit; (* this slot's timer thunk *)
  mutable next_free : int; (* freelist link (slot id); -1 = end *)
}

type t = {
  net : Net.t;
  eng : Engine.t;
  addr : Packet.addr;
  port : int;
  prng : Slice_util.Prng.t;
  index : Xid_index.t; (* xid of each outstanding call -> its slot *)
  mutable slots : slot array;
  mutable n_slots : int;
  mutable free : int;
  mutable outstanding : int;
  endpoints : (Packet.addr, ep) Hashtbl.t;
  mutable retransmits : int;
  mutable timeouts : int;
  mutable completed : int;
}

(* Distinct sentinels, compared physically: no reply payload is either. *)
let awaiting = Bytes.create 0
let expired = Bytes.create 0

let[@hot] on_packet t (pkt : Packet.t) =
  if Bytes.length pkt.payload >= 4 then begin
    let xid = Int32.to_int (Bytes.get_int32_be pkt.payload 0) land 0xFFFFFFFF in
    let id = Xid_index.remove t.index xid in
    (* unknown xid: a duplicate reply after a retransmission, dropped *)
    if id >= 0 then begin
      let s = t.slots.(id) in
      t.completed <- t.completed + 1;
      Engine.cancel s.timer s.timer_seq;
      s.reply <- pkt.payload;
      Engine.unpark s.waiter
    end
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
      index = Xid_index.create 16;
      slots = [||];
      n_slots = 0;
      free = -1;
      outstanding = 0;
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
  match Hashtbl.find t.endpoints dst with
  | ep -> ep
  | exception Not_found ->
      let ep = { ep_calls = 0; ep_retransmits = 0; ep_timeouts = 0 } in
      Hashtbl.replace t.endpoints dst ep;
      ep

(* XIDs come from the network's private counter so no two endpoints in a
   simulation ever collide (an interposed filter can key its soft state
   on the XID alone) and the stream stays deterministic even when
   several simulations run in one process. *)
let fresh_xid t = Net.fresh_xid t.net

(* Fraction of the current timeout added as uniform jitter, so a fleet of
   endpoints that lost packets together does not retransmit in lockstep. *)
let jitter_frac = 0.1

(* Send one attempt, then arm its timer — unless an interposed filter
   answered synchronously inside [Net.send], leaving nothing to time
   (the slot may even hold the caller's next call by then). *)
let transmit t s xid payload =
  Net.send t.net
    (Packet.make ~src:t.addr ~dst:s.dst ~sport:t.port ~dport:s.dport ~extra_size:s.extra_size
       payload);
  if Xid_index.find t.index xid >= 0 then begin
    let wait = s.fl.(2) *. (1.0 +. (jitter_frac *. Slice_util.Prng.float t.prng 1.0)) in
    s.timer <- Engine.schedule_timer t.eng wait s.expire;
    s.timer_seq <- Engine.timer_seq s.timer
  end

(* The timer fires only while the call is outstanding: a reply cancels
   it. A retransmission gets fresh bytes from the pristine copy, since an
   interposed filter may have rewritten the previous attempt in place. *)
let expire t s =
  if s.attempt < s.retries then begin
    let next = s.fl.(2) *. s.fl.(0) in
    s.attempt <- s.attempt + 1;
    s.fl.(2) <- (if next > s.fl.(1) then s.fl.(1) else next);
    t.retransmits <- t.retransmits + 1;
    s.ep.ep_retransmits <- s.ep.ep_retransmits + 1;
    transmit t s (Xid_index.key t.index s.id) (Bytes.sub s.buf 0 s.len)
  end
  else begin
    ignore (Xid_index.remove t.index (Xid_index.key t.index s.id));
    t.timeouts <- t.timeouts + 1;
    s.ep.ep_timeouts <- s.ep.ep_timeouts + 1;
    s.reply <- expired;
    Engine.unpark s.waiter
  end

let no_ep = { ep_calls = 0; ep_retransmits = 0; ep_timeouts = 0 }

(* Cold: the pool is empty. One new slot, so the pool tracks the peak
   number of outstanding calls. *)
let new_slot t =
  let id = t.n_slots in
  let rec s =
    {
      id;
      buf = Bytes.empty;
      len = 0;
      dst = 0;
      dport = 0;
      extra_size = 0;
      ep = no_ep;
      retries = 0;
      attempt = 0;
      fl = [| 0.0; 0.0; 0.0 |];
      reply = awaiting;
      timer = Engine.no_timer;
      timer_seq = -1;
      waiter = Engine.waiter ();
      expire = (fun () -> expire t s);
      next_free = -1;
    }
  in
  if id = Array.length t.slots then begin
    let slots = Array.make (max 8 (2 * id)) s in
    Array.blit t.slots 0 slots 0 id;
    t.slots <- slots
  end;
  t.slots.(id) <- s;
  t.n_slots <- id + 1;
  Xid_index.resize t.index t.n_slots;
  s

let acquire t =
  if t.free < 0 then new_slot t
  else begin
    let s = t.slots.(t.free) in
    t.free <- s.next_free;
    s
  end

(* The slot is free again as soon as its caller has the outcome, and it
   keeps nothing of the finished call but its reusable buffer. *)
let release t s =
  s.reply <- awaiting;
  s.next_free <- t.free;
  t.free <- s.id;
  t.outstanding <- t.outstanding - 1

let rec round_pow2 p n = if p >= n then p else round_pow2 (p * 2) n

let call t ?(timeout = 0.1) ?(retries = 8) ?(backoff = 2.0) ?(max_timeout = 2.0)
    ?(span = Trace.null) ~dst ~dport ?(extra_size = 0) payload =
  let xid = Int32.to_int (Bytes.get_int32_be payload 0) land 0xFFFFFFFF in
  let ep = ep_of t dst in
  ep.ep_calls <- ep.ep_calls + 1;
  let sp = Trace.child span ~hop:"rpc" ~site:(Net.node_name t.net t.addr) () in
  Trace.bind_xid sp xid;
  let s = acquire t in
  t.outstanding <- t.outstanding + 1;
  Xid_index.add t.index ~xid ~slot:s.id;
  let len = Bytes.length payload in
  if Bytes.length s.buf < len then s.buf <- Bytes.create (round_pow2 64 len);
  Bytes.blit payload 0 s.buf 0 len;
  s.len <- len;
  s.dst <- dst;
  s.dport <- dport;
  s.extra_size <- extra_size;
  s.ep <- ep;
  s.retries <- retries;
  s.attempt <- 0;
  s.fl.(0) <- backoff;
  s.fl.(1) <- (if timeout > max_timeout then timeout else max_timeout);
  s.fl.(2) <- timeout;
  (* the first attempt sends the caller's bytes *)
  transmit t s xid payload;
  if s.reply == awaiting then Engine.park t.eng s.waiter;
  let reply = s.reply in
  release t s;
  Trace.unbind_xid sp xid;
  if reply == expired then begin
    Trace.finish ~outcome:"timeout" sp;
    raise Timeout
  end
  else begin
    Trace.finish sp;
    reply
  end

let retransmissions t = t.retransmits
let timeouts t = t.timeouts
let calls_completed t = t.completed
let pending_calls t = t.outstanding
let pool_size t = t.n_slots

let endpoint_stats t dst =
  match Hashtbl.find_opt t.endpoints dst with
  | None -> { calls = 0; retransmits = 0; timeouts = 0 }
  | Some ep ->
      { calls = ep.ep_calls; retransmits = ep.ep_retransmits; timeouts = ep.ep_timeouts }
