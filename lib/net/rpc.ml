module Engine = Slice_sim.Engine
module Slot_lru = Slice_util.Slot_lru

module Trace = Slice_trace.Trace

exception Timeout

type endpoint_stats = { mutable calls : int; mutable retransmits : int; mutable timeouts : int }

(* One outstanding call, the record of a slot of the endpoint's call
   table. A record is built the first time its slot is used, so the
   records never outnumber the peak number of outstanding calls, and it
   is reused by later calls in that slot. Everything a call needs lives
   in the record, so the retransmit timer closure and the waiter are
   built once per slot, not per call. *)
type slot = {
  id : int;
  mutable buf : bytes; (* pristine request bytes, grown and kept across reuse *)
  mutable len : int;
  mutable holder : int -> Packet.addr;
  mutable site : int;
  mutable dst : Packet.addr; (* the holder the last transmission went to *)
  mutable dport : int;
  mutable extra_size : int;
  mutable retries : int;
  mutable attempt : int; (* 0 = the first send *)
  fl : float array; (* [| cap; this attempt's timeout; the call's start |], unboxed *)
  mutable reply : bytes; (* [awaiting] until the reply lands, [expired] on timeout *)
  mutable timer : Engine.timer;
  mutable timer_seq : int;
  waiter : Engine.waiter;
  expire : unit -> unit; (* this slot's timer thunk *)
}

type t = {
  net : Net.t;
  eng : Engine.t;
  addr : Packet.addr;
  port : int;
  prng : Slice_util.Prng.t;
  calls : Slot_lru.t; (* xid of each outstanding call -> its slot *)
  mutable slots : slot array; (* the first [n_slots] are built *)
  mutable n_slots : int;
  endpoints : (Packet.addr, endpoint_stats) Hashtbl.t; (* by the destination of each transmission *)
  mutable retransmits : int;
  mutable timeouts : int;
  mutable completed : int;
}

(* Distinct sentinels, compared physically: no reply payload is either. *)
let awaiting = Bytes.create 0
let expired = Bytes.create 0

(* A call's slot is freed as its outcome lands, before [Engine.unpark]:
   the unpark resumes the caller at once, so the caller reads [s.reply]
   before any other call can take the slot. *)
let[@hot] on_packet t (pkt : Packet.t) =
  if Bytes.length pkt.payload >= 4 then begin
    let xid = Int32.to_int (Bytes.get_int32_be pkt.payload 0) land 0xFFFFFFFF in
    let id = Slot_lru.slot t.calls xid in
    (* unknown xid: a duplicate reply after a retransmission, dropped *)
    if id >= 0 then begin
      let s = t.slots.(id) in
      Slot_lru.drop t.calls id;
      t.completed <- t.completed + 1;
      Engine.cancel t.eng s.timer s.timer_seq;
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
      calls = Slot_lru.create ~capacity:max_int;
      slots = [||];
      n_slots = 0;
      (* lint: bounded — one row per (addr, port) peer in the ensemble *)
      endpoints = Hashtbl.create 8;
      retransmits = 0;
      timeouts = 0;
      completed = 0;
    }
  in
  Net.listen net addr ~port (on_packet t);
  t

let no_stats () : endpoint_stats = { calls = 0; retransmits = 0; timeouts = 0 }

let ep_of t dst =
  try Hashtbl.find t.endpoints dst
  with Not_found ->
    let ep = no_stats () in
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

(* Each retransmission multiplies the timeout by [backoff], up to
   [max_timeout] (or the first timeout, if that is larger). *)
let backoff = 2.0
let max_timeout = 2.0

(* The one budget and the one pause of every call: a call that hears
   nothing is sent [attempts] times, and a refused one goes again after
   [pause] times the refusals so far while its holder stays put. *)
let attempts = 9
let pause = 0.01

(* How long a role call may be refused: as long as its silent
   transmissions would wait at most. *)
let refused_for = float_of_int attempts *. max_timeout *. (1.0 +. jitter_frac)

(* Send one attempt to [s.dst], then arm its timer — unless an
   interposed filter answered synchronously inside [Net.send], leaving
   nothing to time (the slot may even hold the caller's next call by
   then). *)
let transmit t s xid payload =
  let ep = ep_of t s.dst in
  if s.attempt = 0 then ep.calls <- ep.calls + 1 else ep.retransmits <- ep.retransmits + 1;
  Net.send t.net
    (Packet.make ~src:t.addr ~dst:s.dst ~sport:t.port ~dport:s.dport ~extra_size:s.extra_size
       payload);
  if Slot_lru.slot t.calls xid >= 0 then begin
    let wait = s.fl.(1) *. (1.0 +. (jitter_frac *. Slice_util.Prng.float t.prng 1.0)) in
    s.timer <- Engine.schedule_timer t.eng wait s.expire;
    s.timer_seq <- Engine.timer_seq s.timer
  end

let give_up t dst =
  let ep = ep_of t dst in
  ep.timeouts <- ep.timeouts + 1;
  t.timeouts <- t.timeouts + 1

(* The timer fires only while the call is outstanding: a reply cancels
   it. A retransmission goes to the site's holder of the moment, with
   fresh bytes from the pristine copy, since an interposed filter may
   have rewritten the previous attempt in place. *)
let expire t s =
  if s.attempt < s.retries then begin
    let next = s.fl.(1) *. backoff in
    s.attempt <- s.attempt + 1;
    s.fl.(1) <- (if next > s.fl.(0) then s.fl.(0) else next);
    t.retransmits <- t.retransmits + 1;
    s.dst <- s.holder s.site;
    transmit t s (Slot_lru.key t.calls s.id) (Bytes.sub s.buf 0 s.len)
  end
  else begin
    Slot_lru.drop t.calls s.id;
    give_up t s.dst;
    s.reply <- expired;
    Engine.unpark s.waiter
  end

(* Cold: the first call in slot [id]. The table hands out a slot that was
   used before ahead of any other, so [id] is [n_slots]. *)
let new_slot t id =
  let rec s =
    {
      id;
      buf = Bytes.empty;
      len = 0;
      holder = Fun.id;
      site = 0;
      dst = 0;
      dport = 0;
      extra_size = 0;
      retries = 0;
      attempt = 0;
      fl = [| 0.0; 0.0; 0.0 |];
      reply = awaiting;
      timer = Engine.no_timer;
      timer_seq = -1;
      waiter = Engine.waiter ();
      expire = (fun () -> expire t s);
    }
  in
  t.slots <- Slot_lru.fit t.calls t.slots s;
  t.slots.(id) <- s;
  t.n_slots <- id + 1;
  s

let rec round_pow2 p n = if p >= n then p else round_pow2 (p * 2) n

(* One exchange of a call, first sent to [dst]. [since] is the start of
   the call's first exchange ([neg_infinity]: this one), and [refusals]
   counts the refused exchanges before this one. *)
let rec exchange t ~timeout ~retries ~span ~holder ~site ~dst ~dport ~refused ~extra_size ~since
    ~refusals payload =
  let xid = Int32.to_int (Bytes.get_int32_be payload 0) land 0xFFFFFFFF in
  let sp = Trace.child span ~hop:"rpc" ~site:(Net.node_name t.net t.addr) () in
  Trace.bind_xid sp xid;
  let id = Slot_lru.add t.calls xid ~lease:infinity in
  let s = if id < t.n_slots then t.slots.(id) else new_slot t id in
  let len = Bytes.length payload in
  if Bytes.length s.buf < len then s.buf <- Bytes.create (round_pow2 64 len);
  Bytes.blit payload 0 s.buf 0 len;
  s.len <- len;
  s.holder <- holder;
  s.site <- site;
  s.dst <- dst;
  s.dport <- dport;
  s.extra_size <- extra_size;
  s.retries <- retries;
  s.attempt <- 0;
  s.fl.(0) <- (if timeout > max_timeout then timeout else max_timeout);
  s.fl.(1) <- timeout;
  if since = neg_infinity then s.fl.(2) <- Engine.now t.eng else s.fl.(2) <- since;
  (* the first attempt sends the caller's bytes *)
  transmit t s xid payload;
  if s.reply == awaiting then Engine.park t.eng s.waiter;
  (* the slot is free again; it keeps nothing of the finished call but
     its reusable buffer, which still holds this call's bytes *)
  let reply = s.reply in
  s.reply <- awaiting;
  Trace.unbind_xid sp xid;
  if reply == expired then begin
    Trace.finish ~outcome:"timeout" sp;
    raise Timeout
  end
  else if not (refused reply) then begin
    Trace.finish sp;
    reply
  end
  else begin
    (* Cold: a server answers an xid it has seen from its request table,
       so a refused call goes again under a fresh xid, to the site's
       holder: at once if the holder moved, after a pause if not. *)
    Trace.finish ~outcome:"refused" sp;
    let since = s.fl.(2) and refusals = refusals + 1 in
    if Engine.now t.eng -. since >= refused_for then begin
      give_up t s.dst;
      raise Timeout
    end;
    let payload = Bytes.sub s.buf 0 s.len and next = holder site in
    let stayed = next = s.dst in
    Bytes.set_int32_be payload 0 (Int32.of_int (fresh_xid t));
    if stayed then Engine.sleep t.eng (pause *. float_of_int refusals);
    exchange t ~timeout ~retries ~span ~holder ~site ~dst:(if stayed then holder site else next)
      ~dport ~refused ~extra_size ~since ~refusals payload
  end

let never (_ : bytes) = false

let call t ?(timeout = 0.1) ?(retries = attempts - 1) ?(span = Trace.null) ~dst ~dport
    ?(extra_size = 0) payload =
  exchange t ~timeout ~retries ~span ~holder:Fun.id ~site:dst ~dst ~dport ~refused:never
    ~extra_size ~since:neg_infinity ~refusals:0 payload

let call_role t ~span ~timeout ~holder ~site ~dst ~dport ~refused ~extra_size payload =
  exchange t ~timeout ~retries:(attempts - 1) ~span ~holder ~site ~dst ~dport ~refused ~extra_size
    ~since:neg_infinity ~refusals:0 payload

(* Each call ends as if out of retransmissions. They are listed first:
   a caller resumes at once and may start another call. *)
let crash t =
  let live = ref [] in
  Slot_lru.iter t.calls (fun id -> live := t.slots.(id) :: !live);
  List.iter (fun s -> Engine.cancel t.eng s.timer s.timer_seq; s.retries <- s.attempt; expire t s) !live

let retransmissions t = t.retransmits
let timeouts t = t.timeouts
let calls_completed t = t.completed
let pending_calls t = Slot_lru.count t.calls
let pool_size t = t.n_slots

let endpoint_stats t dst = try Hashtbl.find t.endpoints dst with Not_found -> no_stats ()
