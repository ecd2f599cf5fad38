open Helpers
module Engine = Slice_sim.Engine
module Net = Slice_net.Net
module Packet = Slice_net.Packet
module Cksum = Slice_net.Cksum
module Rpc = Slice_net.Rpc

let mk_pkt ?(payload = "hello world") () =
  Packet.make ~src:0 ~dst:1 ~sport:1000 ~dport:2049 (Bytes.of_string payload)

let patch p ~off s =
  Cksum.patch_payload_bytes p ~off (Bytes.of_string s) ~spos:0 ~len:(String.length s)

(* ---- checksums ---- *)

let checksum_verifies () =
  let p = mk_pkt () in
  check_bool "fresh packet verifies" true (Cksum.verify p);
  Bytes.set p.Packet.payload 0 'X';
  check_bool "corruption detected" false (Cksum.verify p)

let rewrite_dst_keeps_checksum () =
  let p = mk_pkt () in
  Cksum.rewrite_dst p 77;
  check_int "dst rewritten" 77 p.Packet.dst;
  check_bool "incremental checksum still valid" true (Cksum.verify p)

let rewrite_all_fields =
  qtest "incremental rewrites = recompute"
    QCheck2.Gen.(pair (string_size (int_range 0 80)) (int_range 0 1000))
    (fun (payload, addr) ->
      let p = mk_pkt ~payload () in
      Cksum.rewrite_src p addr;
      Cksum.rewrite_dst p (addr + 1);
      Cksum.verify p)

let patch_payload_checksum =
  qtest "payload patch keeps checksum"
    QCheck2.Gen.(pair (int_range 0 10) (string_size (int_range 1 8)))
    (fun (off4, data) ->
      let p = mk_pkt ~payload:(String.make 64 'q') () in
      let off = off4 * 2 in
      patch p ~off data;
      Bytes.sub_string p.Packet.payload off (String.length data) = data && Cksum.verify p)

let patch_payload_bounds () =
  let p = mk_pkt ~payload:"0123456789" () in
  Alcotest.check_raises "odd offset" (Invalid_argument "Cksum.patch_payload_bytes") (fun () ->
      patch p ~off:1 "ab");
  Alcotest.check_raises "overflow" (Invalid_argument "Cksum.patch_payload_bytes") (fun () ->
      patch p ~off:8 "abcdef")

let patch_payload_odd_straddle () =
  (* Odd-length patch: its final word is shared with the byte that
     follows the patch, so the adjustment must fold that neighbour in. *)
  let p = mk_pkt ~payload:"0123456789" () in
  patch p ~off:2 "abc";
  check_bool "bytes patched" true (Bytes.to_string p.Packet.payload = "01abc56789");
  check_bool "shared-word checksum valid" true (Cksum.verify p)

let patch_payload_final_byte () =
  (* Odd-length payload: patching the last byte exercises word_at's
     half-word path, where the final byte forms a word on its own. *)
  let p = mk_pkt ~payload:"0123456" () in
  patch p ~off:6 "z";
  check_bool "last byte patched" true (Bytes.to_string p.Packet.payload = "012345z");
  check_bool "half-word checksum valid" true (Cksum.verify p);
  (* and an odd patch that runs up to the very end of an odd payload:
     words at 4-5 and the lone byte at 6 *)
  let q = mk_pkt ~payload:"0123456" () in
  patch q ~off:4 "xyz";
  check_bool "tail straddle patched" true (Bytes.to_string q.Packet.payload = "0123xyz");
  check_bool "tail straddle checksum valid" true (Cksum.verify q)

let proxy_rewrite_sequence_verifies () =
  (* End-to-end: an egress filter performs the full µproxy rewrite
     sequence — redirect dst, patch a stripe-offset field and an
     odd-length tail in the payload — and the receiver verifies the
     checksum on arrival, exactly as a storage node would. *)
  let eng, net =
    let eng = Engine.create () in
    (eng, Net.create eng ())
  in
  let a = Net.add_node net ~name:"a" in
  let b = Net.add_node net ~name:"b" in
  let c = Net.add_node net ~name:"c" in
  let verified = ref 0 in
  Net.listen net c ~port:9 (fun pkt ->
      if Cksum.verify pkt then incr verified);
  Net.add_egress_filter net a (fun pkt ->
      Cksum.rewrite_dst pkt c;
      patch pkt ~off:8 "\x00\x00\x00\x00\x00\x01\x86\xa0";
      patch pkt ~off:60 "end";
      Some pkt);
  Net.send net (Packet.make ~src:a ~dst:b ~sport:1 ~dport:9 (Bytes.make 63 'q'));
  Engine.run eng;
  check_int "rewritten packet verifies at receiver" 1 !verified

let packet_copy_independent () =
  let p = mk_pkt () in
  let q = Packet.copy p in
  Bytes.set q.Packet.payload 0 'Z';
  Cksum.rewrite_dst q 9;
  check_bool "original payload intact" true (Bytes.get p.Packet.payload 0 = 'h');
  check_int "original dst intact" 1 p.Packet.dst

let wire_size_accounts_extra () =
  let p = Packet.make ~src:0 ~dst:1 ~sport:1 ~dport:2 ~extra_size:32768 (Bytes.create 100) in
  check_int "wire size" (Packet.header_bytes + 100 + 32768) (Packet.wire_size p)

(* ---- network delivery ---- *)

let mk_net ?seed () =
  let eng = Engine.create () in
  let net = Net.create eng ?seed () in
  (eng, net)

let delivery_and_latency () =
  let eng, net = mk_net () in
  let a = Net.add_node net ~name:"a" in
  let b = Net.add_node net ~name:"b" in
  let arrived = ref (-1.0) in
  Net.listen net b ~port:9 (fun _ -> arrived := Engine.now eng);
  let payload = Bytes.create 1000 in
  Net.send net (Packet.make ~src:a ~dst:b ~sport:1 ~dport:9 payload);
  Engine.run eng;
  (* tx serialization + wire + switch + rx serialization: 125 MB/s NICs,
     10 us wire, 8 us switch *)
  let ser = float_of_int (Packet.header_bytes + 1000) /. 125e6 in
  let expect = (2.0 *. ser) +. 10e-6 +. 8e-6 in
  check_float_eps 1e-9 "latency model" expect !arrived;
  check_int "packets" 1 (Net.packets_sent net);
  check_int "bytes" (Packet.header_bytes + 1000) (Net.bytes_sent net)

let unknown_port_drops () =
  let eng, net = mk_net () in
  let a = Net.add_node net ~name:"a" in
  let b = Net.add_node net ~name:"b" in
  Net.send net (Packet.make ~src:a ~dst:b ~sport:1 ~dport:12345 (Bytes.create 4));
  Engine.run eng;
  check_int "dropped" 1 (Net.packets_dropped net)

(* A packet that lands on a down node is lost and counted once; the node
   comes back before the next packets land, and they arrive in order. *)
let down_destination_drops_once () =
  let eng, net = mk_net () in
  let a = Net.add_node net ~name:"a" in
  let b = Net.add_node net ~name:"b" in
  let got = ref [] in
  Net.listen net b ~port:9 (fun pkt -> got := Bytes.get_uint8 pkt.Packet.payload 0 :: !got);
  let send_tagged i =
    let payload = Bytes.make 4 '\000' in
    Bytes.set_uint8 payload 0 i;
    Net.send net (Packet.make ~src:a ~dst:b ~sport:1 ~dport:9 payload)
  in
  (* the first packet lands about 18 us after it leaves *)
  send_tagged 1;
  Engine.schedule eng 1e-6 (fun () -> Net.set_node_up net b false);
  Engine.schedule eng 30e-6 (fun () -> Net.set_node_up net b true);
  Engine.schedule eng 50e-6 (fun () -> List.iter send_tagged [ 2; 3; 4 ]);
  Engine.run eng;
  check_int "one drop" 1 (Net.packets_dropped net);
  check_int "counted as a node drop" 1 (Net.fault_counts net).Net.node_drops;
  check_bool "later packets arrive in order" true (List.rev !got = [ 2; 3; 4 ])

let nic_serializes () =
  let eng, net = mk_net () in
  let a = Net.add_node net ~name:"a" in
  let b = Net.add_node net ~name:"b" in
  let count = ref 0 in
  let last = ref 0.0 in
  Net.listen net b ~port:9 (fun _ ->
      incr count;
      last := Engine.now eng);
  (* two back-to-back 125000-byte packets serialize at 1ms each on tx *)
  for _ = 1 to 2 do
    Net.send net
      (Packet.make ~src:a ~dst:b ~sport:1 ~dport:9 (Bytes.create (125_000 - Packet.header_bytes)))
  done;
  Engine.run eng;
  check_int "both arrive" 2 !count;
  check_bool "tx+rx serialization ~3ms" true (!last > 2.9e-3 && !last < 3.3e-3)

let egress_filter_rewrites () =
  let eng, net = mk_net () in
  let a = Net.add_node net ~name:"a" in
  let b = Net.add_node net ~name:"b" in
  let c = Net.add_node net ~name:"c" in
  let got = ref [] in
  Net.listen net b ~port:9 (fun _ -> got := `B :: !got);
  Net.listen net c ~port:9 (fun _ -> got := `C :: !got);
  (* filter redirects everything to c *)
  Net.add_egress_filter net a (fun pkt ->
      Cksum.rewrite_dst pkt c;
      Some pkt);
  Net.send net (Packet.make ~src:a ~dst:b ~sport:1 ~dport:9 (Bytes.create 4));
  Engine.run eng;
  check_bool "redirected to c" true (!got = [ `C ])

let egress_filter_absorbs () =
  let eng, net = mk_net () in
  let a = Net.add_node net ~name:"a" in
  let b = Net.add_node net ~name:"b" in
  let got = ref 0 in
  Net.listen net b ~port:9 (fun _ -> incr got);
  Net.add_egress_filter net a (fun _ -> None);
  Net.send net (Packet.make ~src:a ~dst:b ~sport:1 ~dport:9 (Bytes.create 4));
  Engine.run eng;
  check_int "absorbed" 0 !got

let ingress_filter_sees_arrivals () =
  let eng, net = mk_net () in
  let a = Net.add_node net ~name:"a" in
  let b = Net.add_node net ~name:"b" in
  let seen = ref 0 in
  let got = ref 0 in
  Net.add_ingress_filter net b (fun pkt ->
      incr seen;
      Some pkt);
  Net.listen net b ~port:9 (fun _ -> incr got);
  Net.send net (Packet.make ~src:a ~dst:b ~sport:1 ~dport:9 (Bytes.create 4));
  Engine.run eng;
  check_int "filter saw it" 1 !seen;
  check_int "handler got it" 1 !got

let inject_skips_egress () =
  let eng, net = mk_net () in
  let a = Net.add_node net ~name:"a" in
  let b = Net.add_node net ~name:"b" in
  let got = ref 0 in
  Net.listen net b ~port:9 (fun _ -> incr got);
  Net.add_egress_filter net a (fun _ -> Alcotest.fail "egress must be skipped");
  Net.inject net (Packet.make ~src:a ~dst:b ~sport:1 ~dport:9 (Bytes.create 4));
  Engine.run eng;
  check_int "delivered" 1 !got

let dispatch_is_immediate () =
  let eng, net = mk_net () in
  let a = Net.add_node net ~name:"a" in
  let b = Net.add_node net ~name:"b" in
  let got = ref false in
  Net.listen net b ~port:9 (fun _ -> got := true);
  Net.dispatch net (Packet.make ~src:a ~dst:b ~sport:1 ~dport:9 (Bytes.create 4));
  check_bool "no events needed" true !got;
  check_float "no time passed" 0.0 (Engine.now eng)

(* ---- RPC ---- *)

let echo_server net addr ~port =
  Net.listen net addr ~port (fun pkt ->
      let reply =
        Packet.make ~src:addr ~dst:pkt.Packet.src ~sport:port ~dport:pkt.Packet.sport
          (Bytes.copy pkt.Packet.payload)
      in
      Net.send net reply)

let mk_call_payload rpc tag =
  let xid = Rpc.fresh_xid rpc in
  let b = Bytes.create 8 in
  Bytes.set_int32_be b 0 (Int32.of_int xid);
  Bytes.set_int32_be b 4 (Int32.of_int tag);
  b

let rpc_roundtrip () =
  let eng, net = mk_net () in
  let c = Net.add_node net ~name:"client" in
  let s = Net.add_node net ~name:"server" in
  echo_server net s ~port:2049;
  let rpc = Rpc.create net c ~port:900 in
  let tag =
    run_on eng (fun () ->
        let payload = mk_call_payload rpc 55 in
        let reply = Rpc.call rpc ~dst:s ~dport:2049 payload in
        Int32.to_int (Bytes.get_int32_be reply 4))
  in
  check_int "echoed" 55 tag;
  check_int "no retransmissions" 0 (Rpc.retransmissions rpc);
  check_int "completed" 1 (Rpc.calls_completed rpc)

let rpc_retransmits_through_loss () =
  (* 40% loss: end-to-end retry must still deliver *)
  let eng, net = mk_net ~seed:5 () in
  Net.fault net (Net.Loss 0.4);
  let c = Net.add_node net ~name:"client" in
  let s = Net.add_node net ~name:"server" in
  echo_server net s ~port:2049;
  let rpc = Rpc.create net c ~port:900 in
  let n = 25 in
  let replies =
    run_on eng (fun () ->
        let ok = ref 0 in
        for _ = 1 to n do
          let payload = mk_call_payload rpc 1 in
          match Rpc.call rpc ~retries:20 ~dst:s ~dport:2049 payload with
          | _ -> incr ok
        done;
        !ok)
  in
  check_int "all completed" n replies;
  check_bool "some retransmissions" true (Rpc.retransmissions rpc > 0)

let rpc_times_out () =
  let eng, net = mk_net () in
  let c = Net.add_node net ~name:"client" in
  let s = Net.add_node net ~name:"server" in
  (* no listener on s: requests vanish *)
  let rpc = Rpc.create net c ~port:900 in
  let raised =
    run_on eng (fun () ->
        let payload = mk_call_payload rpc 1 in
        try
          ignore (Rpc.call rpc ~timeout:0.05 ~retries:2 ~dst:s ~dport:2049 payload);
          false
        with Rpc.Timeout -> true)
  in
  check_bool "timeout raised" true raised;
  check_int "retried twice" 2 (Rpc.retransmissions rpc)

let rpc_duplicate_replies_dropped () =
  let eng, net = mk_net () in
  let c = Net.add_node net ~name:"client" in
  let s = Net.add_node net ~name:"server" in
  (* server replies twice to every request *)
  Net.listen net s ~port:2049 (fun pkt ->
      for _ = 1 to 2 do
        Net.send net
          (Packet.make ~src:s ~dst:pkt.Packet.src ~sport:2049 ~dport:pkt.Packet.sport
             (Bytes.copy pkt.Packet.payload))
      done);
  let rpc = Rpc.create net c ~port:900 in
  let v =
    run_on eng (fun () ->
        let payload = mk_call_payload rpc 7 in
        ignore (Rpc.call rpc ~dst:s ~dport:2049 payload);
        Engine.sleep eng 1.0;
        true)
  in
  check_bool "no crash on dup" true v;
  check_int "completed once" 1 (Rpc.calls_completed rpc)

let tag_of payload = Int32.to_int (Bytes.get_int32_be payload 4)

(* A finished call's slot serves the next call at once, and the first
   call's timer, cancelled by its reply, never touches the second call.
   Then the same through a synchronous answer: a filter
   that drops the first attempt, and on the retransmission schedules an
   event (taking the timer cell that just fired) before answering inline.
   The reply's cancel then holds a stale handle to that recycled cell and
   must leave the filter's event alone. *)
let rpc_slot_reuse_cancels_timer () =
  let eng, net = mk_net () in
  let c = Net.add_node net ~name:"client" in
  let s = Net.add_node net ~name:"server" in
  echo_server net s ~port:2049;
  let rpc = Rpc.create net c ~port:900 in
  let sends = ref [] in
  let probe_fired = ref false in
  Net.add_egress_filter net c (fun pkt ->
      let tag = tag_of pkt.Packet.payload in
      let nth = List.length (List.filter (fun (t, _) -> t = tag) !sends) in
      sends := (tag, Engine.now eng) :: !sends;
      match (tag, nth) with
      | 2, 0 | 3, 0 -> None (* lose the first attempt *)
      | 3, _ ->
          Engine.schedule eng 5.0 (fun () -> probe_fired := true);
          Net.dispatch net
            (Packet.make ~src:s ~dst:c ~sport:2049 ~dport:900 (Bytes.copy pkt.Packet.payload));
          None
      | _ -> Some pkt);
  let started2 = ref 0.0 in
  run_on eng (fun () ->
      ignore (Rpc.call rpc ~dst:s ~dport:2049 (mk_call_payload rpc 1));
      started2 := Engine.now eng;
      ignore (Rpc.call rpc ~dst:s ~dport:2049 (mk_call_payload rpc 2));
      ignore (Rpc.call rpc ~dst:s ~dport:2049 (mk_call_payload rpc 3));
      Engine.sleep eng 10.0);
  check_int "one slot served every call" 1 (Rpc.pool_size rpc);
  check_int "one retransmission per lost attempt" 2 (Rpc.retransmissions rpc);
  let times tag = List.rev_map snd (List.filter (fun (t, _) -> t = tag) !sends) in
  (match times 2 with
  | [ t0; t1 ] ->
      check_bool "call 2 retransmitted on its own timer" true (t1 -. t0 >= 0.1 && t0 = !started2)
  | l -> Alcotest.failf "call 2 sent %d times, expected 2" (List.length l));
  check_bool "stale cancel left the recycled cell's event alone" true !probe_fired;
  check_int "nothing outstanding" 0 (Rpc.pending_calls rpc)

(* An answered call takes its retransmit timer out of the event queue:
   after 32 round trips, all inside the first timeout, the queue holds
   only the one live event scheduled beside them. *)
let rpc_answered_timers_leave_the_queue () =
  let eng, net = mk_net () in
  let c = Net.add_node net ~name:"client" in
  let s = Net.add_node net ~name:"server" in
  echo_server net s ~port:2049;
  let rpc = Rpc.create net c ~port:900 in
  let sentinel = ref false in
  Engine.schedule eng 50.0 (fun () -> sentinel := true);
  let queued, elapsed =
    run_on eng (fun () ->
        let t0 = Engine.now eng in
        for i = 1 to 32 do
          ignore (Rpc.call rpc ~dst:s ~dport:2049 (mk_call_payload rpc i))
        done;
        (Engine.pending eng, Engine.now eng -. t0))
  in
  check_bool "every call answered inside the first timeout" true (elapsed < 0.1);
  check_int "no retransmissions" 0 (Rpc.retransmissions rpc);
  check_int "only the live event queued" 1 queued;
  check_bool "the live event still fires" true !sentinel

(* Retransmissions carry the bytes of the call, even when an egress
   filter rewrote the first attempt in place before dropping it. *)
let rpc_retransmit_sends_pristine_bytes () =
  let eng, net = mk_net () in
  let c = Net.add_node net ~name:"client" in
  let s = Net.add_node net ~name:"server" in
  echo_server net s ~port:2049;
  let rpc = Rpc.create net c ~port:900 in
  let seen = ref [] in
  Net.add_egress_filter net c (fun pkt ->
      seen := tag_of pkt.Packet.payload :: !seen;
      if List.length !seen = 1 then begin
        Bytes.set_int32_be pkt.Packet.payload 4 666l;
        None
      end
      else Some pkt);
  let tag = run_on eng (fun () -> tag_of (Rpc.call rpc ~dst:s ~dport:2049 (mk_call_payload rpc 7))) in
  check_int "reply echoes the original bytes" 7 tag;
  check_bool "both attempts left with the call's bytes" true (List.rev !seen = [ 7; 7 ])

(* Concurrent calls against a server that holds each burst's requests
   and answers them in reverse order: every caller gets its own reply,
   the endpoint keeps one call record per call it had outstanding at
   once, and a smaller later burst reuses them. *)
let rpc_concurrent_calls_reverse_replies () =
  let eng, net = mk_net () in
  let c = Net.add_node net ~name:"client" in
  let s = Net.add_node net ~name:"server" in
  let held = ref [] and burst = ref 0 in
  Net.listen net s ~port:2049 (fun pkt ->
      held := pkt :: !held;
      if List.length !held = !burst then begin
        (* [held] is newest first: the last call is answered first *)
        List.iter
          (fun p ->
            Net.send net
              (Packet.make ~src:s ~dst:p.Packet.src ~sport:2049 ~dport:p.Packet.sport
                 (Bytes.copy p.Packet.payload)))
          !held;
        held := []
      end);
  let rpc = Rpc.create net c ~port:900 in
  let run n =
    burst := n;
    let tags = Array.make n (-1) in
    run_on eng (fun () ->
        for i = 0 to n - 1 do
          Engine.spawn eng (fun () ->
              tags.(i) <- tag_of (Rpc.call rpc ~dst:s ~dport:2049 (mk_call_payload rpc (100 + i))))
        done);
    Array.iteri (fun i t -> check_int (Printf.sprintf "caller %d got its own reply" i) (100 + i) t) tags
  in
  run 48;
  check_int "one record per concurrent call" 48 (Rpc.pool_size rpc);
  check_int "no retransmissions" 0 (Rpc.retransmissions rpc);
  run 16;
  check_int "records reused" 48 (Rpc.pool_size rpc);
  check_int "nothing outstanding" 0 (Rpc.pending_calls rpc);
  check_int "every call completed" 64 (Rpc.calls_completed rpc)

(* One packet's send and delivery on a fault-free LAN: the delivery
   record and its thunks are pooled, and the NIC bookings' times stay
   unboxed all the way into the engine's time column, so nothing is
   allocated (the two events are the packet reaching the wire's far end,
   then the receiver). *)
let send_delivery_words () =
  let eng, net = mk_net () in
  let a = Net.add_node net ~name:"a" in
  let b = Net.add_node net ~name:"b" in
  let got = ref 0 in
  Net.listen net b ~port:9 (fun _ -> incr got);
  let pkt = Packet.make ~src:a ~dst:b ~sport:1 ~dport:9 (Bytes.create 100) in
  let once () =
    Net.send net pkt;
    Engine.run eng
  in
  for _ = 1 to 64 do
    once ()
  done;
  let n = 1024 in
  let w0 = Gc.minor_words () in
  for _ = 1 to n do
    once ()
  done;
  let per = (Gc.minor_words () -. w0) /. float_of_int n in
  check_int "every packet delivered" (n + 64) !got;
  check_bool (Printf.sprintf "a send and its delivery allocate %.1f words (budget 0)" per) true
    (per = 0.0)

(* Steady-state words of one call/reply round trip over a bare Net: the
   call record, timer closure and waiter are pooled, and so are the
   packets' deliveries with their event thunks, and no event time is
   boxed, so what is left is the request and reply packets and the
   caller's payload — 26 words on OCaml 5.1 x86-64 with inlining across
   modules. Event times boxed in the engine's cells made it 37, floats
   boxed at module boundaries under -opaque 55, per-delivery thunks 81,
   and a per-call record, timer closure, hashtable row, [suspend] waker
   and payload copy 147 before that. *)
let rpc_roundtrip_words () =
  let eng, net = mk_net () in
  let c = Net.add_node net ~name:"client" in
  let s = Net.add_node net ~name:"server" in
  Net.listen net s ~port:2049 (fun pkt ->
      Net.send net
        (Packet.make ~src:s ~dst:pkt.Packet.src ~sport:2049 ~dport:pkt.Packet.sport
           pkt.Packet.payload));
  let rpc = Rpc.create net c ~port:900 in
  let per_call = ref infinity in
  run_on eng (fun () ->
      for _ = 1 to 64 do
        ignore (Rpc.call rpc ~dst:s ~dport:2049 (mk_call_payload rpc 0))
      done;
      let n = 1024 in
      let w0 = Gc.minor_words () in
      for _ = 1 to n do
        ignore (Rpc.call rpc ~dst:s ~dport:2049 (mk_call_payload rpc 0))
      done;
      per_call := (Gc.minor_words () -. w0) /. float_of_int n);
  check_bool (Printf.sprintf "round trip allocates %.1f words (budget 26)" !per_call) true
    (!per_call <= 26.0)

let suite =
  [
    ("checksum verifies", `Quick, checksum_verifies);
    ("rewrite dst keeps checksum", `Quick, rewrite_dst_keeps_checksum);
    rewrite_all_fields;
    patch_payload_checksum;
    ("patch payload bounds", `Quick, patch_payload_bounds);
    ("patch payload odd straddle", `Quick, patch_payload_odd_straddle);
    ("patch payload final byte", `Quick, patch_payload_final_byte);
    ("proxy rewrite sequence verifies", `Quick, proxy_rewrite_sequence_verifies);
    ("packet copy independent", `Quick, packet_copy_independent);
    ("wire size accounts extra", `Quick, wire_size_accounts_extra);
    ("delivery and latency", `Quick, delivery_and_latency);
    ("unknown port drops", `Quick, unknown_port_drops);
    ("down destination drops once", `Quick, down_destination_drops_once);
    ("nic serializes", `Quick, nic_serializes);
    ("egress filter rewrites", `Quick, egress_filter_rewrites);
    ("egress filter absorbs", `Quick, egress_filter_absorbs);
    ("ingress filter sees arrivals", `Quick, ingress_filter_sees_arrivals);
    ("inject skips egress", `Quick, inject_skips_egress);
    ("dispatch is immediate", `Quick, dispatch_is_immediate);
    ("send and delivery words", `Quick, send_delivery_words);
    ("rpc roundtrip", `Quick, rpc_roundtrip);
    ("rpc retransmits through loss", `Quick, rpc_retransmits_through_loss);
    ("rpc times out", `Quick, rpc_times_out);
    ("rpc duplicate replies dropped", `Quick, rpc_duplicate_replies_dropped);
    ("rpc slot reuse cancels the timer", `Quick, rpc_slot_reuse_cancels_timer);
    ("rpc answered timers leave the queue", `Quick, rpc_answered_timers_leave_the_queue);
    ("rpc retransmit sends pristine bytes", `Quick, rpc_retransmit_sends_pristine_bytes);
    ("rpc concurrent calls, reverse replies", `Quick, rpc_concurrent_calls_reverse_replies);
    ("rpc round trip words budget", `Quick, rpc_roundtrip_words);
  ]
