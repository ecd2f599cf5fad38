module Engine = Slice_sim.Engine
module Resource = Slice_sim.Resource
module Trace = Slice_trace.Trace

(* The Seagate Cheetah ST318404LC calibration. Average seek (Cheetah
   10K: ~5.2 ms) plus half a rotation at 10K RPM (~3.0 ms) plus the fixed
   per-op controller overhead calibrates a random 8 KB access to ≈9.6 ms,
   i.e. ≈104 IOPS per arm, matching the paper's arm-bound SPECsfs
   throughput. The media rate is bytes/second (~33 MB/s); the channel
   rates are the effective node read and write bandwidths (55 / 60 MB/s).
   All times are seconds. *)
let avg_seek = 5.2e-3
let rotational_half = 3.0e-3
let media_rate = 33e6
let controller_overhead = 1.2e-3
let channel_read_rate = 55e6
let channel_write_rate = 60e6

type t = {
  eng : Engine.t;
  arms : Resource.t;
  channel : Resource.t;
  n_arms : int;
  name : string;
  mutable ops : int;
  mutable bytes : int;
}

let create eng ~arms ~name () =
  {
    eng;
    arms = Resource.create eng ~capacity:arms ~name:(name ^ ".arms") ();
    channel = Resource.create eng ~name:(name ^ ".chan") ();
    n_arms = arms;
    name;
    ops = 0;
    bytes = 0;
  }

let[@inline] arm_service ~sequential ~bytes =
  let positioning =
    if sequential then 0.0 else avg_seek +. rotational_half +. controller_overhead
  in
  positioning +. (float_of_int bytes /. media_rate)

let[@inline] channel_service ~is_read ~bytes =
  float_of_int bytes /. (if is_read then channel_read_rate else channel_write_rate)

let[@hot] account t bytes =
  t.ops <- t.ops + 1;
  t.bytes <- t.bytes + bytes

(* Inlined, [Resource.reserve] with it, so the finish time reaches the
   caller's sleep or the engine unboxed. *)
let[@hot] [@inline] book t ~is_read ~sequential ~bytes =
  account t bytes;
  let arm_done = Resource.reserve t.arms (arm_service ~sequential ~bytes) in
  (* Channel transfer starts once the arm has the data (read) or feeds the
     arm (write); we serialize arm-then-channel for reads and
     channel-then-arm for writes, which is equivalent for busy-time. *)
  let chan = channel_service ~is_read ~bytes in
  let chan_done = Resource.reserve t.channel chan in
  Float.max arm_done chan_done

(* Called only on a live span: the times box only when a span records
   them. *)
let traced t span ~start finish =
  Trace.emit span ~hop:"disk" ~site:t.name ~start ~stop:finish ()

let read t ?(span = Trace.null) ~sequential ~bytes () =
  let start = Engine.now t.eng in
  let finish = book t ~is_read:true ~sequential ~bytes in
  if Trace.is_live span then traced t span ~start finish;
  Engine.sleep_until t.eng finish

let write t ?(span = Trace.null) ~sequential ~bytes () =
  let start = Engine.now t.eng in
  let finish = book t ~is_read:false ~sequential ~bytes in
  if Trace.is_live span then traced t span ~start finish;
  Engine.sleep_until t.eng finish

let[@inline] read_async t ~sequential ~bytes = book t ~is_read:true ~sequential ~bytes
let[@inline] write_async t ~sequential ~bytes = book t ~is_read:false ~sequential ~bytes
let ops t = t.ops
let bytes_transferred t = t.bytes
let arm_busy_time t = Resource.busy_time t.arms
let backlog t = Resource.backlog t.arms
let channel_busy_time t = Resource.busy_time t.channel
let arms t = t.n_arms
