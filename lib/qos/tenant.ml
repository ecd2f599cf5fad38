(* Tenant identity and per-tenant accounting.

   A tenant is a traffic class sharing the ensemble: its requests carry
   the tenant id from the originating client host, through the µproxy's
   pooled pending records, into the per-server WFQ queues. The registry
   maps dense host addresses to tenant ids (an int array, so server-side
   classification on the packet path allocates nothing) and owns the
   per-tenant accounting cells every layer pushes into. *)

module Stats = Slice_util.Stats
module Metrics = Slice_util.Metrics

type klass = Interactive | Batch | Background

type spec = {
  name : string;
  weight : float;  (* WFQ share under contention; must be positive *)
  klass : klass;
  admit_rate : float;  (* µproxy admission tokens/second; <= 0 = ungated *)
  admit_burst : float;  (* bucket depth, requests *)
}

let spec ?(klass = Batch) ?(admit_rate = 0.0) ?(admit_burst = 0.0) ~name ~weight () =
  if weight <= 0.0 then invalid_arg "Tenant.spec: weight must be positive";
  { name; weight; klass; admit_rate; admit_burst }

(* One accounting cell per tenant. [ops]/[bytes] are proxy-side reply
   counts; [queue_delay] is server-side WFQ scheduling delay; [latency]
   is the proxy-visible request round trip. All reservoirs are the
   deterministic Stats kind, so p99 queries are byte-stable. *)
type cell = {
  mutable ops : int;
  mutable bytes : int;
  mutable admitted : int;
  mutable deferred : int;
  queue_delay : Stats.t;
  latency : Stats.t;
}

type t = {
  specs : spec array;
  cells : cell array;
  mutable by_addr : int array;  (* addr -> tenant id + 1; 0 = unbound *)
}

let fresh_cell () =
  {
    ops = 0;
    bytes = 0;
    admitted = 0;
    deferred = 0;
    queue_delay = Stats.create ();
    latency = Stats.create ();
  }

let create specs =
  if Array.length specs = 0 then invalid_arg "Tenant.create: no tenants";
  Array.iter (fun s -> if s.weight <= 0.0 then invalid_arg "Tenant.create: weight") specs;
  {
    specs = Array.copy specs;
    cells = Array.init (Array.length specs) (fun _ -> fresh_cell ());
    by_addr = Array.make 64 0;
  }

let count t = Array.length t.specs
let spec_of t id = t.specs.(id)
let weight_of t id = t.specs.(id).weight

let bind_addr t ~addr ~tenant =
  if tenant < 0 || tenant >= Array.length t.specs then invalid_arg "Tenant.bind_addr";
  if addr >= Array.length t.by_addr then begin
    let n = Array.make (max (addr + 1) (2 * Array.length t.by_addr)) 0 in
    Array.blit t.by_addr 0 n 0 (Array.length t.by_addr);
    t.by_addr <- n
  end;
  t.by_addr.(addr) <- tenant + 1

(* Packet-path classification: total, allocation-free. An unbound source
   (manager-internal traffic, probes) classifies as tenant 0 — callers
   that want a distinct system tenant bind their manager hosts to one. *)
let of_addr t addr =
  if addr < 0 || addr >= Array.length t.by_addr then 0
  else
    let v = t.by_addr.(addr) in
    if v = 0 then 0 else v - 1

let note_reply t id ~bytes =
  let c = t.cells.(id) in
  c.ops <- c.ops + 1;
  c.bytes <- c.bytes + bytes

let note_admitted t id = t.cells.(id).admitted <- t.cells.(id).admitted + 1
let note_deferred t id = t.cells.(id).deferred <- t.cells.(id).deferred + 1
let observe_queue_delay t id d = Stats.add t.cells.(id).queue_delay d
let observe_latency t id d = Stats.add t.cells.(id).latency d

let ops t id = t.cells.(id).ops
let bytes t id = t.cells.(id).bytes
let admitted t id = t.cells.(id).admitted
let deferred t id = t.cells.(id).deferred
let queue_delay t id = t.cells.(id).queue_delay
let latency t id = t.cells.(id).latency

(* Register every tenant's series under "qos.<tenant>.": the labelled
   scope builds the keys once and the registry dump sorts them, so the
   series are byte-stable however many tenants exist. *)
let register_metrics t m =
  Array.iteri
    (fun id s ->
      let sc = Metrics.labelled m ~prefix:"qos" ~tenant:s.name in
      Metrics.scoped_gauge sc "ops" (fun () -> float_of_int (ops t id));
      Metrics.scoped_gauge sc "bytes" (fun () -> float_of_int (bytes t id));
      Metrics.scoped_gauge sc "admitted" (fun () -> float_of_int (admitted t id));
      Metrics.scoped_gauge sc "deferred" (fun () -> float_of_int (deferred t id));
      Metrics.scoped_gauge sc "queue_delay_p99_ms" (fun () ->
          Stats.percentile (queue_delay t id) 99.0 *. 1e3);
      Metrics.scoped_gauge sc "latency_p99_ms" (fun () ->
          Stats.percentile (latency t id) 99.0 *. 1e3))
    t.specs
