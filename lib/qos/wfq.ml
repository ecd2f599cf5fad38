(* Start-time fair queueing (SFQ, a virtual-time WFQ variant) over the
   per-server request stream.

   Each submitted job carries a cost (its estimated service time); its
   finish tag is max(V, last_finish[tenant]) + cost/weight, appended to
   the tenant's FIFO. The dispatcher runs at most [depth] jobs at once
   and always starts the job with the smallest head-of-queue finish tag
   (tie: lowest tenant id, then FIFO), advancing V to the dispatched
   job's start tag. Under saturation each tenant's service share is
   proportional to its weight; an idle tenant's weight strands no
   capacity (work conservation) because the dispatcher only ever looks
   at non-empty queues.

   Jobs run in their own fiber (Engine.spawn), so same-instant dispatch
   order is spawn order — the engine's (time, seq) tie-break makes WFQ
   pop order the CPU booking order downstream. A job must call its
   completion continuation exactly once; that frees the slot and pulls
   the next job. All of this is enqueue/dequeue bookkeeping on the cold
   side of the packet path: the allocation-free µproxy fast path is
   untouched. *)

module Engine = Slice_sim.Engine

type job = {
  j_cost : float;
  j_enq : float;  (* clock at submit: measures scheduling delay *)
  j_finish : float;  (* virtual finish tag *)
  j_run : (unit -> unit) -> unit;
}

type t = {
  eng : Engine.t;
  tenants : Tenant.t;
  queues : job Queue.t array;
  last_finish : float array;
  mutable vtime : float;
  depth : int;
  mutable in_flight : int;
  mutable backlog : int;
  dispatched : int array;
  mutable total_dispatched : int;
}

let create eng ~tenants ?(depth = 4) () =
  if depth <= 0 then invalid_arg "Wfq.create: depth must be positive";
  let n = Tenant.count tenants in
  {
    eng;
    tenants;
    queues = Array.init n (fun _ -> Queue.create ());
    last_finish = Array.make n 0.0;
    vtime = 0.0;
    depth;
    in_flight = 0;
    backlog = 0;
    dispatched = Array.make n 0;
    total_dispatched = 0;
  }

let tenant_of t addr = Tenant.of_addr t.tenants addr

(* Tenant with the smallest head-of-queue finish tag; strict < keeps the
   tie-break at the lowest tenant id, so equal tags starve nobody: both
   tenants' heads carry equal tags only transiently, and serving the
   lower id raises its next tag past the other's. *)
let pick t =
  let best = ref (-1) in
  let best_f = ref infinity in
  for id = 0 to Array.length t.queues - 1 do
    if not (Queue.is_empty t.queues.(id)) then begin
      let f = (Queue.peek t.queues.(id)).j_finish in
      if f < !best_f then begin
        best_f := f;
        best := id
      end
    end
  done;
  !best

let rec pump t =
  if t.in_flight < t.depth then begin
    let id = pick t in
    if id >= 0 then begin
      let j = Queue.pop t.queues.(id) in
      t.backlog <- t.backlog - 1;
      t.in_flight <- t.in_flight + 1;
      t.dispatched.(id) <- t.dispatched.(id) + 1;
      t.total_dispatched <- t.total_dispatched + 1;
      (* V advances to the start tag of the job entering service *)
      let start_tag = j.j_finish -. (j.j_cost /. Tenant.weight_of t.tenants id) in
      if start_tag > t.vtime then t.vtime <- start_tag;
      Tenant.observe_queue_delay t.tenants id (Engine.now t.eng -. j.j_enq);
      Engine.spawn t.eng (fun () ->
          j.j_run (fun () ->
              t.in_flight <- t.in_flight - 1;
              pump t));
      pump t
    end
  end

let submit t ~tenant ~cost run =
  let cost = if cost > 0.0 then cost else 1e-9 in
  let start = if t.vtime > t.last_finish.(tenant) then t.vtime else t.last_finish.(tenant) in
  let finish = start +. (cost /. Tenant.weight_of t.tenants tenant) in
  t.last_finish.(tenant) <- finish;
  Queue.push
    { j_cost = cost; j_enq = Engine.now t.eng; j_finish = finish; j_run = run }
    t.queues.(tenant);
  t.backlog <- t.backlog + 1;
  pump t

let backlog t = t.backlog
let dispatched t tenant = t.dispatched.(tenant)
let total_dispatched t = t.total_dispatched
