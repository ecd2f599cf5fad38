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
   the next job.

   Nothing is allocated per job once the pools are warm. A queued job is
   a slot in parallel arrays: its cost, submit time and finish tag in
   float arrays (unboxed), its body in [run], and an int link that chains
   it into its tenant's FIFO or into the free list. V lives in a
   one-cell float array for the same reason. A dispatched job runs in a
   pooled runner whose fiber body and completion continuation are built
   once, with the runner. *)

module Engine = Slice_sim.Engine

(* Idle: in the pool. Running: dispatched, not yet completed. Then
   whichever of its completion and the end of its body comes second
   returns the runner to the pool. *)
type phase = Idle | Running | Completed | Returned

type runner = {
  mutable job : (unit -> unit) -> unit;
  mutable phase : phase;
  mutable next_idle : runner;
  body : unit -> unit;
  complete : unit -> unit;
}

let no_job _ = ()

(* Cyclic sentinel: terminates the runner pool without an option. *)
let rec no_runner =
  { job = no_job; phase = Idle; next_idle = no_runner; body = ignore; complete = ignore }

type t = {
  eng : Engine.t;
  tenants : Tenant.t;
  head : int array; (* per tenant: oldest queued job, -1 = empty *)
  tail : int array;
  mutable next : int array; (* FIFO link, or free-list link; -1 ends *)
  mutable cost : float array;
  mutable enq : float array; (* clock at submit: measures scheduling delay *)
  mutable finish : float array; (* virtual finish tag *)
  mutable run : ((unit -> unit) -> unit) array;
  mutable free : int;
  last_finish : float array;
  vtime : float array; (* one cell: V *)
  depth : int;
  mutable in_flight : int;
  mutable backlog : int;
  mutable idle : runner;
  dispatched : int array;
  mutable total_dispatched : int;
}

let create eng ~tenants ?(depth = 4) () =
  if depth <= 0 then invalid_arg "Wfq.create: depth must be positive";
  let n = Tenant.count tenants in
  {
    eng;
    tenants;
    head = Array.make n (-1);
    tail = Array.make n (-1);
    next = [||];
    cost = [||];
    enq = [||];
    finish = [||];
    run = [||];
    free = -1;
    last_finish = Array.make n 0.0;
    vtime = [| 0.0 |];
    depth;
    in_flight = 0;
    backlog = 0;
    idle = no_runner;
    dispatched = Array.make n 0;
    total_dispatched = 0;
  }

let tenant_of t addr = Tenant.of_addr t.tenants addr

(* Tenant with the smallest head-of-queue finish tag; strict < keeps the
   tie-break at the lowest tenant id, so equal tags starve nobody: both
   tenants' heads carry equal tags only transiently, and serving the
   lower id raises its next tag past the other's. *)
let[@hot] rec pick_from t id best =
  if id = Array.length t.head then best
  else begin
    let j = t.head.(id) in
    if j >= 0 && (best < 0 || t.finish.(j) < t.finish.(t.head.(best))) then pick_from t (id + 1) id
    else pick_from t (id + 1) best
  end

let[@hot] pick t = pick_from t 0 (-1)

let release_runner t r =
  r.phase <- Idle;
  r.next_idle <- t.idle;
  t.idle <- r

let rec pump t =
  if t.in_flight < t.depth then begin
    let id = pick t in
    if id >= 0 then begin
      let j = t.head.(id) in
      t.head.(id) <- t.next.(j);
      if t.next.(j) < 0 then t.tail.(id) <- -1;
      t.backlog <- t.backlog - 1;
      t.in_flight <- t.in_flight + 1;
      t.dispatched.(id) <- t.dispatched.(id) + 1;
      t.total_dispatched <- t.total_dispatched + 1;
      (* V advances to the start tag of the job entering service *)
      let start_tag = t.finish.(j) -. (t.cost.(j) /. Tenant.weight_of t.tenants id) in
      if start_tag > t.vtime.(0) then t.vtime.(0) <- start_tag;
      Tenant.observe_queue_delay t.tenants id (Engine.now t.eng -. t.enq.(j));
      let r = if t.idle == no_runner then new_runner t else t.idle in
      t.idle <- r.next_idle;
      r.next_idle <- no_runner;
      r.job <- t.run.(j);
      r.phase <- Running;
      t.run.(j) <- no_job;
      t.next.(j) <- t.free;
      t.free <- j;
      Engine.spawn t.eng r.body;
      pump t
    end
  end

(* Cold: the pool is empty. One new runner, so the pool tracks the peak
   number of running jobs. *)
and new_runner t =
  let rec r =
    {
      job = no_job;
      phase = Idle;
      next_idle = no_runner;
      body = (fun () -> run_job t r);
      complete = (fun () -> complete t r);
    }
  in
  r

and run_job t r =
  let job = r.job in
  r.job <- no_job;
  job r.complete;
  match r.phase with Completed -> release_runner t r | _ -> r.phase <- Returned

(* Completion frees the job's place among the [depth] running. A second
   call is refused while the runner is still this job's; once it has
   moved on, a stale call cannot be told from the next job's own. *)
and complete t r =
  (match r.phase with
  | Running -> r.phase <- Completed
  | Returned -> release_runner t r
  | Idle | Completed -> invalid_arg "Wfq: job completed twice");
  t.in_flight <- t.in_flight - 1;
  pump t

(* Cold: every job slot is queued. Doubling links the new slots into the
   free list. *)
let grow t =
  let n = Array.length t.next in
  let cap = if n = 0 then 16 else 2 * n in
  let widen a fill =
    let b = Array.make cap fill in
    Array.blit a 0 b 0 n;
    b
  in
  t.next <- widen t.next (-1);
  t.cost <- widen t.cost 0.0;
  t.enq <- widen t.enq 0.0;
  t.finish <- widen t.finish 0.0;
  t.run <- widen t.run no_job;
  for j = cap - 1 downto n do
    t.next.(j) <- t.free;
    t.free <- j
  done

let[@inline] submit t ~tenant ~cost run =
  let cost = if cost > 0.0 then cost else 1e-9 in
  let v = t.vtime.(0) and last = t.last_finish.(tenant) in
  let start = if v > last then v else last in
  let finish = start +. (cost /. Tenant.weight_of t.tenants tenant) in
  t.last_finish.(tenant) <- finish;
  if t.free < 0 then grow t;
  let j = t.free in
  t.free <- t.next.(j);
  t.cost.(j) <- cost;
  t.enq.(j) <- Engine.now t.eng;
  t.finish.(j) <- finish;
  t.run.(j) <- run;
  t.next.(j) <- -1;
  if t.tail.(tenant) >= 0 then t.next.(t.tail.(tenant)) <- j else t.head.(tenant) <- j;
  t.tail.(tenant) <- j;
  t.backlog <- t.backlog + 1;
  pump t

let backlog t = t.backlog
let dispatched t tenant = t.dispatched.(tenant)
let total_dispatched t = t.total_dispatched
