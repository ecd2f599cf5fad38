(* The event queue is the innermost loop of the whole simulator, so it is
   built for zero steady-state allocation: event cells are mutable
   records recycled through an intrusive freelist (a popped cell goes
   straight back to the pool, its thunk cleared so the closure can be
   collected), and the binary heap is inlined over those cells with the
   (time, seq) ordering compared directly — no comparator closure, no
   option-returning peek. [run] additionally batches dispatch by
   timestamp: the clock is written once per distinct instant and every
   event carrying it drains in one inner loop, preserving exact
   (time, seq) order (same-instant events scheduled during the batch get
   larger seqs and are picked up by the same inner loop).

   A fiber parks in one of two ways, one effect each, and the handler
   answers no other. Sleeping is the commonest (every CPU and resource
   booking): its handler answer, built once per engine, puts the fiber's
   continuation straight into an event cell — no closure, no thunk.
   [park] serves waits ended by another event rather than by the clock:
   its handler answer stores the continuation in a caller-owned
   [waiter], which [unpark] resumes. A [queue] pools waiters for fibers
   that wait on one event together. [spawn] wraps nothing either: the
   fiber's body goes into the cell as its thunk, marked by a second
   placeholder continuation, and [fire] starts it under the handler.

   A timer is an event cell handed back to its scheduler together with
   the cell's [seq]. [cancel] turns the thunk into a no-op only while the
   [seq] still matches, so a handle kept past its firing (the cell since
   recycled under a new seq) cannot touch someone else's event. A
   cancelled timer still fires, as a no-op: the (time, seq) stream is the
   same whether or not anything was cancelled. *)

let nop () = ()

type _ Effect.t += Placeholder : unit Effect.t

(* A real continuation that is never resumed, captured at start-up. *)
let placeholder_k () : (unit, unit) Effect.Deep.continuation =
  let captured : (unit, unit) Effect.Deep.continuation option ref = ref None in
  Effect.Deep.match_with Effect.perform Placeholder
    {
      retc = (fun () -> ());
      exnc = raise;
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Placeholder ->
              Some (fun (k : (a, unit) Effect.Deep.continuation) -> captured := Some k)
          | _ -> None);
    };
  match !captured with Some k -> k | None -> assert false

(* Two of them mark what an event cell's [fn] is when no fiber sleeps in
   it: [no_k] a thunk to call, [spawn_k] the body of a fiber to start. *)
let no_k = placeholder_k ()
let spawn_k = placeholder_k ()

type event = {
  mutable time : float;
  mutable seq : int;
  mutable fn : unit -> unit;
  mutable k : (unit, unit) Effect.Deep.continuation;
      (* a sleeping fiber, [no_k] or [spawn_k] *)
  mutable next_free : event;
}

(* Cyclic sentinel: terminates the freelist without an option. *)
let rec nil = { time = 0.0; seq = 0; fn = nop; k = no_k; next_free = nil }

type waiter = { mutable w_k : (unit, unit) Effect.Deep.continuation (* [no_k] = not parked *) }

let waiter () = { w_k = no_k }

type t = {
  mutable clock : float;
  mutable seq : int;
  mutable data : event array;
  mutable size : int;
  mutable free : event;
  wake_at : float array; (* one cell: a sleeper's wake time, stored unboxed *)
  sleep : unit Effect.t; (* [Sleep t], built once *)
  on_sleep : ((unit, unit) Effect.Deep.continuation -> unit) option;
      (* the handler's answer to [sleep], built once *)
  mutable parking : waiter; (* the waiter of the [park] being performed *)
  park_eff : unit Effect.t; (* [Park t], built once *)
  on_park : ((unit, unit) Effect.Deep.continuation -> unit) option;
}

type _ Effect.t += Sleep : t -> unit Effect.t | Park : t -> unit Effect.t

let now t = t.clock

(* Earlier event first: primary key time, tie-break by scheduling order. *)
let[@hot] before a b = a.time < b.time || (a.time = b.time && a.seq < b.seq)

let[@hot] rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if before t.data.(i) t.data.(parent) then begin
      let tmp = t.data.(i) in
      t.data.(i) <- t.data.(parent);
      t.data.(parent) <- tmp;
      sift_up t parent
    end
  end

let[@hot] rec sift_down t i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let s = if l < t.size && before t.data.(l) t.data.(i) then l else i in
  let s = if r < t.size && before t.data.(r) t.data.(s) then r else s in
  if s <> i then begin
    let tmp = t.data.(i) in
    t.data.(i) <- t.data.(s);
    t.data.(s) <- tmp;
    sift_down t s
  end

(* Callers guarantee [t.size > 0]. Stale array slots keep pool cells
   reachable — intended: the cells are recycled, never collected. *)
let[@hot] pop_min t =
  let top = t.data.(0) in
  t.size <- t.size - 1;
  if t.size > 0 then begin
    t.data.(0) <- t.data.(t.size);
    sift_down t 0
  end;
  top

(* Return a cell to the pool; clearing the thunk and the continuation
   drops the only references the engine holds to the caller's state. *)
let[@hot] release t ev =
  ev.fn <- nop;
  ev.k <- no_k;
  ev.next_free <- t.free;
  t.free <- ev

(* Allocates only on pool miss — steady state recycles. *)
let acquire t =
  if t.free == nil then { time = 0.0; seq = 0; fn = nop; k = no_k; next_free = nil }
  else begin
    let ev = t.free in
    t.free <- ev.next_free;
    ev.next_free <- nil;
    ev
  end

let push t ev =
  let cap = Array.length t.data in
  if t.size = cap then begin
    let ncap = if cap = 0 then 256 else cap * 2 in
    let nd = Array.make ncap nil in
    Array.blit t.data 0 nd 0 t.size;
    t.data <- nd
  end;
  t.data.(t.size) <- ev;
  t.size <- t.size + 1;
  sift_up t (t.size - 1)

let enqueue t time fn k =
  let time = if time < t.clock then t.clock else time in
  t.seq <- t.seq + 1;
  let ev = acquire t in
  ev.time <- time;
  ev.seq <- t.seq;
  ev.fn <- fn;
  ev.k <- k;
  push t ev;
  ev

type timer = event

let no_timer = nil

(* Inlined so a computed time is not boxed on its way to the cell; that
   holds in another module only when it is built without -opaque
   (DESIGN.md §38). The cell's [time] field boxes it all the same: the
   cell is a mixed record, so each event allocates its time (2 words). *)
let[@inline] schedule_at t time fn = ignore (enqueue t time fn no_k)

let[@inline] schedule_timer t delay fn =
  enqueue t (t.clock +. if delay < 0.0 then 0.0 else delay) fn no_k

let[@inline] schedule t delay fn = ignore (schedule_timer t delay fn)

let timer_seq (ev : timer) = ev.seq
let[@hot] cancel (ev : timer) seq = if ev.seq = seq then ev.fn <- nop

let create () =
  let rec t =
    {
      clock = 0.0;
      seq = 0;
      data = [||];
      size = 0;
      free = nil;
      wake_at = [| 0.0 |];
      sleep = Sleep t;
      on_sleep = Some (fun k -> ignore (enqueue t t.wake_at.(0) nop k));
      parking = waiter ();
      park_eff = Park t;
      on_park = Some (fun k -> t.parking.w_k <- k);
    }
  in
  t

let handler =
  let open Effect.Deep in
  {
    retc = (fun () -> ());
    exnc = (fun e -> raise e);
    effc =
      (fun (type a) (eff : a Effect.t) : ((a, unit) continuation -> unit) option ->
        match eff with
        | Sleep e -> e.on_sleep
        | Park e -> e.on_park
        | _ -> None);
  }

(* The cell carries the body itself; [fire] starts it under [handler]. *)
let spawn t fn = ignore (enqueue t t.clock fn spawn_k)

(* Inlined so the wake time reaches [wake_at] unboxed (from another
   module only without -opaque); the handler's enqueue boxes it into the
   sleeper's cell, 2 words a sleep. *)
let[@inline] doze t time =
  t.wake_at.(0) <- time;
  Effect.perform t.sleep

(* A positive duration always yields, even when [now + d] rounds to
   [now]: the sleeper then resumes after the events already queued for
   this instant. *)
let sleep t d = if d > 0.0 then doze t (t.clock +. d)
let[@inline] sleep_until t time = if time > t.clock then doze t time

let park t w =
  t.parking <- w;
  Effect.perform t.park_eff

let[@hot] unpark w =
  let k = w.w_k in
  if k != no_k then begin
    w.w_k <- no_k;
    Effect.Deep.continue k ()
  end

(* A queue's waiters sit in nodes, pooled in the queue and linked
   through [next], so a warm wait allocates no closure or list cell. A
   bare waiter stays two words: [Rpc] and [Fiber] make their own. *)
type node = { nw : waiter; mutable next : node }

let rec no_node = { nw = waiter (); next = no_node }

type queue = {
  mutable parked : node; (* last parked first *)
  mutable spare : node; (* the pool *)
}

let queue () = { parked = no_node; spare = no_node }

(* Move a node from the pool to the head of the parked list; the caller
   has made sure the pool holds one. *)
let[@hot] enlist q =
  let n = q.spare in
  q.spare <- n.next;
  n.next <- q.parked;
  q.parked <- n;
  n.nw

(* The pool's miss, the first wait beyond the most the queue has held
   at once, is the only allocation. *)
let wait t q =
  if q.spare == no_node then q.spare <- { nw = waiter (); next = no_node };
  park t (enlist q)

let[@hot] rec wake_from q n =
  if n != no_node then begin
    let next = n.next in
    unpark n.nw;
    n.next <- q.spare;
    q.spare <- n;
    wake_from q next
  end

(* The queue is emptied first: a fiber that waits again while the
   others resume waits for the next [wake_all]. *)
let[@hot] wake_all q =
  let n = q.parked in
  q.parked <- no_node;
  wake_from q n

(* Run a popped cell: call its thunk, start its fiber, or resume it. *)
let[@inline] fire t ev =
  let f = ev.fn and k = ev.k in
  release t ev;
  if k == no_k then f ()
  else if k == spawn_k then Effect.Deep.match_with f () handler
  else Effect.Deep.continue k ()

(* Not a lint root: the indirect dispatch of the event thunk cannot be
   typed allocation-free statically (the closure was charged where it was
   created), so [step] sits just outside the [@hot] region — the pop /
   sift / release machinery it drives is rooted and zero, and the
   steady-state Gc probes keep the whole loop honest at runtime. *)
let step t =
  if t.size = 0 then false
  else begin
    let ev = pop_min t in
    t.clock <- ev.time;
    fire t ev;
    true
  end

let run ?until t =
  let limit = match until with None -> Float.infinity | Some l -> l in
  while t.size > 0 && t.data.(0).time <= limit do
    (* Batch: one clock write per distinct timestamp, then drain it. *)
    let bt = t.data.(0).time in
    t.clock <- bt;
    while t.size > 0 && t.data.(0).time = bt do
      fire t (pop_min t)
    done
  done;
  match until with
  | Some limit when limit > t.clock -> t.clock <- limit
  | _ -> ()

let pending t = t.size
