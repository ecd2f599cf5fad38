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

   The engine boxes no time. An event's time is not in its cell, which is a
   mixed record where a float field holds a pointer to a box: the heap
   keeps the times in a [float array] column beside the cells, slot i of
   [keys] the time of [data.(i)], and every sift moves both. The clock is
   a one-cell [float array]. [now], [enqueue] and the scheduling calls
   are inlined, so a time computed by a caller reaches its slot unboxed
   (from another module only when it is built without -opaque, DESIGN.md
   §38, §40).

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
   the cell's [seq]. Each cell knows its heap slot ([pos], -1 once it is
   back in the pool), so [cancel] takes a queued timer out of the heap at
   once: the last slot fills the hole and sifts up or down, and the cell
   goes back to the pool. It acts only while the [seq] still matches and
   the cell is queued, so a handle kept past its firing or its cancel
   (the cell since pooled, or recycled under a new seq) cannot touch
   someone else's event. Almost every RPC retransmit timer ends this way,
   so the heap holds live events only. The other events pop in the same
   order, since the order is the (time, seq) total order whatever the
   heap's shape. What a removed timer still does is move the clock: the
   [horizon] keeps the latest time of one, and when no live event is
   left [step] and an unbounded [run] move the clock there if it is
   later, as firing the dead timers did (DESIGN.md §45). *)

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
  mutable seq : int;
  mutable pos : int; (* the cell's heap slot, -1 when not queued *)
  mutable fn : unit -> unit;
  mutable k : (unit, unit) Effect.Deep.continuation;
      (* a sleeping fiber, [no_k] or [spawn_k] *)
  mutable next_free : event;
}

(* Cyclic sentinel: terminates the freelist without an option. *)
let rec nil = { seq = 0; pos = -1; fn = nop; k = no_k; next_free = nil }

type waiter = { mutable w_k : (unit, unit) Effect.Deep.continuation (* [no_k] = not parked *) }

let waiter () = { w_k = no_k }

type t = {
  clock : float array; (* one cell: the current time, stored unboxed *)
  horizon : float array; (* one cell: the latest time of a removed timer *)
  mutable seq : int;
  mutable data : event array;
  mutable keys : float array; (* [keys.(i)] is the time of [data.(i)] *)
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

let[@inline] now t = t.clock.(0)

(* Slot i's event before slot j's: primary key time, tie-break by
   scheduling order. *)
let[@hot] before t i j =
  let ti = t.keys.(i) and tj = t.keys.(j) in
  ti < tj || (ti = tj && t.data.(i).seq < t.data.(j).seq)

(* Exchange two slots, cell and time together. *)
let[@hot] swap t i j =
  let ev = t.data.(i) and time = t.keys.(i) and other = t.data.(j) in
  t.data.(i) <- other;
  other.pos <- i;
  t.keys.(i) <- t.keys.(j);
  t.data.(j) <- ev;
  ev.pos <- j;
  t.keys.(j) <- time

let[@hot] rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if before t i parent then begin
      swap t i parent;
      sift_up t parent
    end
  end

let[@hot] rec sift_down t i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let s = if l < t.size && before t l i then l else i in
  let s = if r < t.size && before t r s then r else s in
  if s <> i then begin
    swap t i s;
    sift_down t s
  end

(* Empty slot [i]: the last slot moves into it and sifts whichever way
   its time says. Stale array slots keep pool cells reachable — intended:
   the cells are recycled, never collected. *)
let[@hot] remove_at t i =
  t.size <- t.size - 1;
  let last = t.size in
  if i < last then begin
    let ev = t.data.(last) in
    t.data.(i) <- ev;
    ev.pos <- i;
    t.keys.(i) <- t.keys.(last);
    if i > 0 && before t i ((i - 1) / 2) then sift_up t i else sift_down t i
  end

(* Callers guarantee [t.size > 0]. *)
let[@hot] pop_min t =
  let top = t.data.(0) in
  remove_at t 0;
  top

(* Return a cell to the pool; clearing the thunk and the continuation
   drops the only references the engine holds to the caller's state. *)
let[@hot] release t ev =
  ev.pos <- -1;
  ev.fn <- nop;
  ev.k <- no_k;
  ev.next_free <- t.free;
  t.free <- ev

(* Allocates only on pool miss — steady state recycles. *)
let acquire t =
  if t.free == nil then { seq = 0; pos = -1; fn = nop; k = no_k; next_free = nil }
  else begin
    let ev = t.free in
    t.free <- ev.next_free;
    ev.next_free <- nil;
    ev
  end

(* The rare path: double both columns. *)
let grow t =
  let cap = Array.length t.data in
  let ncap = if cap = 0 then 256 else cap * 2 in
  let nd = Array.make ncap nil and nk = Array.make ncap 0.0 in
  Array.blit t.data 0 nd 0 t.size;
  Array.blit t.keys 0 nk 0 t.size;
  t.data <- nd;
  t.keys <- nk

(* The caller has made room. *)
let[@hot] [@inline] push t time ev =
  t.data.(t.size) <- ev;
  ev.pos <- t.size;
  t.keys.(t.size) <- time;
  t.size <- t.size + 1;
  sift_up t (t.size - 1)

(* Inlined, [push] with it, so a computed time goes into its slot of
   [keys] without being boxed on the way (DESIGN.md §40). *)
let[@inline] enqueue t time fn k =
  let clock = t.clock.(0) in
  let time = if time < clock then clock else time in
  t.seq <- t.seq + 1;
  let ev = acquire t in
  ev.seq <- t.seq;
  ev.fn <- fn;
  ev.k <- k;
  if t.size = Array.length t.data then grow t;
  push t time ev;
  ev

type timer = event

let no_timer = nil

(* Inlined so a computed time is not boxed on its way to the heap; that
   holds in another module only when it is built without -opaque
   (DESIGN.md §38). *)
let[@inline] schedule_at t time fn = ignore (enqueue t time fn no_k)

let[@inline] schedule_timer t delay fn =
  enqueue t (t.clock.(0) +. if delay < 0.0 then 0.0 else delay) fn no_k

let[@inline] schedule t delay fn = ignore (schedule_timer t delay fn)

let timer_seq (ev : timer) = ev.seq

let[@hot] cancel t (ev : timer) seq =
  if ev.seq = seq && ev.pos >= 0 then begin
    let i = ev.pos in
    let time = t.keys.(i) in
    if time > t.horizon.(0) then t.horizon.(0) <- time;
    remove_at t i;
    release t ev
  end

(* No live event is left: the clock reaches the last removed timer's
   time, where firing the dead timers would have left it. *)
let settle t = if t.horizon.(0) > t.clock.(0) then t.clock.(0) <- t.horizon.(0)

let create () =
  let rec t =
    {
      clock = [| 0.0 |];
      horizon = [| 0.0 |];
      seq = 0;
      data = [||];
      keys = [||];
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
let spawn t fn = ignore (enqueue t t.clock.(0) fn spawn_k)

(* Inlined so the wake time reaches [wake_at] unboxed (from another
   module only without -opaque); the handler's enqueue copies it into
   the heap's time column, so a sleep boxes nothing. *)
let[@inline] doze t time =
  t.wake_at.(0) <- time;
  Effect.perform t.sleep

(* A positive duration always yields, even when [now + d] rounds to
   [now]: the sleeper then resumes after the events already queued for
   this instant. *)
let[@inline] sleep t d = if d > 0.0 then doze t (t.clock.(0) +. d)
let[@inline] sleep_until t time = if time > t.clock.(0) then doze t time

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
  if t.size = 0 then begin
    settle t;
    false
  end
  else begin
    t.clock.(0) <- t.keys.(0);
    fire t (pop_min t);
    true
  end

let run ?until t =
  let limit = match until with None -> Float.infinity | Some l -> l in
  while t.size > 0 && t.keys.(0) <= limit do
    (* Batch: one clock write per distinct timestamp, then drain it. *)
    let bt = t.keys.(0) in
    t.clock.(0) <- bt;
    while t.size > 0 && t.keys.(0) = bt do
      fire t (pop_min t)
    done
  done;
  match until with
  | None -> settle t
  | Some limit when limit > t.clock.(0) -> t.clock.(0) <- limit
  | Some _ -> ()

let pending t = t.size
