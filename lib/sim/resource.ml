type t = {
  eng : Engine.t;
  name : string;
  free_at : float array; (* completion time of the work booked on each server *)
  stats : float array; (* [| busy; waited |] — unboxed cells, hot-path stores *)
  mutable served : int;
}

let create eng ?(capacity = 1) ~name () =
  if capacity <= 0 then invalid_arg "Resource.create: capacity must be positive";
  { eng; name; free_at = Array.make capacity 0.0; stats = [| 0.0; 0.0 |]; served = 0 }

(* Index of the server that frees earliest; FCFS because bookings happen
   in event order and each booking extends exactly one server's schedule.
   Recursive int scan instead of a [ref] — this runs per packet per NIC. *)
let rec earliest (free_at : float array) i best =
  if i >= Array.length free_at then best
  else earliest free_at (i + 1) (if free_at.(i) < free_at.(best) then i else best)

(* [book], [reserve] and [use] are inlined into each other, and into
   their callers in other modules when those are built without -opaque
   (DESIGN.md §38), so a booking's service and finish times stay unboxed
   until [Engine] stores the finish in an event cell, which boxes it. *)
let[@inline] book t service =
  let best =
    if Array.length t.free_at = 1 then 0 else earliest t.free_at 1 0
  in
  let now = Engine.now t.eng in
  let start = if t.free_at.(best) > now then t.free_at.(best) else now in
  let finish = start +. service in
  t.free_at.(best) <- finish;
  t.stats.(0) <- t.stats.(0) +. service;
  t.stats.(1) <- t.stats.(1) +. (start -. now);
  t.served <- t.served + 1;
  finish

let[@inline] reserve t service = if service <= 0.0 then Engine.now t.eng else book t service

let[@inline] use t service =
  if service > 0.0 then begin
    let finish = book t service in
    Engine.sleep_until t.eng finish
  end

let busy_time t = t.stats.(0)

let utilization t ~elapsed =
  if elapsed <= 0.0 then 0.0
  else t.stats.(0) /. (elapsed *. float_of_int (Array.length t.free_at))

(* Instantaneous backlog: how long a request arriving now would wait for
   a free server. The load signal behind power-of-two-choices routing —
   cumulative counters can't tell a momentarily swamped server from a
   busy-all-day one. *)
let backlog t =
  let best = if Array.length t.free_at = 1 then 0 else earliest t.free_at 1 0 in
  let wait = t.free_at.(best) -. Engine.now t.eng in
  if wait > 0.0 then wait else 0.0

let queue_delay_total t = t.stats.(1)
let served t = t.served
