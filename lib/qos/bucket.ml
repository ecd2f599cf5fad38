(* Token-bucket admission gate: [rate] tokens/second accrue up to
   [burst]; a request takes one token or reports how long until one is
   available. Refill is computed lazily from the last touch, so the gate
   costs two float ops per decision and never arms a timer itself —
   the caller schedules the deferred retry. Purely arithmetic in the
   caller's clock: deterministic by construction. *)

type t = {
  rate : float;
  burst : float;
  mutable tokens : float;
  mutable last : float;  (* clock of the last refill *)
}

let create ~rate ~burst =
  if rate <= 0.0 then invalid_arg "Bucket.create: rate must be positive";
  let burst = if burst < 1.0 then 1.0 else burst in
  { rate; burst; tokens = burst; last = 0.0 }

let refill t ~now =
  if now > t.last then begin
    let filled = t.tokens +. ((now -. t.last) *. t.rate) in
    t.tokens <- (if filled > t.burst then t.burst else filled);
    t.last <- now
  end

let try_take t ~now =
  refill t ~now;
  if t.tokens >= 1.0 then begin
    t.tokens <- t.tokens -. 1.0;
    true
  end
  else false

(* Seconds until a full token exists (0.0 when one is already there).
   After a failed [try_take] this is the natural deferral delay. *)
let next_ready t ~now =
  refill t ~now;
  if t.tokens >= 1.0 then 0.0 else (1.0 -. t.tokens) /. t.rate
