(* Token-bucket admission gate: [rate] tokens/second accrue up to
   [burst]; a request takes one token or reports how long until one is
   available. Refill is computed lazily from the last touch, so the gate
   costs two float ops per decision and never arms a timer itself —
   the caller schedules the deferred retry. Purely arithmetic in the
   caller's clock: deterministic by construction. *)

(* The two changing values sit in a float array, and the gate's calls
   are inlined, so a decision boxes no float. *)
type t = {
  rate : float;
  burst : float;
  st : float array; (* [| tokens; clock of the last refill |] *)
}

let create ~rate ~burst =
  if rate <= 0.0 then invalid_arg "Bucket.create: rate must be positive";
  let burst = if burst < 1.0 then 1.0 else burst in
  { rate; burst; st = [| burst; 0.0 |] }

let[@inline] refill t ~now =
  let st = t.st in
  if now > st.(1) then begin
    let filled = st.(0) +. ((now -. st.(1)) *. t.rate) in
    st.(0) <- (if filled > t.burst then t.burst else filled);
    st.(1) <- now
  end

let[@inline] try_take t ~now =
  refill t ~now;
  let st = t.st in
  if st.(0) >= 1.0 then begin
    st.(0) <- st.(0) -. 1.0;
    true
  end
  else false

(* Seconds until a full token exists (0.0 when one is already there).
   After a failed [try_take] this is the natural deferral delay. *)
let[@inline] next_ready t ~now =
  refill t ~now;
  let tokens = t.st.(0) in
  if tokens >= 1.0 then 0.0 else (1.0 -. tokens) /. t.rate
