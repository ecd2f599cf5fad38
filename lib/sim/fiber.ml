(* A fan-out parks its caller on one waiter, which the last child to
   finish unparks: the wake point is where that child finishes. Its
   children share one thunk, spawned once per child; the engine starts
   them in spawn order, so each takes the next index as it starts. *)
type fan = {
  w : Engine.waiter;
  body : int -> unit;
  mutable next : int; (* the index the next child to start takes *)
  mutable running : int; (* children not yet finished *)
}

let[@hot] finish fan =
  fan.running <- fan.running - 1;
  if fan.running = 0 then Engine.unpark fan.w

let run_child fan =
  let i = fan.next in
  fan.next <- i + 1;
  fan.body i;
  finish fan

let fan_out eng n body =
  if n > 0 then begin
    let fan = { w = Engine.waiter (); body; next = 0; running = n } in
    let child () = run_child fan in
    for _ = 1 to n do
      Engine.spawn eng child
    done;
    Engine.park eng fan.w
  end

(* The children start in list order, so each takes the next function as
   it starts. *)
let join_all eng fns =
  let rest = ref fns in
  fan_out eng (List.length fns) (fun _ ->
      match !rest with
      | fn :: more ->
          rest := more;
          fn ()
      | [] -> ())

(* The caller is parked whenever a child finishes: children only run
   after [pump] has returned. It wakes at every finish, pumps while
   indices remain, and otherwise parks again until the last one. *)
let parallel_window eng ~window n f =
  if window <= 0 then invalid_arg "Fiber.parallel_window";
  let inflight = ref 0 in
  let started = ref 0 in
  let finished = ref 0 in
  let w = Engine.waiter () in
  let pump () =
    while !inflight < window && !started < n do
      let i = !started in
      incr started;
      incr inflight;
      Engine.spawn eng (fun () ->
          f i;
          decr inflight;
          incr finished;
          Engine.unpark w)
    done
  in
  pump ();
  while !started < n do
    Engine.park eng w;
    pump ()
  done;
  while !finished < n do
    Engine.park eng w
  done
