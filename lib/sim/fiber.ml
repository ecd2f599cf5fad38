(* Both combinators park their caller on one waiter, which each finishing
   child unparks: the wake point is where the child finishes, and nothing
   is allocated for the wait itself. *)

let join_all eng fns =
  match fns with
  | [] -> ()
  | _ ->
      let w = Engine.waiter () in
      let remaining = ref (List.length fns) in
      List.iter
        (fun fn ->
          Engine.spawn eng (fun () ->
              fn ();
              decr remaining;
              if !remaining = 0 then Engine.unpark w))
        fns;
      Engine.park eng w

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
