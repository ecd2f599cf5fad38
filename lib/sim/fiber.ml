let join_all eng fns =
  match fns with
  | [] -> ()
  | _ ->
      let remaining = ref (List.length fns) in
      Engine.suspend (fun wake ->
          List.iter
            (fun fn ->
              Engine.spawn eng (fun () ->
                  fn ();
                  decr remaining;
                  if !remaining = 0 then wake ()))
            fns)

let parallel_window eng ~window n f =
  if window <= 0 then invalid_arg "Fiber.parallel_window";
  let inflight = ref 0 in
  let started = ref 0 in
  let finished = ref 0 in
  let done_waker = ref None in
  let slot_wakers = Queue.create () in
  let pump () =
    while !inflight < window && !started < n do
      let i = !started in
      incr started;
      incr inflight;
      Engine.spawn eng (fun () ->
          f i;
          decr inflight;
          incr finished;
          (match Queue.take_opt slot_wakers with Some w -> w () | None -> ());
          if !finished = n then match !done_waker with Some w -> w () | None -> ())
    done
  in
  pump ();
  while !started < n do
    Engine.suspend (fun wake -> Queue.add (fun () -> wake ()) slot_wakers);
    pump ()
  done;
  if !finished < n then Engine.suspend (fun wake -> done_waker := Some (fun () -> wake ()))
