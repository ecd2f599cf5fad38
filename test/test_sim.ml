open Helpers
module Engine = Slice_sim.Engine
module Resource = Slice_sim.Resource
module Fiber = Slice_sim.Fiber

let event_ordering () =
  let eng = Engine.create () in
  let log = ref [] in
  Engine.schedule eng 2.0 (fun () -> log := "c" :: !log);
  Engine.schedule eng 1.0 (fun () -> log := "a" :: !log);
  Engine.schedule eng 1.0 (fun () -> log := "b" :: !log) (* FIFO at same time *);
  Engine.run eng;
  check_bool "order a,b,c" true (List.rev !log = [ "a"; "b"; "c" ]);
  check_float "clock at last event" 2.0 (Engine.now eng)

let schedule_past_clamps () =
  let eng = Engine.create () in
  let at = ref 0.0 in
  Engine.schedule eng 1.0 (fun () ->
      Engine.schedule_at eng 0.5 (fun () -> at := Engine.now eng));
  Engine.run eng;
  check_float "clamped to now" 1.0 !at

let run_until () =
  let eng = Engine.create () in
  let fired = ref 0 in
  Engine.schedule eng 1.0 (fun () -> incr fired);
  Engine.schedule eng 5.0 (fun () -> incr fired);
  Engine.run ~until:2.0 eng;
  check_int "only first fired" 1 !fired;
  check_int "one pending" 1 (Engine.pending eng);
  Engine.run eng;
  check_int "all fired" 2 !fired

let run_until_advances_clock () =
  (* [run ~until] leaves the clock at [until] even when the event queue
     drains first — periodic measurement loops rely on this so a quiet
     window still advances simulated time. *)
  let eng = Engine.create () in
  Engine.run ~until:3.0 eng;
  check_float "empty queue still advances" 3.0 (Engine.now eng);
  Engine.schedule eng 1.0 (fun () -> ());
  Engine.run ~until:10.0 eng;
  check_float "past last event" 10.0 (Engine.now eng);
  Engine.run ~until:5.0 eng;
  check_float "never moves backwards" 10.0 (Engine.now eng)

let sleep_advances_time () =
  let elapsed =
    run_fiber (fun eng ->
        let t0 = Engine.now eng in
        Engine.sleep eng 1.5;
        Engine.sleep eng 0.25;
        Engine.now eng -. t0)
  in
  check_float "slept 1.75" 1.75 elapsed

let suspend_resumes_with_value () =
  let v =
    run_fiber (fun eng ->
        Engine.suspend (fun wake -> Engine.schedule eng 1.0 (fun () -> wake 42)))
  in
  check_int "resumed value" 42 v

let waker_idempotent () =
  let v =
    run_fiber (fun eng ->
        Engine.suspend (fun wake ->
            Engine.schedule eng 1.0 (fun () -> wake 1);
            Engine.schedule eng 2.0 (fun () -> wake 2)))
  in
  check_int "first waker wins" 1 v

let fibers_interleave () =
  let eng = Engine.create () in
  let log = ref [] in
  Engine.spawn eng (fun () ->
      Engine.sleep eng 1.0;
      log := `A :: !log);
  Engine.spawn eng (fun () ->
      Engine.sleep eng 0.5;
      log := `B :: !log);
  Engine.run eng;
  check_bool "B before A" true (List.rev !log = [ `B; `A ])

let resource_fcfs () =
  let eng = Engine.create () in
  let r = Resource.create eng ~name:"cpu" () in
  let finish = Array.make 2 0.0 in
  Engine.spawn eng (fun () ->
      Resource.use r 1.0;
      finish.(0) <- Engine.now eng);
  Engine.spawn eng (fun () ->
      Resource.use r 0.5;
      finish.(1) <- Engine.now eng);
  Engine.run eng;
  check_float "first holds 1.0" 1.0 finish.(0);
  check_float "second queues behind" 1.5 finish.(1);
  check_float "busy time" 1.5 (Resource.busy_time r);
  check_float "utilization" 1.0 (Resource.utilization r ~elapsed:1.5);
  check_float "queue delay" 1.0 (Resource.queue_delay_total r);
  check_int "served" 2 (Resource.served r)

let resource_parallel_capacity () =
  let eng = Engine.create () in
  let r = Resource.create eng ~capacity:2 ~name:"arms" () in
  let finish = Array.make 3 0.0 in
  for i = 0 to 2 do
    Engine.spawn eng (fun () ->
        Resource.use r 1.0;
        finish.(i) <- Engine.now eng)
  done;
  Engine.run eng;
  check_float "two run in parallel" 1.0 finish.(0);
  check_float "two run in parallel 2" 1.0 finish.(1);
  check_float "third queues" 2.0 finish.(2)

let resource_zero_service () =
  run_fiber (fun eng ->
      let r = Resource.create eng ~name:"r" () in
      let t0 = Engine.now eng in
      Resource.use r 0.0;
      check_float "no wait" t0 (Engine.now eng))

let fiber_join_all () =
  let eng = Engine.create () in
  let done_at = ref 0.0 in
  Engine.spawn eng (fun () ->
      Fiber.join_all eng
        [ (fun () -> Engine.sleep eng 1.0); (fun () -> Engine.sleep eng 3.0); (fun () -> ()) ];
      done_at := Engine.now eng);
  Engine.run eng;
  check_float "joined at max" 3.0 !done_at

let fiber_join_empty () =
  run_fiber (fun eng ->
      let t0 = Engine.now eng in
      Fiber.join_all eng [];
      check_float "instant" t0 (Engine.now eng))

let fiber_timeout () =
  let r =
    run_fiber (fun eng ->
        Fiber.timeout eng 1.0 (fun () ->
            Engine.sleep eng 5.0;
            `Late))
  in
  check_bool "timed out" true (r = None);
  let r =
    run_fiber (fun eng ->
        Fiber.timeout eng 1.0 (fun () ->
            Engine.sleep eng 0.5;
            `Fast))
  in
  check_bool "completed" true (r = Some `Fast)

let parallel_window_bounds () =
  let eng = Engine.create () in
  let inflight = ref 0 in
  let peak = ref 0 in
  let ran = ref 0 in
  Engine.spawn eng (fun () ->
      Fiber.parallel_window eng ~window:3 10 (fun _ ->
          incr inflight;
          if !inflight > !peak then peak := !inflight;
          Engine.sleep eng 1.0;
          decr inflight;
          incr ran));
  Engine.run eng;
  check_int "all ran" 10 !ran;
  check_bool "peak <= window" true (!peak <= 3);
  check_int "peak reaches window" 3 !peak

let parallel_window_order () =
  let eng = Engine.create () in
  let starts = ref [] in
  Engine.spawn eng (fun () ->
      Fiber.parallel_window eng ~window:2 5 (fun i ->
          starts := i :: !starts;
          Engine.sleep eng (0.1 *. float_of_int (5 - i))));
  Engine.run eng;
  check_bool "issue order" true (List.rev !starts = [ 0; 1; 2; 3; 4 ])

let parallel_window_zero () =
  run_fiber (fun eng -> Fiber.parallel_window eng ~window:4 0 (fun _ -> Alcotest.fail "no items"))

(* A positive sleep always yields, even when [now + d] rounds to [now]:
   an event queued at the same instant runs before the sleeper resumes. *)
let tiny_sleep_yields () =
  let eng = Engine.create () in
  let log = ref [] in
  Engine.schedule eng 1e6 (fun () ->
      Engine.spawn eng (fun () ->
          Engine.sleep eng 1e-12;
          log := `Fiber :: !log);
      Engine.schedule eng 0.0 (fun () -> log := `Event :: !log));
  Engine.run eng;
  check_bool "same-instant event ran while the fiber slept" true
    (List.rev !log = [ `Event; `Fiber ])

(* A sleep parks the fiber through its own effect: only the runtime's
   continuation and the boxed wake time, where the generic [suspend]
   also built a register closure, a ref, a waker and a thunk. *)
let sleep_allocation_budget () =
  let eng = Engine.create () in
  let per_sleep = ref infinity in
  Engine.spawn eng (fun () ->
      for _ = 1 to 64 do
        Engine.sleep eng 0.001
      done;
      let n = 1024 in
      let w0 = Gc.minor_words () in
      for _ = 1 to n do
        Engine.sleep eng 0.001
      done;
      per_sleep := (Gc.minor_words () -. w0) /. float_of_int n);
  Engine.run eng;
  check_bool (Printf.sprintf "one sleep allocates %.1f words (budget 8)" !per_sleep) true
    (!per_sleep <= 8.0)

(* A cancelled timer still fires, as a no-op: the event count and the
   order of everything else are what they would have been. *)
let cancelled_timer_fires_as_noop () =
  let eng = Engine.create () in
  let log = ref [] in
  let tm = Engine.schedule_timer eng 1.0 (fun () -> log := "cancelled" :: !log) in
  Engine.schedule eng 1.0 (fun () -> log := "kept" :: !log);
  Engine.cancel tm (Engine.timer_seq tm);
  let steps = ref 0 in
  while Engine.step eng do
    incr steps
  done;
  check_int "both events still dispatched" 2 !steps;
  check_bool "only the kept thunk ran" true (!log = [ "kept" ])

(* A handle kept past its firing names a recycled cell: cancelling it
   with the old seq must leave the cell's new event alone. *)
let cancel_recycled_cell_is_noop () =
  let eng = Engine.create () in
  let fired = ref [] in
  let tm = Engine.schedule_timer eng 1.0 (fun () -> fired := 1 :: !fired) in
  let seq = Engine.timer_seq tm in
  Engine.run eng;
  let tm2 = Engine.schedule_timer eng 1.0 (fun () -> fired := 2 :: !fired) in
  check_bool "the fired cell is recycled" true (tm2 == tm);
  Engine.cancel tm seq;
  Engine.run eng;
  check_bool "the new event still fires" true (!fired = [ 2; 1 ])

(* [unpark] resumes the parked fiber synchronously: it runs up to its
   next park before [unpark] returns. A waiter is reusable, and
   unparking an empty one does nothing. *)
let park_unpark () =
  let eng = Engine.create () in
  let w = Engine.waiter () in
  let log = ref [] in
  Engine.spawn eng (fun () ->
      for i = 1 to 2 do
        Engine.park eng w;
        log := Printf.sprintf "resumed %d at %g" i (Engine.now eng) :: !log
      done);
  Engine.schedule eng 1.0 (fun () ->
      Engine.unpark w;
      log := "unpark returned" :: !log);
  Engine.schedule eng 2.0 (fun () ->
      Engine.unpark w;
      Engine.unpark w);
  Engine.run eng;
  check_bool "synchronous resumes, empty unpark ignored" true
    (List.rev !log = [ "resumed 1 at 1"; "unpark returned"; "resumed 2 at 2" ])

(* Parking stores the runtime's continuation in the waiter and nothing
   else: a park/unpark round trip allocates no closure. *)
let park_allocation_budget () =
  let eng = Engine.create () in
  let w = Engine.waiter () in
  let per_round = ref infinity in
  let rounds = 1024 in
  Engine.spawn eng (fun () ->
      for _ = 1 to rounds + 64 do
        Engine.park eng w
      done);
  Engine.spawn eng (fun () ->
      for _ = 1 to 64 do
        Engine.unpark w
      done;
      let w0 = Gc.minor_words () in
      for _ = 1 to rounds do
        Engine.unpark w
      done;
      per_round := (Gc.minor_words () -. w0) /. float_of_int rounds);
  Engine.run eng;
  check_bool (Printf.sprintf "one park/unpark allocates %.1f words (budget 4)" !per_round) true
    (!per_round <= 4.0)

let suite =
  [
    ("event ordering", `Quick, event_ordering);
    ("cancelled timer fires as a no-op", `Quick, cancelled_timer_fires_as_noop);
    ("cancel on a recycled cell is a no-op", `Quick, cancel_recycled_cell_is_noop);
    ("park/unpark", `Quick, park_unpark);
    ("park allocation budget", `Quick, park_allocation_budget);
    ("tiny sleep still yields", `Quick, tiny_sleep_yields);
    ("sleep allocation budget", `Quick, sleep_allocation_budget);
    ("schedule past clamps", `Quick, schedule_past_clamps);
    ("run ~until", `Quick, run_until);
    ("run ~until advances clock", `Quick, run_until_advances_clock);
    ("sleep advances time", `Quick, sleep_advances_time);
    ("suspend resumes with value", `Quick, suspend_resumes_with_value);
    ("waker idempotent", `Quick, waker_idempotent);
    ("fibers interleave", `Quick, fibers_interleave);
    ("resource FCFS", `Quick, resource_fcfs);
    ("resource parallel capacity", `Quick, resource_parallel_capacity);
    ("resource zero service", `Quick, resource_zero_service);
    ("fiber join_all", `Quick, fiber_join_all);
    ("fiber join empty", `Quick, fiber_join_empty);
    ("fiber timeout", `Quick, fiber_timeout);
    ("parallel_window bounds", `Quick, parallel_window_bounds);
    ("parallel_window order", `Quick, parallel_window_order);
    ("parallel_window zero items", `Quick, parallel_window_zero);
  ]
