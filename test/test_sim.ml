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

let fiber_join_all_raises () =
  let eng = Engine.create () in
  Engine.spawn eng (fun () ->
      Fiber.join_all eng
        [ (fun () -> Engine.sleep eng 2.0); (fun () -> Engine.sleep eng 1.0; failwith "child") ]);
  Alcotest.check_raises "child exception aborts the run" (Failure "child") (fun () -> Engine.run eng);
  check_float "aborted when the child failed" 1.0 (Engine.now eng)

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

(* A sleep parks the fiber through its own effect: the wake time goes
   unboxed into the heap's time column, so what is left is the runtime's
   continuation, with no closure, thunk or boxed float. *)
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
  check_bool (Printf.sprintf "one sleep allocates %.1f words (budget 2)" !per_sleep) true
    (!per_sleep <= 2.0)

(* An event's time sits unboxed in the heap's time column and the clock
   in an unboxed cell, so scheduling a thunk made once and firing it
   allocates nothing, by delay or by absolute time. *)
let schedule_allocation_budget () =
  let eng = Engine.create () in
  let fn () = () in
  let batch n =
    for _ = 1 to n do
      Engine.schedule eng 0.5 fn;
      Engine.schedule_at eng (Engine.now eng +. 0.25) fn
    done;
    Engine.run eng
  in
  let n = 1024 in
  batch n;
  let w0 = Gc.minor_words () in
  batch n;
  let per_event = (Gc.minor_words () -. w0) /. float_of_int (2 * n) in
  check_bool (Printf.sprintf "an event and its firing allocate %.2f words (budget 0)" per_event)
    true (per_event = 0.0)

(* A timer armed and then cancelled, the fate of almost every RPC
   retransmit timer, allocates nothing once the pool is warm. *)
let timer_cancel_allocation_budget () =
  let eng = Engine.create () in
  let fn () = () in
  let batch n =
    for _ = 1 to n do
      let tm = Engine.schedule_timer eng 0.5 fn in
      Engine.cancel eng tm (Engine.timer_seq tm)
    done;
    Engine.run eng
  in
  let n = 1024 in
  batch n;
  let w0 = Gc.minor_words () in
  batch n;
  let per_timer = (Gc.minor_words () -. w0) /. float_of_int n in
  check_bool (Printf.sprintf "a timer and its cancel allocate %.2f words (budget 0)" per_timer)
    true (per_timer = 0.0)

(* A spawn puts the fiber's body straight into an event cell: what is
   left is the runtime's fiber start. *)
let spawn_allocation_budget () =
  let eng = Engine.create () in
  let body () = () in
  let batch n =
    for _ = 1 to n do
      Engine.spawn eng body
    done;
    Engine.run eng
  in
  let n = 1024 in
  batch n;
  let w0 = Gc.minor_words () in
  batch n;
  let per_spawn = (Gc.minor_words () -. w0) /. float_of_int n in
  check_bool (Printf.sprintf "one spawn allocates %.1f words (budget 6)" per_spawn) true
    (per_spawn <= 6.0)

(* [join_all] parks its caller on a waiter that the last job unparks:
   two spawns, their closures, the waiter and the counter. *)
let join_all_allocation_budget () =
  let eng = Engine.create () in
  let job () = () in
  let jobs = [ job; job ] in
  let per_join = ref infinity in
  Engine.spawn eng (fun () ->
      for _ = 1 to 64 do
        Fiber.join_all eng jobs
      done;
      let n = 1024 in
      let w0 = Gc.minor_words () in
      for _ = 1 to n do
        Fiber.join_all eng jobs
      done;
      per_join := (Gc.minor_words () -. w0) /. float_of_int n);
  Engine.run eng;
  check_bool (Printf.sprintf "a two-job join_all allocates %.1f words (budget 52)" !per_join)
    true (!per_join <= 52.0)

(* A cancelled timer leaves the queue: only the kept event is
   dispatched. The clock still reaches the removed timer's time once the
   drain ends, where firing it as a no-op would have left it. *)
let cancelled_timer_leaves_the_queue () =
  let eng = Engine.create () in
  let log = ref [] in
  let tm = Engine.schedule_timer eng 1.0 (fun () -> log := "cancelled" :: !log) in
  Engine.schedule eng 0.5 (fun () -> log := "kept" :: !log);
  Engine.cancel eng tm (Engine.timer_seq tm);
  check_int "one event queued" 1 (Engine.pending eng);
  let steps = ref 0 in
  while Engine.step eng do
    incr steps
  done;
  check_int "one event dispatched" 1 !steps;
  check_bool "only the kept thunk ran" true (!log = [ "kept" ]);
  check_float "the clock at the removed timer's time" 1.0 (Engine.now eng)

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
  Engine.cancel eng tm seq;
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

(* [wake_all] resumes the last parked first, each before the next. A
   fiber that waits again while the others resume stays parked until the
   next [wake_all]; waking an empty queue does nothing. *)
let queue_wake_order () =
  let eng = Engine.create () in
  let q = Engine.queue () in
  let log = ref [] in
  let note s = log := Printf.sprintf "%s at %g" s (Engine.now eng) :: !log in
  for i = 1 to 3 do
    Engine.spawn eng (fun () ->
        Engine.wait eng q;
        note (Printf.sprintf "resumed %d" i);
        if i = 2 then begin
          Engine.wait eng q;
          note "2 resumed again"
        end)
  done;
  Engine.schedule eng 1.0 (fun () ->
      Engine.wake_all q;
      note "wake_all returned");
  Engine.schedule eng 2.0 (fun () ->
      Engine.wake_all q;
      Engine.wake_all q);
  Engine.run eng;
  Alcotest.(check (list string))
    "last parked first, re-waiters wait for the next wake"
    [ "resumed 3 at 1"; "resumed 2 at 1"; "resumed 1 at 1"; "wake_all returned at 1";
      "2 resumed again at 2" ]
    (List.rev !log)

(* Once warm, a queue's wait and wake allocate what a park/unpark round
   trip does: the runtime's continuation, no node, closure or list cell. *)
let queue_allocation_budget () =
  let eng = Engine.create () in
  let q = Engine.queue () in
  let per_round = ref infinity in
  let rounds = 1024 in
  Engine.spawn eng (fun () ->
      for _ = 1 to rounds + 64 do
        Engine.wait eng q
      done);
  Engine.spawn eng (fun () ->
      for _ = 1 to 64 do
        Engine.wake_all q
      done;
      let w0 = Gc.minor_words () in
      for _ = 1 to rounds do
        Engine.wake_all q
      done;
      per_round := (Gc.minor_words () -. w0) /. float_of_int rounds);
  Engine.run eng;
  check_bool (Printf.sprintf "one wait/wake_all allocates %.1f words (budget 4)" !per_round) true
    (!per_round <= 4.0)

(* ---- heap order against a reference model ----

   A random script schedules events (relative delays with many ties and
   some negative, absolute times some in the past, timers some cancelled)
   and spawns fibers that sleep and schedule in turn. Later events and
   fibers cancel timers made earlier, each twice: some still queued, some
   cancelled already, some fired with their cell since recycled. The
   reference runs the same script over a plain list, always taking the
   event with the least (clamped time, scheduling order): a stable sort
   by time, where a cancelled timer stays queued and does nothing. Every
   action logs its label and the clock it sees; [run ~until] must stop
   at the same event and leave the same clock, and so must the drain. *)

type act =
  | After of float * act list  (* [schedule] *)
  | At of float * act list  (* [schedule_at], possibly in the past *)
  | Timer of float * bool * act list  (* [schedule_timer], cancelled if true *)
  | Cancel of int  (* cancel the timer made [n mod count] (if any), twice *)
  | Spawn of step list

and step = Nap of float | Nap_until of float | Act of act

let rec show_act = function
  | After (d, k) -> Printf.sprintf "After(%g,[%s])" d (show_acts k)
  | At (t, k) -> Printf.sprintf "At(%g,[%s])" t (show_acts k)
  | Timer (d, c, k) -> Printf.sprintf "Timer(%g,%b,[%s])" d c (show_acts k)
  | Cancel n -> Printf.sprintf "Cancel %d" n
  | Spawn s -> Printf.sprintf "Spawn[%s]" (String.concat ";" (List.map show_step s))

and show_acts k = String.concat ";" (List.map show_act k)

and show_step = function
  | Nap d -> Printf.sprintf "Nap %g" d
  | Nap_until t -> Printf.sprintf "Nap_until %g" t
  | Act a -> show_act a

let gen_script =
  let open QCheck2.Gen in
  (* halves keep every sum exact, so equal times really tie *)
  let halves lo hi = map (fun i -> float_of_int i *. 0.5) (int_range lo hi) in
  let rec act depth =
    let kids = if depth = 0 then return [] else list_size (int_bound 3) (act (depth - 1)) in
    let step =
      if depth = 0 then map (fun d -> Nap d) (halves (-1) 3)
      else
        frequency
          [
            (2, map (fun d -> Nap d) (halves (-1) 3));
            (1, map (fun t -> Nap_until t) (halves 0 8));
            (2, map (fun a -> Act a) (act (depth - 1)));
          ]
    in
    frequency
      [
        (3, map2 (fun d k -> After (d, k)) (halves (-2) 4) kids);
        (2, map2 (fun t k -> At (t, k)) (halves 0 8) kids);
        (2, map3 (fun d c k -> Timer (d, c, k)) (halves (-1) 4) bool kids);
        (2, map (fun n -> Cancel n) (int_bound 7));
        (2, map (fun s -> Spawn s) (list_size (int_bound 4) step));
      ]
  in
  pair (list_size (int_range 1 6) (act 3)) (halves 0 10)

(* The script on the engine: the log, the clock after [run ~until], the
   log length then, and the final clock. *)
let engine_trace (script, until) =
  let eng = Engine.create () in
  let log = ref [] and next = ref 0 in
  let label () =
    incr next;
    !next
  in
  let timers = ref [||] in
  let rec exec = function
    | After (d, k) ->
        let l = label () in
        Engine.schedule eng d (fun () -> fire l k)
    | At (t, k) ->
        let l = label () in
        Engine.schedule_at eng t (fun () -> fire l k)
    | Timer (d, c, k) ->
        let l = label () in
        let tm = Engine.schedule_timer eng d (fun () -> fire l k) in
        let seq = Engine.timer_seq tm in
        timers := Array.append !timers [| (tm, seq) |];
        if c then Engine.cancel eng tm seq
    | Cancel n ->
        let count = Array.length !timers in
        if count > 0 then begin
          let tm, seq = !timers.(n mod count) in
          Engine.cancel eng tm seq;
          Engine.cancel eng tm seq
        end
    | Spawn steps ->
        let l = label () in
        Engine.spawn eng (fun () ->
            log := (l, Engine.now eng) :: !log;
            List.iter
              (function
                | Nap d -> Engine.sleep eng d; log := (l, Engine.now eng) :: !log
                | Nap_until t -> Engine.sleep_until eng t; log := (l, Engine.now eng) :: !log
                | Act a -> exec a)
              steps)
  and fire l k =
    log := (l, Engine.now eng) :: !log;
    List.iter exec k
  in
  List.iter exec script;
  Engine.run ~until eng;
  let mid = (Engine.now eng, List.length !log) in
  Engine.run eng;
  (List.rev !log, mid, Engine.now eng)

(* The same script over a list of (time, seq, thunk), least first. *)
let reference_trace (script, until) =
  let clock = ref 0.0 and seq = ref 0 and queue = ref [] in
  let log = ref [] and next = ref 0 in
  let label () =
    incr next;
    !next
  in
  let timers = ref [||] in
  let enqueue time f =
    let time = if time < !clock then !clock else time in
    incr seq;
    queue := (time, !seq, f) :: !queue
  in
  let rec drain limit =
    match
      List.fold_left
        (fun best ((t, s, _) as ev) ->
          match best with
          | Some (bt, bs, _) when bt < t || (bt = t && bs < s) -> best
          | _ -> Some ev)
        None !queue
    with
    | Some ((t, s, f) as _ev) when t <= limit ->
        queue := List.filter (fun (_, s', _) -> s' <> s) !queue;
        clock := t;
        f ();
        drain limit
    | _ -> ()
  in
  let rec exec = function
    | After (d, k) ->
        let l = label () in
        enqueue (!clock +. if d < 0.0 then 0.0 else d) (fun () -> fire l k)
    | At (t, k) ->
        let l = label () in
        enqueue t (fun () -> fire l k)
    | Timer (d, c, k) ->
        let l = label () in
        let live = ref (not c) in
        timers := Array.append !timers [| live |];
        enqueue (!clock +. if d < 0.0 then 0.0 else d) (fun () ->
            if !live then begin
              live := false;
              fire l k
            end)
    | Cancel n ->
        let count = Array.length !timers in
        if count > 0 then !timers.(n mod count) := false
    | Spawn steps ->
        let l = label () in
        let note () = log := (l, !clock) :: !log in
        let rec go = function
          | [] -> ()
          | Nap d :: rest when d > 0.0 ->
              enqueue (!clock +. d) (fun () ->
                  note ();
                  go rest)
          | Nap_until t :: rest when t > !clock ->
              enqueue t (fun () ->
                  note ();
                  go rest)
          | (Nap _ | Nap_until _) :: rest ->
              note ();
              go rest
          | Act a :: rest ->
              exec a;
              go rest
        in
        enqueue !clock (fun () ->
            note ();
            go steps)
  and fire l k =
    log := (l, !clock) :: !log;
    List.iter exec k
  in
  List.iter exec script;
  drain until;
  if until > !clock then clock := until;
  let mid = (!clock, List.length !log) in
  drain infinity;
  (List.rev !log, mid, !clock)

let heap_order_matches_reference =
  qtest ~count:300 "heap order is a stable sort by clamped time"
    ~print:(fun (s, u) -> Printf.sprintf "until %g: %s" u (show_acts s))
    gen_script
    (fun case -> engine_trace case = reference_trace case)

let suite =
  [
    heap_order_matches_reference;
    ("event ordering", `Quick, event_ordering);
    ("cancelled timer leaves the queue", `Quick, cancelled_timer_leaves_the_queue);
    ("cancel on a recycled cell is a no-op", `Quick, cancel_recycled_cell_is_noop);
    ("park/unpark", `Quick, park_unpark);
    ("park allocation budget", `Quick, park_allocation_budget);
    ("queue wake order", `Quick, queue_wake_order);
    ("queue allocation budget", `Quick, queue_allocation_budget);
    ("tiny sleep still yields", `Quick, tiny_sleep_yields);
    ("sleep allocation budget", `Quick, sleep_allocation_budget);
    ("schedule allocation budget", `Quick, schedule_allocation_budget);
    ("timer cancel allocation budget", `Quick, timer_cancel_allocation_budget);
    ("spawn allocation budget", `Quick, spawn_allocation_budget);
    ("join_all allocation budget", `Quick, join_all_allocation_budget);
    ("schedule past clamps", `Quick, schedule_past_clamps);
    ("run ~until", `Quick, run_until);
    ("run ~until advances clock", `Quick, run_until_advances_clock);
    ("sleep advances time", `Quick, sleep_advances_time);
    ("fibers interleave", `Quick, fibers_interleave);
    ("resource FCFS", `Quick, resource_fcfs);
    ("resource parallel capacity", `Quick, resource_parallel_capacity);
    ("resource zero service", `Quick, resource_zero_service);
    ("fiber join_all", `Quick, fiber_join_all);
    ("fiber join empty", `Quick, fiber_join_empty);
    ("fiber join_all child exception", `Quick, fiber_join_all_raises);
    ("parallel_window bounds", `Quick, parallel_window_bounds);
    ("parallel_window order", `Quick, parallel_window_order);
    ("parallel_window zero items", `Quick, parallel_window_zero);
  ]
