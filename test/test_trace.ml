open Helpers
module Engine = Slice_sim.Engine
module Net = Slice_net.Net
module Rpc = Slice_net.Rpc
module Trace = Slice_trace.Trace
module Json = Slice_util.Json
module Chaos = Slice_experiments.Chaos
module Tracing = Slice_experiments.Tracing

(* ---- null sentinel: the disabled path must be inert all the way down ---- *)

let null_is_inert () =
  check_bool "root of None is null" false (Trace.is_live (Trace.root None ~op:"x" ~site:"s"));
  let c = Trace.child Trace.null ~hop:"server" ~site:"s" () in
  check_bool "children of null are null" false (Trace.is_live c);
  (* none of these may raise or record *)
  Trace.finish c;
  Trace.emit Trace.null ~hop:"disk" ~site:"s" ~start:0.0 ~stop:1.0 ();
  Trace.bind_xid Trace.null 7;
  check_bool "xid lookup on None tracer" false (Trace.is_live (Trace.span_of_xid None 7))

(* ---- satellite 1 regression: the xid counter lives in Net.t ----

   fresh_xid used to draw from a process-global counter, so a second
   simulation in the same process started where the first left off and
   its packet payloads (which embed the xid) diverged from a fresh run's. *)

let xid_stream_restarts_per_net () =
  let seq () =
    let eng = Engine.create () in
    let net = Net.create eng () in
    let h = Net.add_node net ~name:"h" in
    let rpc = Rpc.create net h ~port:5 in
    List.init 8 (fun _ -> Rpc.fresh_xid rpc)
  in
  check_bool "back-to-back sims draw identical xid streams" true (seq () = seq ())

(* ---- span-tree well-formedness under a chaotic fault schedule ---- *)

let tree_well_formed_under_chaos () =
  Slice.Params.trace_force := true;
  let r =
    Fun.protect
      ~finally:(fun () -> Slice.Params.trace_force := false)
      (fun () ->
        ignore (Slice.Ensemble.drain_traces ());
        let w, schedule = chaos_row "untar, 2% loss + dir crash" in
        Chaos.run w schedule)
  in
  check_int "chaos oracle still clean" 0 r.Chaos.errors;
  let traces = Slice.Ensemble.drain_traces () in
  check_bool "chaos run produced a trace" true (traces <> []);
  let eps = 1e-9 in
  List.iter
    (fun tr ->
      let infos = Trace.infos tr in
      check_bool "spans recorded" true (infos <> []);
      let by_id = Hashtbl.create (List.length infos) in
      List.iter (fun (i : Trace.info) -> Hashtbl.replace by_id i.Trace.i_id i) infos;
      List.iter
        (fun (i : Trace.info) ->
          check_bool "id positive" true (i.Trace.i_id > 0);
          check_bool "duration non-negative" true (i.Trace.i_stop >= i.Trace.i_start -. eps);
          if i.Trace.i_parent = 0 then
            check_string "roots carry the request hop" "request" i.Trace.i_hop
          else
            match Hashtbl.find_opt by_id i.Trace.i_parent with
            | None -> Alcotest.failf "span %d: dangling parent %d" i.Trace.i_id i.Trace.i_parent
            | Some p ->
                check_bool "parent opened first" true
                  (p.Trace.i_start <= i.Trace.i_start +. eps);
                (* a finished parent must cover its children; an expired or
                   superseded root may be cut off while a child is parked *)
                if p.Trace.i_outcome = "ok" || p.Trace.i_outcome = "error" then
                  check_bool "child inside finished parent" true
                    (i.Trace.i_stop <= p.Trace.i_stop +. eps))
        infos)
    traces

(* ---- byte determinism: trace dump + metrics registry ---- *)

let dumps_byte_identical () =
  let once () =
    let t = Tracing.compute ~scale:0.05 () in
    Json.to_string (Tracing.json_of t)
  in
  let a = once () in
  let b = once () in
  check_bool "trace-report JSON byte-identical across runs" true (String.equal a b);
  check_bool "report non-trivial" true (String.length a > 1000)

let suite =
  [
    ("null sentinel inert", `Quick, null_is_inert);
    ("xid stream restarts per net", `Quick, xid_stream_restarts_per_net);
    ("span trees well-formed under chaos", `Slow, tree_well_formed_under_chaos);
    ("trace+metrics dumps byte-identical", `Slow, dumps_byte_identical);
  ]
