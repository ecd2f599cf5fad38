(* slice_sim: command-line driver for the Slice reproduction.

   Each subcommand regenerates one exhibit from the paper's evaluation
   (Section 5) at a configurable scale. `all` runs everything. *)

module E = Slice_experiments
open Cmdliner

let scale_arg ~default =
  let doc =
    "Scale factor for the experiment (file sizes, op counts, file sets). 1.0 reproduces the \
     paper's full workload sizes; smaller values preserve the shapes and run much faster."
  in
  Arg.(value & opt float default & info [ "s"; "scale" ] ~docv:"SCALE" ~doc)

let trace_json_arg =
  let doc =
    "Force request tracing on for every simulation this command runs and write the collected \
     span dumps (a JSON array, one entry per simulation in creation order) to $(docv)."
  in
  Arg.(value & opt (some string) None & info [ "trace-json" ] ~docv:"FILE" ~doc)

let write_file path s =
  let oc = open_out path in
  output_string oc s;
  output_char oc '\n';
  close_out oc

(* Set the force flag once, before any engine exists, so tracing cannot
   perturb determinism mid-run; collect whatever ensembles were built. *)
let with_trace_dump trace_json f =
  (match trace_json with Some _ -> Slice.Params.trace_force := true | None -> ());
  f ();
  match trace_json with
  | None -> ()
  | Some path ->
      let dumps =
        List.map Slice_trace.Trace.to_json (Slice.Ensemble.drain_traces ())
      in
      write_file path (Slice_util.Json.to_string (Arr dumps));
      Printf.printf "wrote %s (%d trace dump%s)\n%!" path (List.length dumps)
        (if List.length dumps = 1 then "" else "s")

let run_table2 scale = E.Report.print (E.Table2.report ~scale ())
let run_table3 scale = E.Report.print (E.Table3.report ~scale ())
let run_fig3 scale = E.Report.print (E.Fig3.report ~scale ())
let run_fig4 scale = E.Report.print (E.Fig4.report ~scale ())

let run_fig56 ~fig5 ~fig6 scale points =
  let t = E.Fig5.compute ~scale ~points_per_curve:points () in
  if fig5 then E.Report.print (E.Fig5.report_fig5 t);
  if fig6 then E.Report.print (E.Fig5.report_fig6 t)

let points_arg =
  Arg.(value & opt int 4 & info [ "points" ] ~docv:"N" ~doc:"Load points per curve.")

let cmd name ~default_scale ~doc f =
  let run scale trace_json = with_trace_dump trace_json (fun () -> f scale) in
  Cmd.v (Cmd.info name ~doc) Term.(const run $ scale_arg ~default:default_scale $ trace_json_arg)

let table2_cmd = cmd "table2" ~default_scale:0.08 ~doc:"Table 2: bulk I/O bandwidth." run_table2

let table3_cmd =
  cmd "table3" ~default_scale:0.05 ~doc:"Table 3: uproxy CPU cost breakdown." run_table3

let fig3_cmd = cmd "fig3" ~default_scale:0.04 ~doc:"Figure 3: directory service scaling." run_fig3

let fig4_cmd =
  cmd "fig4" ~default_scale:0.03 ~doc:"Figure 4: mkdir-switching affinity sweep." run_fig4

let fig5_cmd =
  Cmd.v
    (Cmd.info "fig5" ~doc:"Figure 5: SPECsfs97 delivered throughput.")
    Term.(
      const (fun s p tj -> with_trace_dump tj (fun () -> run_fig56 ~fig5:true ~fig6:false s p))
      $ scale_arg ~default:0.01 $ points_arg $ trace_json_arg)

let fig6_cmd =
  Cmd.v
    (Cmd.info "fig6" ~doc:"Figure 6: SPECsfs97 latency vs throughput.")
    Term.(
      const (fun s p tj -> with_trace_dump tj (fun () -> run_fig56 ~fig5:false ~fig6:true s p))
      $ scale_arg ~default:0.01 $ points_arg $ trace_json_arg)

let run_chaos () = E.Report.print (E.Chaos.report ())

let chaos_cmd =
  Cmd.v
    (Cmd.info "chaos" ~doc:"Fault injection: workloads under loss and node crashes.")
    Term.(const (fun tj -> with_trace_dump tj run_chaos) $ trace_json_arg)

let run_offload scale = E.Report.print (E.Offload.report ~scale ())

let offload_cmd =
  cmd "offload" ~default_scale:0.25
    ~doc:"Metadata offload: dir-server requests absorbed by the uproxy cache." run_offload

let run_ablation scale = E.Report.print (E.Ablation.report ~scale ())

let ablation_cmd =
  cmd "ablation" ~default_scale:0.25
    ~doc:"Ablations: MD5 vs FNV routing balance, small-file threshold, stripe unit."
    run_ablation

(* An exhibit with a machine-readable artifact: print the report of one
   computed result and, under --json, write its JSON too. Returns the
   subcommand and the run function `all` reuses. [trace_json] adds the
   --trace-json flag every simulating subcommand carries except trace,
   which records spans itself. *)
let json_exhibit name ~doc ~json_doc ~default_scale ?(trace_json = true) ~compute ~report_of
    ~json_of () =
  let run scale json =
    let t = compute scale in
    E.Report.print (report_of t);
    match json with
    | None -> ()
    | Some path ->
        write_file path (Slice_util.Json.to_string (json_of t));
        Printf.printf "wrote %s\n%!" path
  in
  let json =
    Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE" ~doc:json_doc)
  in
  let scale = scale_arg ~default:default_scale in
  let term =
    if trace_json then
      Term.(const (fun s j tj -> with_trace_dump tj (fun () -> run s j)) $ scale $ json $ trace_json_arg)
    else Term.(const run $ scale $ json)
  in
  (Cmd.v (Cmd.info name ~doc) term, run)

let trace_cmd, run_trace =
  json_exhibit "trace" ~trace_json:false ~default_scale:0.25
    ~doc:"Per-op-class latency by hop (proxy/network/server/disk) on the SPECsfs mix."
    ~json_doc:"Write the full trace report (hop rows, metrics registry, span dump) to $(docv)."
    ~compute:(fun scale -> E.Tracing.compute ~scale ())
    ~report_of:E.Tracing.report_of ~json_of:E.Tracing.json_of ()

let scale_cmd, run_scale =
  json_exhibit "scale" ~default_scale:0.2
    ~doc:"Online reconfiguration: add a server of each class under live load."
    ~json_doc:
      "Write the scale-out report (phase throughput/latency, migration counts, post-run audit, \
       reconfig metrics) to $(docv)."
    ~compute:(fun scale -> E.Scale.compute ~scale ())
    ~report_of:E.Scale.report_of ~json_of:E.Scale.json_of ()

let failover_cmd, run_failover =
  json_exhibit "failover" ~default_scale:1.0
    ~doc:"Dataless failover: kill a manager of each class; hot standbys take over."
    ~json_doc:
      "Write the failover report (per-phase throughput/latency, takeover MTTR, zombie fence \
       probes, post-run audit, failover metrics) to $(docv)."
    ~compute:(fun scale -> E.Failover.compute ~scale ())
    ~report_of:E.Failover.report_of ~json_of:E.Failover.json_of ()

let storm_cmd, run_storm =
  json_exhibit "storm" ~default_scale:1.0
    ~doc:
      "Multi-tenant traffic storm: web + flood + scan tenants, FIFO vs per-tenant QoS (WFQ, \
       admission, p2c mirrored reads)."
    ~json_doc:
      "Write the storm report (per-tenant throughput/latency for the QoS-off and QoS-on runs, \
       admission/p2c counters, ensemble metrics) to $(docv)."
    ~compute:(fun scale -> E.Storm.compute ~scale ())
    ~report_of:E.Storm.report_of ~json_of:E.Storm.json_of ()

(* Every exhibit in one table: its subcommand plus what `all` runs for it
   ([None] = covered by another row — fig6 rides with fig5). Both the
   CLI's command list and `all` derive from here, so a new exhibit shows
   up in both by construction. *)
let exhibits : (unit Cmd.t * (fast:float -> fast_points:int -> unit) option) list =
  [
    (table2_cmd, Some (fun ~fast ~fast_points:_ -> run_table2 (0.08 *. fast)));
    (table3_cmd, Some (fun ~fast:_ ~fast_points:_ -> run_table3 0.05));
    (fig3_cmd, Some (fun ~fast ~fast_points:_ -> run_fig3 (0.04 *. fast)));
    (fig4_cmd, Some (fun ~fast ~fast_points:_ -> run_fig4 (0.03 *. fast)));
    ( fig5_cmd,
      Some
        (fun ~fast ~fast_points ->
          run_fig56 ~fig5:true ~fig6:true (0.01 *. fast) fast_points) );
    (fig6_cmd, None);
    (offload_cmd, Some (fun ~fast ~fast_points:_ -> run_offload (0.25 *. fast)));
    (trace_cmd, Some (fun ~fast ~fast_points:_ -> run_trace (0.25 *. fast) None));
    (scale_cmd, Some (fun ~fast ~fast_points:_ -> run_scale (0.2 *. fast) None));
    (failover_cmd, Some (fun ~fast:_ ~fast_points:_ -> run_failover 1.0 None));
    (storm_cmd, Some (fun ~fast ~fast_points:_ -> run_storm (0.5 *. fast) None));
    (ablation_cmd, Some (fun ~fast ~fast_points:_ -> run_ablation (0.25 *. fast)));
    (chaos_cmd, Some (fun ~fast:_ ~fast_points:_ -> run_chaos ()));
  ]

let all_cmd =
  let run fast trace_json =
    with_trace_dump trace_json (fun () ->
        let f = if fast then 0.5 else 1.0 in
        let points = if fast then 3 else 4 in
        List.iter
          (fun (_, action) ->
            match action with
            | Some g -> g ~fast:f ~fast_points:points
            | None -> ())
          exhibits)
  in
  let fast = Arg.(value & flag & info [ "fast" ] ~doc:"Halve the default scales.") in
  Cmd.v (Cmd.info "all" ~doc:"Every table and figure.") Term.(const run $ fast $ trace_json_arg)

let main_cmd =
  let doc = "reproduce the evaluation of Slice (Interposed Request Routing, OSDI 2000)" in
  Cmd.group
    (Cmd.info "slice_sim" ~version:"1.0" ~doc)
    (List.map fst exhibits @ [ all_cmd ])

let () = exit (Cmd.eval main_cmd)
