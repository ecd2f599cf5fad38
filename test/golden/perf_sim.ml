(* Checks the simulated results of one benchmark workload against the
   committed golden.

     perfbench/main.exe --workload W --seed 1 --trace 0 --tiny | perf_sim.exe perf_sim.json W

   Reads the result JSON (the last line of standard input) and compares
   its "attempted" and "failed" counts and every "sim_*" metric with the
   golden's entry for W, exactly: these repeat per seed, so any change in
   them is a change in what the benchmark simulates. Host figures (wall
   time, words, heap, set-up) are not compared. Exits 1, printing each
   differing field and the measured entry, which is what the golden
   should hold if the change is intended. *)

module Json = Slice_util.Json

let last_line ic =
  let rec go last = match In_channel.input_line ic with Some l -> go (Some l) | None -> last in
  match go None with Some l -> l | None -> failwith "no result line on standard input"

(* The compared fields of a result, in the result's order. *)
let fields result =
  let count k = match Json.member k result with Some v -> [ (k, v) ] | None -> failwith ("no " ^ k) in
  let sim =
    match Json.member "metrics" result with
    | Some (Json.Obj ms) ->
        List.filter_map
          (fun (name, m) ->
            if String.starts_with ~prefix:"sim_" name then Option.map (fun v -> (name, v)) (Json.member "value" m)
            else None)
          ms
    | _ -> failwith "no metrics"
  in
  count "attempted" @ count "failed" @ sim

let () =
  match Sys.argv with
  | [| _; golden; workload |] ->
      let measured = fields (Json.of_string (last_line stdin)) in
      let expected =
        match Json.member workload (Json.of_string (In_channel.with_open_text golden In_channel.input_all)) with
        | Some (Json.Obj kv) -> kv
        | _ -> []
      in
      let differs =
        List.filter
          (fun (k, v) -> List.assoc_opt k expected <> Some v)
          measured
        @ List.filter (fun (k, _) -> not (List.mem_assoc k measured)) expected
      in
      if differs = [] then
        Printf.printf "perf-sim %s: attempted, failed and %d sim_* values match %s\n" workload
          (List.length measured - 2) golden
      else begin
        List.iter
          (fun (k, _) ->
            let show = function Some v -> Json.to_string v | None -> "(absent)" in
            Printf.printf "perf-sim %s: %s is %s, golden %s\n" workload k
              (show (List.assoc_opt k measured))
              (show (List.assoc_opt k expected)))
          differs;
        Printf.printf "measured %S: %s\n" workload (Json.to_string (Json.Obj measured));
        exit 1
      end
  | _ ->
      prerr_endline "usage: perf_sim.exe GOLDEN.json WORKLOAD < result";
      exit 2
