(* Shared scaffolding for the test suites. *)

module Engine = Slice_sim.Engine

let qtest ?(count = 200) ?print name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ?print ~name gen prop)

(* Run [f] as a fiber on a fresh engine, drive to completion, return its
   result. *)
let run_fiber f =
  let eng = Engine.create () in
  let result = ref None in
  Engine.spawn eng (fun () -> result := Some (f eng));
  Engine.run eng;
  match !result with
  | Some v -> v
  | None -> Alcotest.fail "fiber did not complete"

(* Same, but with an engine the caller already built. *)
let run_on eng f =
  let result = ref None in
  Engine.spawn eng (fun () -> result := Some (f ()));
  Engine.run eng;
  match !result with
  | Some v -> v
  | None -> Alcotest.fail "fiber did not complete"

let check_float = Alcotest.(check (float 1e-9))
let check_float_eps eps = Alcotest.(check (float eps))
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let ok_or_fail label = function
  | Ok v -> v
  | Error st -> Alcotest.failf "%s: %s" label (Slice_nfs.Nfs.status_name st)

let expect_err label expected = function
  | Ok _ -> Alcotest.failf "%s: expected %s, got Ok" label (Slice_nfs.Nfs.status_name expected)
  | Error st ->
      Alcotest.check
        (Alcotest.testable
           (fun fmt s -> Format.pp_print_string fmt (Slice_nfs.Nfs.status_name s))
           ( = ))
        label expected st

(* The workload and fault schedule of one row of the chaos exhibit. *)
let chaos_row label =
  match List.find_opt (fun (l, _, _) -> l = label) Slice_experiments.Chaos.exhibit with
  | Some (_, w, schedule) -> (w, schedule)
  | None -> Alcotest.failf "no chaos row %S" label
