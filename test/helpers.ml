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

(* Steady-state minor words of one NFS call round trip, client encode
   and RPC included, from a client to a server that [attach] installs on
   its host (8 disks): [prep] goes first, once, then 1024 calls warm the
   server's tables and caches, and 1024 more are measured. Two servers that answer with replies of
   one shape differ only in their handlers, so the difference of their
   round trips is what one handler call allocates. *)
let rtt_words ?prep attach call =
  let module Net = Slice_net.Net in
  let module Rpc = Slice_net.Rpc in
  let module Host = Slice_storage.Host in
  let module Codec = Slice_nfs.Codec in
  let eng = Engine.create () in
  let net = Net.create eng () in
  let server = Host.create net ~name:"srv" ~disks:8 () in
  let client = Host.create net ~name:"cli" () in
  attach server;
  let rpc = Rpc.create net client.Host.addr ~port:1000 in
  let send call =
    let xid = Rpc.fresh_xid rpc in
    ignore
      (Rpc.call rpc ~dst:server.Host.addr ~dport:2049 ~extra_size:(Codec.extra_size_of_call call)
         (Codec.encode_call ~xid call))
  in
  let once () = send call in
  let n = 1024 in
  let per_call = ref infinity in
  run_on eng (fun () ->
      Option.iter send prep;
      for _ = 1 to n do
        once ()
      done;
      let w0 = Gc.minor_words () in
      for _ = 1 to n do
        once ()
      done;
      per_call := (Gc.minor_words () -. w0) /. float_of_int n);
  !per_call

(* A server on [host] that answers every call with [reply], at the
   given per-request CPU cost: the baseline [rtt_words] subtracts. *)
let stub_server ~per_op ~per_byte reply host =
  Slice_storage.Nfs_endpoint.serve host ~port:2049
    ~cost:{ Slice_storage.Nfs_endpoint.per_op; per_byte }
    ~tenure:(Slice_storage.Tenure.create [ 0 ])
    ~handler:(fun _ _ -> reply)
    ()
