(* Replays of the calls and replies the traced run captured, through
   public entry points, one layer at a time: the NFS codec, a freshly
   installed µproxy on a bare network (driven like the direct-drive
   packet loop in bench/main.ml, but with the workload's real mix), and
   the WFQ scheduler. Each reports host nanoseconds and minor-heap words
   per item. *)

module Engine = Slice_sim.Engine
module Net = Slice_net.Net
module Packet = Slice_net.Packet
module Codec = Slice_nfs.Codec
module Nfs = Slice_nfs.Nfs
module Host = Slice_storage.Host
module Proxy = Slice.Proxy
module Table = Slice.Table
module Ensemble = Slice.Ensemble
module Params = Slice.Params
module Wfq = Slice_qos.Wfq
module Tenant = Slice_qos.Tenant

type cost = { ns : float; words : float }

(* Host ns and minor words per item of [rounds] passes of [f] over
   [items] (after one untimed warm-up pass). *)
let measure ~rounds items f =
  let n = Array.length items in
  if n = 0 then { ns = 0.0; words = 0.0 }
  else begin
    Array.iter f items;
    let w0 = Gc.minor_words () in
    let t0 = Clock.now_ns () in
    for _ = 1 to rounds do
      Array.iter f items
    done;
    let dt = Clock.now_ns () - t0 in
    let dw = Gc.minor_words () -. w0 in
    let total = float_of_int (rounds * n) in
    { ns = float_of_int dt /. total; words = dw /. total }
  end

let decodable b = match Codec.decode_call b with _ -> true | exception _ -> false

let calls_of (c : Probe.capture) =
  Array.of_list (List.filter decodable (List.rev_map snd c.Probe.kept_calls))

let replies_of (c : Probe.capture) =
  List.rev c.Probe.kept_replies
  |> List.filter_map (fun (_, b) -> match Codec.decode_reply b with r -> Some r | exception _ -> None)
  |> Array.of_list

let decode_call ~rounds c = measure ~rounds (calls_of c) (fun b -> ignore (Sys.opaque_identity (Codec.decode_call b)))

let encode_reply ~rounds c =
  measure ~rounds (replies_of c) (fun (xid, r) -> ignore (Sys.opaque_identity (Codec.encode_reply ~xid r)))

(* Client calls paired with the server replies answering them, in
   capture order. Commits are left out: the µproxy orchestrates them with
   RPCs of its own, which time out on the bare replay network. *)
let pairs (c : Probe.capture) (role : Probe.role array) =
  let is_client a = a >= 0 && a < Array.length role && role.(a) = Probe.Client_host in
  let replies = Hashtbl.create 4096 in
  List.iter
    (fun (dst, b) ->
      if is_client dst then
        match Codec.decode_reply b with (xid, r) -> Hashtbl.replace replies xid r | exception _ -> ())
    c.Probe.kept_replies;
  List.rev c.Probe.kept_calls
  |> List.filter_map (fun (src, b) ->
         if not (is_client src) then None
         else
           match Codec.decode_call b with
           | _, Nfs.Commit _ -> None
           | xid, call -> (
               match Hashtbl.find_opt replies xid with Some r -> Some (call, r) | None -> None)
           | exception _ -> None)
  |> Array.of_list

let nfs_port = Probe.nfs_port

(* Host ns and words per packet (calls intercepted plus replies
   processed) through a µproxy installed on a bare network whose routing
   tables have the ensemble's site counts. *)
let proxy ens (c : Probe.capture) role =
  let pairs = pairs c role in
  let n = Array.length pairs in
  let batch = 128 in
  if n < 2 * batch then { ns = 0.0; words = 0.0 }
  else begin
    let eng = Engine.create () in
    let net = Net.create eng () in
    let hosts name k = Array.init k (fun i -> Host.create net ~name:(Printf.sprintf "%s%d" name i) ()) in
    let addrs hs = Array.map (fun (h : Host.t) -> h.Host.addr) hs in
    let table = function None -> None | Some t -> Some (Table.create (addrs (hosts "s" (Table.nsites t)))) in
    let chost = Host.create net ~name:"client" () in
    let dirs = hosts "dir" (Table.nsites (Ensemble.dir_table ens)) in
    let vaddr = Net.add_node net ~name:"virtual" in
    let params = { (Ensemble.config ens).Ensemble.proxy_params with Params.pending_sweep_interval = 0.0 } in
    let px =
      Proxy.install chost ~params
        {
          Proxy.virtual_addr = vaddr;
          dir_table = Table.create (addrs dirs);
          smallfile_table = table (Ensemble.smallfile_table ens);
          storage = table (Ensemble.storage_table ens);
          coordinator = (fun () -> None);
        }
    in
    let xid i = 0x200000 + i in
    let calls =
      Array.mapi
        (fun i (call, _) ->
          Packet.make ~src:chost.Host.addr ~dst:vaddr ~sport:1000 ~dport:nfs_port
            (Codec.encode_call ~xid:(xid i) call))
        pairs
    and replies =
      Array.mapi
        (fun i (_, r) ->
          Packet.make ~src:dirs.(0).Host.addr ~dst:chost.Host.addr ~sport:nfs_port ~dport:1000
            (Codec.encode_reply ~xid:(xid i) r))
        pairs
    in
    let run_batch b =
      let send pkts =
        Engine.spawn eng (fun () ->
            for i = b * batch to ((b + 1) * batch) - 1 do
              Net.send net pkts.(i)
            done);
        Engine.run eng
      in
      send calls;
      send replies
    in
    run_batch 0;
    let p0 = Proxy.packets_intercepted px + Proxy.replies_processed px in
    let w0 = Gc.minor_words () in
    let t0 = Clock.now_ns () in
    for b = 1 to (n / batch) - 1 do
      run_batch b
    done;
    let dt = Clock.now_ns () - t0 in
    let dw = Gc.minor_words () -. w0 in
    let pkts = float_of_int (max 1 (Proxy.packets_intercepted px + Proxy.replies_processed px - p0)) in
    { ns = float_of_int dt /. pkts; words = dw /. pkts }
  end

(* Host ns per job submitted to, dispatched by and completed through a
   WFQ scheduler, one job per captured call, charged to the caller's
   tenant (the ensemble's roster, or a single tenant without QoS). *)
let wfq ~rounds ens (c : Probe.capture) =
  let specs =
    match (Ensemble.config ens).Ensemble.qos with
    | Some q -> q.Ensemble.tenants
    | None -> [| Tenant.spec ~name:"all" ~weight:1.0 () |]
  in
  let live = Ensemble.qos_tenants ens in
  let tenant_of src = match live with Some t -> Tenant.of_addr t src | None -> 0 in
  let jobs =
    Array.of_list
      (List.rev_map (fun (src, b) -> (tenant_of src, 1e-6 *. float_of_int (Bytes.length b))) c.Probe.kept_calls)
  in
  let eng = Engine.create () in
  let q = Wfq.create eng ~tenants:(Tenant.create specs) ~depth:4 () in
  let pass () =
    Array.iter (fun (tenant, cost) -> Wfq.submit q ~tenant ~cost (fun k -> k ())) jobs;
    Engine.run eng
  in
  let r = measure ~rounds [| () |] pass in
  let n = float_of_int (max 1 (Array.length jobs)) in
  { ns = r.ns /. n; words = r.words /. n }
