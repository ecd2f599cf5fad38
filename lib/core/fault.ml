module Engine = Slice_sim.Engine
module Coordinator = Slice_storage.Coordinator

type target = Server of Ensemble.klass * int | Coordinator

type action =
  | Net of Slice_net.Net.fault
  | Crash of target
  | Recover of target
  | Discard_soft_state of int

type schedule = (float * action) list

let coordinator ens =
  match Ensemble.coordinator ens with
  | Some c -> c
  | None -> invalid_arg "Fault: the ensemble has no coordinator"

let apply ens = function
  | Net f -> Slice_net.Net.fault (Ensemble.net ens) f
  | Crash (Server (k, i)) -> Ensemble.crash ens k i
  | Recover (Server (k, i)) -> Ensemble.recover ens k i
  | Crash Coordinator -> Coordinator.crash (coordinator ens)
  | Recover Coordinator -> Coordinator.recover (coordinator ens)
  | Discard_soft_state i -> (
      match List.nth_opt (Ensemble.client_proxies ens) i with
      | Some px -> Proxy.discard_soft_state px
      | None -> invalid_arg "Fault: no such client µproxy")

(* Consecutive actions at one time, as (time, actions) in order. *)
let instants schedule =
  List.fold_left
    (fun acc (at, a) ->
      match acc with
      | (t, acts) :: rest when Float.equal t at -> (t, a :: acts) :: rest
      | _ -> (at, [ a ]) :: acc)
    [] schedule
  |> List.rev_map (fun (t, acts) -> (t, List.rev acts))

let install ens schedule =
  ignore
    (List.fold_left
       (fun prev (at, _) ->
         if not (at >= prev) then invalid_arg "Fault.install: times negative or out of order";
         at)
       0.0 schedule);
  let eng = Ensemble.engine ens in
  List.iter
    (fun (at, acts) ->
      if at <= Engine.now eng then List.iter (apply ens) acts
      else
        Engine.schedule_at eng at (fun () ->
            Engine.spawn eng (fun () -> List.iter (apply ens) acts)))
    (instants schedule)
