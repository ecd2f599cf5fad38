(* One map from owned site to its phase: a drain can only mark a site
   that is bound here, so "draining but not owned" is unrepresentable.
   The gates run on every request, so lookups use [Hashtbl.find], which
   allocates no option. *)
type phase = Serving | Draining

type t = {
  sites : (int, phase) Hashtbl.t;
  site_ops : (int, int ref) Hashtbl.t;
  mutable drain_bounces : int;
  mutable fence_bounces : int;
  mutable lease_until : float;
  mutable lease_epoch : int;
  mutable up : bool;
  mutable crashes : int;
}

let create owned =
  let sites = Hashtbl.create 4 in
  List.iter (fun s -> Hashtbl.replace sites s Serving) owned;
  {
    sites;
    site_ops = Hashtbl.create 4;
    drain_bounces = 0;
    fence_bounces = 0;
    lease_until = infinity;
    lease_epoch = 0;
    up = true;
    crashes = 0;
  }

let owns t site = Hashtbl.mem t.sites site
let in_drain t site =
  match Hashtbl.find t.sites site with Draining -> true | Serving -> false | exception Not_found -> false

let owned_sites t = Hashtbl.fold (fun s _ acc -> s :: acc) t.sites [] |> List.sort compare

let own t site = if not (owns t site) then Hashtbl.replace t.sites site Serving
let disown t site = Hashtbl.remove t.sites site
let begin_drain t site = if owns t site then Hashtbl.replace t.sites site Draining
let end_drain t site = if owns t site then Hashtbl.replace t.sites site Serving

(* A crash aborts any migration: the recovered donor serves its sites. *)
let crash t =
  t.up <- false;
  t.crashes <- t.crashes + 1;
  Hashtbl.filter_map_inplace (fun _ _ -> Some Serving) t.sites

let recover t = t.up <- true
let is_up t = t.up
let crashes t = t.crashes

let note t site =
  match Hashtbl.find t.site_ops site with
  | r -> incr r
  | exception Not_found -> Hashtbl.replace t.site_ops site (ref 1)

let site_load t site = match Hashtbl.find t.site_ops site with r -> !r | exception Not_found -> 0
let reset_load t site = Hashtbl.remove t.site_ops site
let load t = Hashtbl.fold (fun s _ acc -> acc + site_load t s) t.sites 0

let admit_read t site =
  if owns t site then begin
    note t site;
    true
  end
  else false

let admit_write t site =
  match Hashtbl.find t.sites site with
  | Serving ->
      note t site;
      true
  | Draining ->
      t.drain_bounces <- t.drain_bounces + 1;
      false
  | exception Not_found -> false

let drain_bounces t = t.drain_bounces
let note_fence t = t.fence_bounces <- t.fence_bounces + 1
let fence_bounces t = t.fence_bounces

let set_lease t ~epoch ~until =
  t.lease_epoch <- epoch;
  t.lease_until <- until

let grant t ~epoch ~until =
  if t.up then set_lease t ~epoch ~until;
  t.up

let lease_epoch t = t.lease_epoch
let wedged t ~now = now > t.lease_until
