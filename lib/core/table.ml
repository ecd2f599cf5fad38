type t = {
  mutable map : Slice_net.Packet.addr array;
  mutable version : int;
  mutable epoch : int;
}

let create map =
  if Array.length map = 0 then invalid_arg "Table.create: empty";
  { map = Array.copy map; version = 1; epoch = 1 }

let nsites t = Array.length t.map

let lookup t i =
  if i < 0 || i >= Array.length t.map then invalid_arg "Table.lookup: bad site";
  t.map.(i)

let version t = t.version

(* The logical site count is fixed at creation by design, not accident:
   it is the rebalancing granularity.  Reconfiguration moves load by
   rebinding logical sites to different physical servers; growing the
   site count would change every routing hash (name_site/file_site are
   [mod nsites]) and thus the home of every existing entry.  Deployments
   therefore create more logical sites than servers and scale by
   remapping (Section 3.3.1: "multiple logical sites may map to the same
   physical server, leaving flexibility for reconfiguration"). *)
let update t map =
  if Array.length map <> Array.length t.map then
    invalid_arg "Table.update: logical site count is fixed";
  (* Idempotent commits are a no-op: re-publishing an unchanged mapping
     must not bump the version, or every µproxy bounce would trigger a
     spurious refresh storm after each control-plane pass. *)
  if map <> t.map then begin
    t.map <- Array.copy map;
    t.version <- t.version + 1
  end

let snapshot t = (Array.copy t.map, t.version)

(* Several logical sites can live on one node, hence the dedup. *)
let node_set map = Array.of_list (List.sort_uniq Int.compare (Array.to_list map))

let placement map ~nodes (fh : Slice_nfs.Fh.t) =
  let n = Array.length map in
  if n = 0 then [||]
  else if fh.Slice_nfs.Fh.mirrored then begin
    let r0, r1 = Slice_nfs.Routekey.mirror_sites ~nsites:n fh in
    if map.(r0) = map.(r1) then [| map.(r0) |] else [| map.(r0); map.(r1) |]
  end
  else nodes

let data_nodes map fh = Array.to_list (placement map ~nodes:(node_set map) fh)

let epoch t = t.epoch

(* Fencing: a takeover that rebinds a failed server's sites advances the
   epoch so (a) every server granted a lease under the old epoch is
   provably deposed and (b) µproxies treat the bump as a hard
   invalidation, not just a routing refresh.  The version bumps too —
   even when the mapping itself is unchanged (e.g. a coordinator
   takeover) — so stale snapshots notice on their next bounce. *)
let bump_epoch t =
  t.epoch <- t.epoch + 1;
  t.version <- t.version + 1
