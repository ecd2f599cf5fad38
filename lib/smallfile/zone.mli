(** The zone backend of a dataless small-file server (Section 4.4).

    A small-file server keeps no data of its own: its buffer cache's
    objects (the map descriptor array and the data zone) live as zone
    files striped over the network storage array. The server is the
    authority for its files, so this backend is a plain storage client:
    no µproxy stands in between and no directory server hears of the
    zones. *)

val backend :
  Slice_sim.Engine.t ->
  Slice_net.Rpc.t ->
  nsites:int ->
  resolve:(int -> Slice_net.Packet.addr) ->
  coordinator:(unit -> Slice_net.Packet.addr option) ->
  ?cap_secret:string ->
  sf_idx:int ->
  stripe_unit:int ->
  unit ->
  Slice_disk.Bcache.backend
(** [backend eng rpc ~nsites ~resolve ~coordinator ~sf_idx ~stripe_unit ()]
    sends the cache's block I/O for small-file server [sf_idx] from [rpc]
    to the storage array's [nsites] logical sites. A block run is split
    on [stripe_unit] boundaries, so each request lands whole on one
    storage node; the requests of one run go out last chunk first, each
    in its own fiber. A chunk is a {!Slice_net.Rpc.call_role} to
    [resolve site], at the wire offset naming its site: a bounce sends
    it again to the site's holder. [sync] commits both zone objects by
    {!Slice_storage.Ctrl.call} to the coordinator [coordinator ()]
    names. With [cap_secret], every zone handle carries a capability
    sealed with it. *)
