(** The zone backend of a dataless small-file server (Section 4.4).

    A small-file server keeps no data of its own: its buffer cache's
    objects (the map descriptor array and the data zone) live as zone
    files striped over the network storage array. This backend reaches
    them with NFS calls through the manager host's own storage-only
    µproxy, which stripes each request and, on commit, orchestrates
    through the coordinator. *)

val backend :
  Slice_sim.Engine.t ->
  Slice_net.Rpc.t ->
  vaddr:Slice_net.Packet.addr ->
  ?cap_secret:string ->
  sf_idx:int ->
  stripe_unit:int ->
  unit ->
  Slice_disk.Bcache.backend
(** [backend eng rpc ~vaddr ~sf_idx ~stripe_unit ()] sends the cache's
    block I/O for small-file server [sf_idx] from [rpc] to the virtual
    NFS server [vaddr]. A block run is split on [stripe_unit]
    boundaries, so each request lands whole on one storage node; the
    requests of one run go out last chunk first, each in its own fiber.
    [sync] commits both zone objects. With [cap_secret], every zone
    handle carries a capability sealed with it. *)
