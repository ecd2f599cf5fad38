(** A physical machine in the ensemble: a network attachment point plus a
    CPU and optionally a disk array. Services (storage node, directory
    server, small-file server, coordinator, client stack) attach to a host
    and share its CPU — co-locating multiple server functions on one node,
    which the paper explicitly allows ("a single server node could combine
    the functions of multiple server classes"). *)

type t = {
  net : Slice_net.Net.t;
  eng : Slice_sim.Engine.t;
  addr : Slice_net.Packet.addr;
  cpu : Slice_sim.Resource.t;
  cpu_scale : float;  (** relative speed; costs divide by this *)
  disk : Slice_disk.Disk.t option;
}

val create :
  Slice_net.Net.t ->
  name:string ->
  ?cpu_scale:float ->
  ?disks:int ->
  unit ->
  t
(** [cpu_scale] defaults to 1.0 (a 450 MHz PC client/manager in the
    paper's testbed); storage nodes (733 MHz Xeon) use ~1.6. [disks]
    creates a disk array with that many arms (0 = diskless). *)

val cpu : t -> float -> unit
(** Fiber: consume [cost /. cpu_scale] seconds of this host's CPU. *)

val cpu_async : t -> float -> float
(** Book CPU without parking; returns completion time. *)

val disk_exn : t -> Slice_disk.Disk.t
val name : t -> string
