(** FCFS service resources for the simulation: CPUs, SCSI channels, NIC
    serializers, disk arms. A resource has [capacity] parallel servers; a
    request occupies one server for its service time, queueing in arrival
    order when all servers are busy. Utilization accounting supports the
    saturation analyses in the evaluation. *)

type t

val create : Engine.t -> ?capacity:int -> name:string -> unit -> t

val use : t -> float -> unit
(** [use r service] must be called from a fiber: waits for a free server
    (FCFS), then holds it for [service] seconds. [service <= 0] returns
    immediately without queueing. *)

val reserve : t -> float -> float
(** [reserve r service] is the non-fiber variant: books the earliest slot
    and returns the absolute completion time without parking the caller.
    Used by fire-and-forget paths (e.g. NIC egress serialization). *)

val busy_time : t -> float
(** Total busy server-seconds consumed so far. *)

val utilization : t -> elapsed:float -> float
(** [busy_time / (capacity * elapsed)], in [0, 1] (can exceed 1 only by
    rounding). *)

val queue_delay_total : t -> float
(** Accumulated time requests spent waiting for a server. *)

val backlog : t -> float
(** Seconds a request arriving now would wait for a free server (0.0 when
    one is idle). The instantaneous load signal used by
    power-of-two-choices replica routing. *)

val served : t -> int
