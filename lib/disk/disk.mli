(** Storage-node disk subsystem model: an array of disk arms behind a
    single shared SCSI channel, as in the paper's Dell 4400 storage nodes
    (eight Seagate Cheetah ST318404LC drives on one channel; "achievable
    disk bandwidth is below 75 MB/s per node because the 4400 backplane
    has a single SCSI channel for all of its internal drive bays").

    Random accesses pay positioning time (seek + rotation + controller
    overhead) on an arm; sequential accesses stream at the media rate. All
    transfers additionally serialize through the channel at its effective
    read/write rates (55 / 60 MB/s, the per-node saturation bandwidths
    measured in the paper's Table 2 discussion). *)

type params = {
  avg_seek : float;  (** seconds, average seek (Cheetah 10K: ~5.2 ms) *)
  rotational_half : float;  (** half-rotation latency (~3.0 ms at 10K RPM) *)
  media_rate : float;  (** bytes/second media transfer (~33 MB/s) *)
  controller_overhead : float;
      (** fixed per-op cost; with seek+rotation it calibrates a random
          8 KB access to ≈9.6 ms, i.e. ≈104 IOPS per arm, matching the
          paper's arm-bound SPECsfs throughput *)
  channel_read_rate : float;  (** effective node read bandwidth (55 MB/s) *)
  channel_write_rate : float;  (** effective node write bandwidth (60 MB/s) *)
}

type t

val create : Slice_sim.Engine.t -> ?params:params -> arms:int -> name:string -> unit -> t

val read : t -> ?span:Slice_trace.Trace.span -> sequential:bool -> bytes:int -> unit -> unit
(** Fiber: performs a read, waiting for arm and channel.  A live [span]
    gets a completed ["disk"] child covering the device busy interval. *)

val write : t -> ?span:Slice_trace.Trace.span -> sequential:bool -> bytes:int -> unit -> unit

val read_async : t -> sequential:bool -> bytes:int -> float
(** Books the work and returns its absolute completion time without
    parking — used for prefetch issued beyond the demand request. *)

val write_async : t -> sequential:bool -> bytes:int -> float
(** Write-behind: books the transfer; the caller's commit path waits on
    the returned completion time. *)

val ops : t -> int
val bytes_transferred : t -> int
val arm_busy_time : t -> float

val backlog : t -> float
(** Seconds until the earliest arm frees up — an instantaneous load
    gauge over the array (0 when an arm is idle). *)


val channel_busy_time : t -> float
val arms : t -> int
