(** Metadata-offload exhibit: directory-server request reduction from the
    µproxy's name/attr fast path on the SPECsfs op mix, across a TTL and
    cache-capacity sweep (first point is always "cache off"). *)

type point = {
  label : string;
  ttl : float;
  capacity : int;
  ops : int;  (** measured operations completed *)
  dir_ops : int;  (** directory-server requests during the measured loop *)
  delivered_ops_s : float;
  avg_ms : float;
  p50_ms : float;
  p95_ms : float;
  p99_ms : float;
  meta : Slice.Proxy.meta_cache_stats;
}

val fileset_shape : files:int -> Slice_workload.Livemix.shape
(** The per-process SPECsfs file set: [files] small files and one
    symlink per 20 files. *)

val replay :
  Slice_sim.Engine.t ->
  Slice_workload.Client.t array ->
  Slice_workload.Livemix.fileset array ->
  seed:int ->
  ops_per_proc:int ->
  on_op:(float -> unit) ->
  unit
(** The measured loop, in fiber context: two closed-loop workers per
    client each issue [ops_per_proc / 2] operations drawn from the SFS97
    mix with the 80/20 hot-set skew over that client's file set, and
    report each op's latency to [on_op]. Shared with the tracing exhibit
    so both replay the same workload. *)

val compute : ?scale:float -> ?sweep:bool -> unit -> point list
(** [scale] multiplies file-set size and op count (default 1.0; tests use
    a fraction). The first point is the cache-off baseline, the second the
    default-knob cache; [sweep] (default true) adds the TTL/capacity
    corners. *)

val report : ?scale:float -> unit -> Report.t
