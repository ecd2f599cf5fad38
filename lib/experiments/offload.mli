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

type fileset
(** Per-process SPECsfs file set (directories, files, symlinks). *)

val build_fileset :
  Slice_workload.Client.t ->
  root:Slice_nfs.Fh.t ->
  proc:int ->
  files:int ->
  fileset
(** Build process [proc]'s file set under [root]; all traffic this
    generates is setup, not measured-mix. *)

val one_op :
  Slice_workload.Client.t ->
  Slice_util.Prng.t ->
  fileset ->
  fresh:int ref ->
  unit
(** Issue one operation drawn from the SFS97 mix with the 80/20 hot-set
    skew ([fresh] numbers throwaway create/remove names). Shared with the
    tracing exhibit so both replay the same workload. *)

val compute : ?scale:float -> ?sweep:bool -> unit -> point list
(** [scale] multiplies file-set size and op count (default 1.0; tests use
    a fraction). The first point is the cache-off baseline, the second the
    default-knob cache; [sweep] (default true) adds the TTL/capacity
    corners. *)

val dir_reduction : off:point -> on:point -> float
(** Percent reduction in directory-server requests of [on] vs [off]. *)

val report_of : point list -> Report.t
(** Render precomputed points. *)

val report : ?scale:float -> unit -> Report.t
