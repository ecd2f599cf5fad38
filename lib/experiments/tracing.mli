(** Request-tracing exhibit: replay the SPECsfs-style mix with span
    recording on and break per-op-class latency down by hop (proxy /
    network / server / wal / disk / rpc, plus a "total" row per class).
    Deterministic: two same-seed runs produce byte-identical JSON. *)

type t = {
  rows : (string * string * Slice_util.Stats.t) list;
      (** (op, hop, self-time distribution), sorted by op then hop *)
  spans : int;
  dropped : int;
  ops : int;  (** measured-mix operations completed *)
  metrics : Slice_util.Json.t;  (** unified-registry dump at end of run *)
  trace : Slice_util.Json.t;  (** full span dump *)
}

val compute : ?scale:float -> ?seed:int -> unit -> t
val report_of : t -> Report.t
val json_of : t -> Slice_util.Json.t
(** The [trace-report.json] artifact: hop rows, registry dump and the
    full span dump, every object's fields in sorted order. *)
