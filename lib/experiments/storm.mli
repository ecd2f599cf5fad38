(** Multi-tenant traffic-storm exhibit: three co-resident tenants (an
    interactive Zipf web-read tenant with a mid-run flash crowd, an
    AI-ingest small-file flood, a namespace-sweeping backup scan) run
    twice from identical seeds — FIFO servers vs. the full QoS stack
    (per-server WFQ, token-bucket admission on the scanner,
    power-of-two-choices mirrored reads). Headline: QoS holds the
    interactive tenant's p99 under [st_p99_bound_ms] (55 ms) while
    keeping aggregate throughput within a few percent of FIFO. *)

type tenant_result = {
  tn_name : string;
  tn_ops : int;  (** ops started inside the measure window *)
  tn_ops_s : float;
  tn_bytes : int;
  tn_p50_ms : float;
  tn_p95_ms : float;
  tn_p99_ms : float;
  tn_errors : int;
}

type side = {
  sd_label : string;  (** ["qos_off"] or ["qos_on"] *)
  sd_tenants : tenant_result array;  (** web, flood, scan *)
  sd_total_ops : int;
  sd_admission_deferrals : int;
  sd_p2c_probes : int;
  sd_p2c_diverted : int;
  sd_metrics : Slice_util.Json.t;
}

type t = {
  st_off : side;
  st_on : side;
  st_throughput_ratio : float;  (** on / off aggregate measured ops *)
  st_p99_bound_ms : float;
  st_duration : float;  (** measure-window length, seconds *)
}

val interactive_p99_ms : side -> float
(** The web tenant's p99, milliseconds. *)

val compute : ?scale:float -> ?seed:int -> unit -> t
(** Run the storm twice (QoS off, then on) from the same seed.
    [scale] shrinks/grows offered load and data-set size together;
    defaults to 1.0. Deterministic: same arguments, same result. *)

val report_of : t -> Report.t
val json_of : t -> Slice_util.Json.t
(** Deterministic artifact: keys sorted at every level, tenants in
    roster order — byte-identical across same-seed reruns. *)
