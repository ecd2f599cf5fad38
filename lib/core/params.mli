(** µproxy parameters: the routing policies and the knobs some exhibit,
    example or test varies. The per-packet CPU costs (calibrated from the
    paper's Table 3), the cache and pending-pool sizes and a pending
    record's expiry age, which nobody varies, are constants in {!Proxy}. *)

type name_policy = Slice_nfs.Routekey.name_policy = Mkdir_switching | Name_hashing
(** {!Slice_nfs.Routekey.name_policy}, re-exported. *)

type io_policy = Static_striping | Block_map

type t = {
  threshold : int;
      (** small-file threshold offset in bytes; I/O below it routes to a
          small-file server (64 KB in the paper; 0 disables the
          small-file class) *)
  stripe_unit : int;  (** bulk-I/O striping granularity (32 KB) *)
  name_policy : name_policy;
  mkdir_p : float;
      (** mkdir-switching redirection probability p: a new directory is
          placed on a different site from its parent with probability p *)
  io_policy : io_policy;
  meta_cache_ttl : float;
      (** lease duration (seconds of simulated time) granted to each
          cached name/attr entry of the µproxy metadata fast path, which
          answers [lookup]/[getattr]/[access] from proxy-cached state
          instead of forwarding to a directory server; bounds
          cross-client staleness. 0 disables the fast path *)
  name_cache_capacity : int;
      (** entries in the [(dir file-id, name)] -> handle cache, counting
          negative entries *)
  pending_sweep_interval : float;
      (** period of the sweep that expires abandoned pending records —
          soft state for requests whose reply will never arrive because
          the client gave up retransmitting (0 disables the sweep). The
          sweep self-arms only while pending records exist, so idle
          µproxies schedule nothing. *)
  trace_enabled : bool;
      (** record per-request span trees (default false: the hot path
          stays allocation-free — every span operation is a no-op) *)
  trace_sample : float;
      (** fraction of request roots recorded when tracing is on, drawn
          from a deterministic per-tracer stream (default 1.0) *)
}

val default : t

val trace_force : bool ref
(** When true, every {!Ensemble.create} builds a tracer regardless of
    [trace_enabled]. Set once by the CLI ([--trace-json]) before any
    simulation exists; never toggle mid-run. *)
