(** µproxy policy and cost parameters.

    The CPU costs are calibrated from the paper's Table 3: at 6250
    packets/second a client-based µproxy spent 0.7 % of a 500 MHz CPU
    intercepting packets (1.12 µs each), 4.1 % decoding (6.56 µs — mostly
    skipping variable-length RPC/NFS header fields, ≈20 XDR items at
    ~0.33 µs), 0.5 % redirecting/rewriting (0.8 µs) and 0.8 % managing
    soft state (1.28 µs). *)

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
  intercept_cost : float;  (** CPU seconds per intercepted packet *)
  decode_cost_per_item : float;  (** CPU seconds per XDR item examined *)
  rewrite_cost : float;  (** CPU per field-rewrite + checksum adjust *)
  softstate_cost : float;  (** CPU per pending-record / cache update *)
  mirror_dup_cost_per_byte : float;
      (** client-side cost to emit the duplicate packet of a mirrored
          write (buffer requeue + checksum share; ~1/5 of the full write
          path per byte, calibrated to Table 2's 38.9 -> 32.2 MB/s) *)
  attr_cache_capacity : int;  (** attribute cache entries *)
  attr_writeback_interval : float;
      (** period of the background push of dirty cached attributes to the
          directory servers (0 = rely on commit/evict-driven writeback) *)
  meta_cache_enabled : bool;
      (** master switch for the µproxy metadata fast path: answer
          [lookup]/[getattr]/[access] from proxy-cached state instead of
          forwarding to a directory server *)
  meta_cache_ttl : float;
      (** lease duration (seconds of simulated time) granted to each
          cached name/attr entry; bounds cross-client staleness. 0
          disables the fast path entirely (equivalent to
          [meta_cache_enabled = false]) *)
  name_cache_capacity : int;
      (** entries in the [(dir file-id, name)] -> handle cache, counting
          negative entries *)
  map_cache_capacity : int;
      (** entries in the per-file block-map placement cache *)
  pending_capacity : int;
      (** pending records (and xid-index headroom) preallocated per
          µproxy; the pool doubles on overflow, so this is a steady-state
          sizing hint, not a limit *)
  pending_sweep_interval : float;
      (** period of the sweep that expires abandoned pending records —
          soft state for requests whose reply will never arrive because
          the client gave up retransmitting (0 disables the sweep). The
          sweep self-arms only while pending records exist, so idle
          µproxies schedule nothing. *)
  pending_expiry : float;
      (** age at which an unanswered pending record is expired by the
          sweep; must exceed the client's retransmit interval (a live
          client refreshes its record with every retransmission) *)
  rpc_port : int;  (** port of the µproxy's own endpoint on the client *)
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
