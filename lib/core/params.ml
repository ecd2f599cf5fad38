type name_policy = Slice_nfs.Routekey.name_policy = Mkdir_switching | Name_hashing
type io_policy = Static_striping | Block_map

type t = {
  threshold : int;
  stripe_unit : int;
  name_policy : name_policy;
  mkdir_p : float;
  io_policy : io_policy;
  intercept_cost : float;
  decode_cost_per_item : float;
  rewrite_cost : float;
  softstate_cost : float;
  mirror_dup_cost_per_byte : float;
  attr_cache_capacity : int;
  attr_writeback_interval : float;
  meta_cache_enabled : bool;
  meta_cache_ttl : float;
  name_cache_capacity : int;
  map_cache_capacity : int;
  pending_capacity : int;
  pending_sweep_interval : float;
  pending_expiry : float;
  rpc_port : int;
  trace_enabled : bool;
  trace_sample : float;
}

let default =
  {
    threshold = 65536;
    stripe_unit = 32768;
    name_policy = Mkdir_switching;
    mkdir_p = 0.25;
    io_policy = Static_striping;
    intercept_cost = 1.12e-6;
    decode_cost_per_item = 0.33e-6;
    rewrite_cost = 0.8e-6;
    softstate_cost = 1.28e-6;
    mirror_dup_cost_per_byte = 5.2e-9;
    attr_cache_capacity = 4096;
    attr_writeback_interval = 0.0;
    meta_cache_enabled = true;
    meta_cache_ttl = 2.0;
    name_cache_capacity = 4096;
    map_cache_capacity = 1024;
    pending_capacity = 1024;
    pending_sweep_interval = 1.0;
    pending_expiry = 10.0;
    rpc_port = 3001;
    trace_enabled = false;
    trace_sample = 1.0;
  }

(* CLI override (slice_sim --trace-json): set once at process start,
   before any simulation is built, never mutated mid-run — so per-run
   determinism is unaffected. Consulted by Ensemble.create in addition to
   the per-exhibit [trace_enabled] knob. *)
let trace_force = ref false
