type name_policy = Slice_nfs.Routekey.name_policy = Mkdir_switching | Name_hashing
type io_policy = Static_striping | Block_map

type t = {
  threshold : int;
  stripe_unit : int;
  name_policy : name_policy;
  mkdir_p : float;
  io_policy : io_policy;
  meta_cache_ttl : float;
  name_cache_capacity : int;
  pending_sweep_interval : float;
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
    meta_cache_ttl = 2.0;
    name_cache_capacity = 4096;
    pending_sweep_interval = 1.0;
    trace_enabled = false;
    trace_sample = 1.0;
  }

(* CLI override (slice_sim --trace-json): set once at process start,
   before any simulation is built, never mutated mid-run — so per-run
   determinism is unaffected. Consulted by Ensemble.create in addition to
   the per-exhibit [trace_enabled] knob. *)
let trace_force = ref false
