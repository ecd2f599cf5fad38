(* Host time for the benchmark. Host time is what the benchmark measures;
   it never feeds the simulation. slicelint's D1 rule does not flag this
   clock, so no pragma is needed (an unused one would fail @lint). *)

(* CLOCK_MONOTONIC in nanoseconds, through bechamel's allocation-free stub. *)
let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* The host's speed drifts: on a shared VM other tenants slowed the same
   run by up to 70 % from one minute to the next, and a CPU-bound probe
   slowed by the same factor at the same moments. So every host-time
   figure is divided by the probe's time measured right beside it, and
   multiplied by the probe's time on the reference VM (a 2-core x86-64
   VM, quiet): figures read as host time on that VM. The probe is a fixed
   integer-mixing loop that allocates nothing and touches no memory, so
   it leaves the simulation's heap and caches as they were. *)
let nominal_probe_ns = 37_500.0

let probe_ns () =
  let t = now_ns () in
  let z = ref 0x1E3779B97F4A7C15 and acc = ref 0 in
  for _ = 1 to 20_000 do
    z := !z + 0x1E3779B97F4A7C15;
    let v = (!z lxor (!z lsr 30)) * 0x3F58476D1CE4E5B9 in
    let v = (v lxor (v lsr 27)) * 0x14D049BB133111EB in
    acc := !acc lxor v lxor (v lsr 31)
  done;
  ignore (Sys.opaque_identity !acc);
  now_ns () - t

(* Host time [ns] measured next to a probe that took [probe] ns, as
   reference-VM nanoseconds. *)
let scale ns ~probe = float_of_int ns *. nominal_probe_ns /. float_of_int (max 1 probe)
