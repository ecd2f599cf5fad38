(** Traffic-storm generators: three co-resident tenant workloads — an
    interactive Zipf web-read tenant (with an optional mid-run flash
    crowd), an AI-ingest small-file flood, and a namespace-sweeping
    backup scan. All draws come from caller-owned {!Slice_util.Prng}
    streams, so a storm replays byte-identically under one seed. Every
    generator runs in fiber context and accounts ops whose {e start}
    falls in [t_measure, t_end) into a shared-shape {!tally}. *)

type entry = { e_fh : Slice_nfs.Fh.t; e_size : int }

type tree = {
  tr_dirs : Slice_nfs.Fh.t array;
  tr_files : entry array;
  tr_dir_of : int array;  (** file index -> index into [tr_dirs] *)
}

type tally = {
  mutable ops : int;
  mutable bytes : int;
  lat : Slice_util.Stats.t;
  mutable errors : int;
}

val tally : unit -> tally

val build_tree :
  Client.t ->
  root:Slice_nfs.Fh.t ->
  name:string ->
  dirs:int ->
  files:int ->
  size_of:(int -> int) ->
  tree
(** Create and populate one tenant's subtree (fiber context, setup
    phase). @raise Failure on any NFS error during setup. *)

type web_config = {
  web_rate : float;  (** offered 32 KB reads/second (open-loop Poisson) *)
  web_outstanding : int;  (** arrivals shed beyond this many in flight *)
  web_hotspot_at : float;
      (** absolute sim time the flash crowd starts; [infinity] = never *)
  web_hotspot_frac : float;
      (** post-onset fraction of requests collapsing onto directory 0's
          subtree *)
}

val web_run :
  Slice_sim.Engine.t ->
  Client.t ->
  prng:Slice_util.Prng.t ->
  zipf:Zipf.t ->
  tree:tree ->
  cfg:web_config ->
  t0:float ->
  t_measure:float ->
  t_end:float ->
  tally ->
  unit
(** Interactive tenant: open-loop Zipf-picked single-page reads at
    mirrored-range offsets (>= the small-file threshold), so they hit
    the storage class and exercise p2c replica choice. *)

type flood_config = { flood_workers : int }

val flood_run :
  Slice_sim.Engine.t ->
  Client.t ->
  prng:Slice_util.Prng.t ->
  tree:tree ->
  cfg:flood_config ->
  t_measure:float ->
  t_end:float ->
  tally ->
  unit
(** Closed-loop whole-file reads by [flood_workers] parallel workers
    over a 4–64 KB file set (the small-file class). Returns when
    [t_end] passes. *)

val scan_run :
  Slice_sim.Engine.t ->
  Client.t ->
  workers:int ->
  trees:tree array ->
  t_measure:float ->
  t_end:float ->
  tally ->
  unit
(** Backup tenant: [workers] parallel closed-loop sweepers partition
    every tree deterministically (index mod [workers]) — readdir each
    directory, then getattr + sequentially read each file — restarting
    until [t_end]. *)
