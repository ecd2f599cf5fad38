(** The live-load mix (paper §5): an 80/20 hot set over a
    small-file-heavy file set, kept running while the system changes
    underneath it. The scale and failover exhibits drive it through
    numbered measurement windows ({!run}); the offload and trace
    exhibits build the same file set and replay the SFS97 mix over it;
    {!Specsfs} shares the hot pick.

    Everything here is deterministic: the same clients, shape, mix and
    seed issue the same requests in the same order. *)

type entry = {
  e_dir : Slice_nfs.Fh.t;
  e_name : string;
  e_fh : Slice_nfs.Fh.t;
}

type fileset = {
  dirs : Slice_nfs.Fh.t array;  (** the top directory first *)
  small : entry array;  (** {!small_bytes} each; the hot set is the front fifth *)
  big : entry array;  (** [big_chunks] stripe units each, in the top directory *)
  big_chunks : int;
  links : entry array;  (** symlinks to the first small file *)
}

type shape = {
  prefix : string;  (** top directory is [prefix ^ "%02d" proc], under the root *)
  nsmall : int;
  nbig : int;
  chunks : int;  (** stripe units per big file *)
  nlinks : int;
}

val small_bytes : int
(** 4 KB: small files and small-file I/O sit below the threshold. Big
    files and their I/O use 32 KB chunks, one stripe unit. *)

val build_all : Slice_sim.Engine.t -> Client.t array -> shape -> fileset array
(** One file set per client, built concurrently, client [p] as process
    [p]: directories, then small files (created, written, committed),
    then big files, then symlinks. Fiber context. *)

val pick_hot : Slice_util.Prng.t -> 'a array -> 'a
(** The 80/20 hot pick: 80% of draws from the first fifth of a
    non-empty array, the rest uniform over all of it. *)

type op =
  | O_lookup
  | O_getattr
  | O_access
  | O_readdir
  | O_sread  (** whole small file *)
  | O_swrite  (** whole small file *)
  | O_bread  (** one big-file chunk at index >= 2 *)
  | O_bwrite  (** one big-file chunk at index >= 2 *)
  | O_bcommit

type mix = (float * op) array
(** Weighted rows, drawn with {!Slice_util.Prng.weighted}. *)

val classes : string array
(** Request class names by index: [name], [smallfile], [storage].
    Big-file chunks at index >= 2 sit above the small-file threshold, so
    their I/O is storage-class by construction. *)

val one_op : Client.t -> Slice_util.Prng.t -> fileset -> mix -> int * bool
(** Draw one op from [mix] and issue it; returns its request class
    (an index into {!classes}) and whether it failed. Fiber context. *)

type audit = {
  checked : int;  (** names and byte ranges re-verified *)
  lost : int;  (** failed or short; must be 0 *)
}

val audit : Client.t array -> fileset array -> audit
(** Read every file set back through its own client: each small file's
    name must resolve to its handle and its bytes read back at full
    length, and so must every big-file chunk. Fiber context. *)

val run :
  Slice_sim.Engine.t ->
  Client.t array ->
  shape ->
  mix ->
  seed:int ->
  window:float ->
  controller:((int -> float) -> unit) ->
  on_op:(phase:int -> cls:int -> failed:bool -> float -> unit) ->
  audit
(** Phased live load, in fiber context. Builds every client's file set
    ({!build_all}), then runs [controller] beside two closed-loop
    workers per client until the controller returns. The controller
    receives [open_window]: [open_window i] opens window [i] for
    [window] simulated seconds and returns its measured length. Every
    completed op reports to [on_op] with the window it started in
    ([-1] between windows), its class, whether it failed and its
    latency. The file sets are then {!audit}ed. *)

val audit_note : audit -> ownership_violations:int -> string
(** ["clean: N checks, 0 lost, 0 ownership violations"], or the same
    counts after ["FAILED: "]. *)

val audit_json : audit -> ownership_violations:int -> Slice_util.Json.t
(** [{checked, lost, ownership_violations}], keys sorted. *)

val lat_json : Slice_util.Stats.t -> Slice_util.Json.t
(** A window's latency block: [{mean_ms, n, p50_ms, p95_ms}]. *)
