(** Failover exhibit: hot-standby takeover with fencing epochs under
    live load. The chaos schedule kills one manager of each class
    (directory, small-file, block coordinator); the lease detector
    deposes it, a standby replays its state from shared storage and
    claims its sites under a bumped fencing epoch, and the revived
    zombie is probed to show it bounces everything. Reports per-phase
    throughput/latency, per-takeover detection latency and MTTR, and a
    post-run audit proving zero requests lost. *)

type phase = {
  ph_label : string;
  ph_ops : int;
  ph_ops_s : float;
  ph_lat : Slice_util.Stats.t;
  ph_errs : int;  (** client-visible NFS errors during the window *)
}

type zombie = {
  z_name : string;
  z_bounces : int;  (** fence bounces counted at the revived victim *)
  z_update_blocked : bool;  (** the mutation sent to the zombie left no trace *)
}

type t = {
  phases : phase list;
  takeovers : Slice_failover.Failover.event list;  (** oldest first *)
  zombies : zombie list;
  audit : Slice_workload.Livemix.audit;  (** post-run read-back *)
  ownership_violations : int;  (** logical sites without exactly one owner *)
  fence_invalidations : int;  (** µproxy cache flushes on epoch bumps *)
  heartbeats : int;
  lease_duration : float;
  fo_metrics : Slice_util.Json.t;
}

val compute : ?scale:float -> ?seed:int -> unit -> t
(** Run the exhibit. Deterministic: same [scale] and [seed], same
    result, byte-identical {!json_of} output. *)

val report_of : t -> Report.t
val json_of : t -> Slice_util.Json.t
