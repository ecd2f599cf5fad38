(** Scale-out exhibit: elastic scaling under live load. A running
    SPECsfs-style mix keeps issuing while the reconfiguration control
    plane ({!Slice_reconfig.Reconfig}) adds one server of each class and
    rebalances logical sites onto it; measurement windows bracket each
    addition, and a post-run audit proves no update was lost or
    duplicated. Same seed, byte-identical {!json_of} output. *)

type phase = {
  ph_label : string;
  ph_ops : int;
  ph_ops_s : float;
  ph_lat : Slice_util.Stats.t array;
      (** per request class: name, smallfile, storage *)
  ph_stale : int;  (** µproxy bounce-refreshes during the window *)
  ph_drain : int;  (** donor drain bounces during the window *)
}

type t = {
  phases : phase list;
  trans_ops : int;  (** ops completed while a migration was in flight *)
  migrations : int;
  sites_moved : int;
  aborted : int;
  bytes_copied : int64;
  drain_bounces : int;
  audit : Slice_workload.Livemix.audit;  (** post-run read-back *)
  ownership_violations : int;
      (** logical sites without exactly one owner backing the published
          table entry — must be 0 *)
  rc_metrics : Slice_util.Json.t;
}

val compute : ?scale:float -> ?seed:int -> unit -> t
(** [scale] multiplies file-set sizes and window lengths (default 1.0;
    tests use a fraction). *)

val report_of : t -> Report.t
val json_of : t -> Slice_util.Json.t
(** Deterministic rendering (sorted keys, run-order phases) — the
    [scale-report.json] artifact CI diffs across same-seed runs. *)
