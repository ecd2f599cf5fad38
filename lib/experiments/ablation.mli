(** Ablations of the design choices DESIGN.md §5 calls out: MD5 vs FNV
    for name-space routing balance, the small-file threshold offset, and
    the stripe unit for bulk I/O. *)

type t = {
  md5_imbalance : float;  (** max/min bucket load, 20 000 keys over 8 sites *)
  fnv_imbalance : float;
  threshold_reads : (int * float) list;
      (** (threshold bytes, average cold small-file read, seconds) *)
  stripe_reads : (int * float) list;
      (** (stripe unit bytes, single-client sequential read, MB/s) *)
}

val compute : ?scale:float -> unit -> t
(** [scale] (default 0.25) sizes the threshold file set (240 files at
    1.0, at least 16) and the stripe-unit read (320 MB at 1.0); the hash
    balance run is fixed-size. *)

val report_of : t -> Report.t
val report : ?scale:float -> unit -> Report.t
