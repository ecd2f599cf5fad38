(** Ablations of the design choices DESIGN.md §5 calls out: MD5 vs FNV
    for name-space routing balance, the small-file threshold offset, and
    the stripe unit for bulk I/O. *)

val report : ?scale:float -> unit -> Report.t
(** [scale] (default 0.25) sizes the threshold file set (240 files at
    1.0, at least 16) and the stripe-unit read (320 MB at 1.0); the hash
    balance run is fixed-size. *)
