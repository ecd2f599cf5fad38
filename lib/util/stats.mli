(** Online statistics for simulation measurements: latency samples and
    throughput counters. *)

type t
(** A sample accumulator: exact count/mean/min/max/stddev, plus a capped
    uniform reservoir (algorithm R, deterministic seed) retained for
    percentile queries — memory stays bounded no matter how many samples
    are added. *)

val create : ?reservoir:int -> unit -> t
(** [reservoir] caps how many samples are retained for percentiles
    (default 8192). Scalar moments are always exact. *)

val add : t -> float -> unit
val count : t -> int
val mean : t -> float
(** 0.0 when empty. *)

val min : t -> float
val max : t -> float
val sum : t -> float
val stddev : t -> float
val percentile : t -> float -> float
(** [percentile t p] with [p] in [0,100]; nearest-rank on the retained
    reservoir (exact while fewer than [reservoir] samples were added).
    The sorted view is cached between adds, so repeated queries cost
    O(log n) after one O(n log n) sort. 0.0 when empty. *)

val merge : t -> t -> t
(** Pooled accumulator: scalar moments combine exactly; the pooled
    reservoir is subsampled back to the larger of the two caps. *)

module Counter : sig
  (** Monotonic event counter with rate-over-window support. *)
  type nonrec t

  val create : unit -> t
  val incr : t -> unit
  val add : t -> int -> unit
  val get : t -> int
  val rate : t -> elapsed:float -> float
  (** Events per unit time over [elapsed]; 0.0 if [elapsed <= 0]. *)
end
