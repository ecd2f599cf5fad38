(** Deterministic pseudo-random number generator (SplitMix64).

    The whole simulation must be reproducible from a single seed, so all
    randomness flows through explicitly-seeded generators rather than the
    global [Random] state. SplitMix64 is small, fast, and statistically
    adequate for workload generation and randomized placement. *)

type t

val create : int -> t
(** [create seed] is a fresh generator. Equal seeds give equal streams. *)

val split : t -> t
(** [split t] derives an independent generator, advancing [t]. Useful to
    give each simulated client its own stream. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. [bound] must be positive. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)

val exponential : t -> float -> float
(** [exponential t mean] samples an exponential distribution. *)

val weighted : t -> (float * 'a) array -> 'a
(** [weighted t choices] picks an element with probability proportional to
    its weight. Weights must be non-negative with a positive sum. *)
