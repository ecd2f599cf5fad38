(** Unified metrics registry: named counters, pull-style gauges, and
    sample distributions with a deterministic sorted-key JSON dump.

    Components either push by name ({!incr}/{!add} into a counter,
    {!observe} into a distribution, each created on first use), or
    register a gauge closure so pre-existing ad-hoc counters are
    absorbed without changing their hot paths.  [dump] output is
    byte-identical across two identical simulation runs. *)

type t

val create : unit -> t

val incr : t -> string -> unit
val add : t -> string -> int -> unit

val gauge : t -> string -> (unit -> float) -> unit
(** Register (or replace) a pull-style gauge sampled at [dump] time. *)

val observe : t -> string -> float -> unit

val value : t -> string -> float
(** Current value of a counter or gauge; 0.0 when unknown. *)

val names : t -> string list
(** All registered metric names, sorted. *)

val dump : t -> Json.t
(** Full registry snapshot: [{"counters":{..},"dists":{..},"gauges":{..}}]
    with keys sorted at every level. *)
