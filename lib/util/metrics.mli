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

val remove : t -> string -> unit
(** Retire the named counter/gauge/distribution from the registry (no-op
    when unknown). Needed when the component behind a gauge goes away —
    a failed server's load gauges must not keep answering with stale
    values, or consumers (e.g. the greedy rebalancer) are skewed. *)

type scope
(** A label scope: all gauges registered through it share a
    ["prefix.tenant."] key prefix, so per-tenant families dump in sorted,
    byte-stable order without hand-concatenated key strings. *)

val labelled : t -> prefix:string -> tenant:string -> scope
(** [labelled t ~prefix:"qos" ~tenant:"web"] names series
    ["qos.web.<name>"]. *)

val scoped_gauge : scope -> string -> (unit -> float) -> unit

val observe : t -> string -> float -> unit

val value : t -> string -> float
(** Current value of a counter or gauge; 0.0 when unknown. *)

val names : t -> string list
(** All registered metric names, sorted. *)

val dump : t -> Json.t
(** Full registry snapshot: [{"counters":{..},"dists":{..},"gauges":{..}}]
    with keys sorted at every level. *)
