(** Tenant identity and per-tenant accounting.

    Requests carry a tenant id from the originating client host, through
    the µproxy's pooled pending records, into the per-server WFQ queues.
    The registry maps dense host addresses to tenant ids (flat int
    array — server-side classification allocates nothing) and owns the
    per-tenant counters and latency/queue-delay reservoirs every layer
    pushes into. *)

type klass = Interactive | Batch | Background

type spec = {
  name : string;
  weight : float;  (** WFQ share under contention; must be positive *)
  klass : klass;
  admit_rate : float;  (** µproxy admission tokens/second; <= 0 = ungated *)
  admit_burst : float;  (** bucket depth, requests *)
}

val spec :
  ?klass:klass ->
  ?admit_rate:float ->
  ?admit_burst:float ->
  name:string ->
  weight:float ->
  unit ->
  spec
(** @raise Invalid_argument when [weight <= 0]. *)

type t

val create : spec array -> t
(** @raise Invalid_argument on an empty array or a non-positive weight. *)

val count : t -> int
val spec_of : t -> int -> spec
val weight_of : t -> int -> float

val bind_addr : t -> addr:int -> tenant:int -> unit
(** Classify every packet sourced from [addr] as [tenant]. *)

val of_addr : t -> int -> int
(** Tenant of a source address; unbound addresses classify as tenant 0.
    Total and allocation-free: runs on the server packet path. *)

(** {2 Accounting} *)

val note_reply : t -> int -> bytes:int -> unit
val note_admitted : t -> int -> unit
val note_deferred : t -> int -> unit
val observe_queue_delay : t -> int -> float -> unit
val observe_latency : t -> int -> float -> unit

val ops : t -> int -> int
val queue_delay : t -> int -> Slice_util.Stats.t

val register_metrics : t -> Slice_util.Metrics.t -> unit
(** Register every tenant's series under ["qos.<tenant>."] via
    {!Slice_util.Metrics.labelled}; the registry dump keeps them in
    sorted, byte-stable order. *)
