(** Start-time fair queueing (a virtual-time WFQ variant) replacing FIFO
    dispatch at a server: jobs are tagged
    [max(V, last_finish[tenant]) + cost/weight], queued FIFO per tenant,
    and dispatched smallest-tag-first with at most [depth] in flight.
    Under saturation service shares are weight-proportional; idle
    tenants strand no capacity (work conservation). Scheduling is
    enqueue/dequeue bookkeeping on the cold side of the packet path. *)

type t

val create : Slice_sim.Engine.t -> tenants:Tenant.t -> ?depth:int -> unit -> t
(** [depth] bounds concurrently running jobs (default 4): small enough
    that the backlog stays reorderable, large enough to keep the CPU fed
    while a job parks on disk.
    @raise Invalid_argument when [depth <= 0]. *)

val tenant_of : t -> int -> int
(** Classify a source address via the scheduler's registry. *)

val submit : t -> tenant:int -> cost:float -> ((unit -> unit) -> unit) -> unit
(** [submit t ~tenant ~cost run] enqueues a job; when dispatched, [run]
    executes in its own fiber and MUST call the completion continuation
    it is given exactly once (after its last parking operation) — that
    frees the slot and pulls the next job. Same-instant dispatches run
    in tag order (the engine's seq tie-break), so downstream FCFS
    resources see WFQ order. Non-positive costs are clamped to a tiny
    epsilon. *)

val backlog : t -> int
(** Jobs enqueued and not yet dispatched. *)

val dispatched : t -> int -> int
(** Jobs dispatched so far for one tenant. *)

val total_dispatched : t -> int
