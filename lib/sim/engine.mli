(** Deterministic discrete-event simulation engine.

    Time is a [float] in seconds. Events scheduled for the same instant run
    in FIFO order of scheduling, which together with the seeded PRNG makes
    every run bit-reproducible.

    Sequential-looking simulated processes ("fibers") are built on OCaml 5
    effects: a fiber may call {!sleep}, {!park} or {!suspend}, which park
    it without blocking the engine. All fiber code runs synchronously
    inside the event loop, so no locking is ever needed. *)

type t

val create : unit -> t

val now : t -> float
(** Current simulated time in seconds. *)

val schedule : t -> float -> (unit -> unit) -> unit
(** [schedule t delay f] runs [f] at [now t +. delay]. [delay < 0] is
    clamped to 0. *)

val schedule_at : t -> float -> (unit -> unit) -> unit
(** [schedule_at t time f] runs [f] at absolute [time] (clamped to now). *)

type timer
(** A scheduled event that can be cancelled. The handle is a pooled
    event cell: it is recycled once the event fires, so a handle is only
    meaningful together with the {!timer_seq} read when it was made. *)

val schedule_timer : t -> float -> (unit -> unit) -> timer
(** Like {!schedule}, returning the event's handle. Read its
    {!timer_seq} straight away, before the cell can be recycled. *)

val no_timer : timer
(** A handle to no event: cancelling it does nothing. *)

val timer_seq : timer -> int
(** The scheduling sequence number the cell carries now. *)

val cancel : timer -> int -> unit
(** [cancel tm seq] makes the event a no-op if the cell still carries
    [seq], and does nothing otherwise (the event already fired and the
    cell was reused). A cancelled event still fires at its time, doing
    nothing, so cancelling never shifts the order of other events. It
    drops the engine's reference to the thunk at once. *)

val spawn : t -> (unit -> unit) -> unit
(** [spawn t f] starts a fiber at the current time. The fiber may use
    {!sleep}, {!park} and {!suspend}. Exceptions escaping a fiber abort
    the run. *)

(** {2 Fiber operations (only valid inside a spawned fiber)} *)

val sleep : t -> float -> unit
(** Park the calling fiber for a simulated duration. A positive duration
    always yields, even one too small to move the clock. Sleeping is the
    cheapest way to park: the fiber's continuation goes straight into the
    event queue, with no closure allocated. *)

val sleep_until : t -> float -> unit
(** Park the calling fiber until an absolute simulated time. *)

type waiter
(** A slot one parked fiber can wait in. Reusable: a waiter holds a
    continuation only between {!park} and {!unpark}. *)

val waiter : unit -> waiter

val park : t -> waiter -> unit
(** [park t w] parks the calling fiber in [w] until {!unpark}[ w]. The
    handler stores the continuation in [w]; nothing is allocated. *)

val unpark : waiter -> unit
(** Resume the fiber parked in the waiter, synchronously: it runs until
    it next parks or finishes, then [unpark] returns. A no-op when no
    fiber is parked there. *)

val suspend : (('a -> unit) -> unit) -> 'a
(** [suspend register] parks the calling fiber and calls
    [register waker]. The fiber resumes with [v] when [waker v] is called.
    The waker is idempotent: calls after the first are ignored, which lets
    timeout and completion paths race safely. *)

(** {2 Running} *)

val run : ?until:float -> t -> unit
(** Process events until the queue is empty, or until simulated time would
    exceed [until] (remaining events stay queued). With [until], the clock
    always advances to [until] — even if the queue drained earlier — so
    rates computed as work/elapsed see the full window. *)

val step : t -> bool
(** Process a single event; [false] if the queue was empty. *)

val pending : t -> int
(** Number of queued events. *)
