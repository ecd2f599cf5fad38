(** Deterministic discrete-event simulation engine.

    Time is a [float] in seconds. Events scheduled for the same instant run
    in FIFO order of scheduling, which together with the seeded PRNG makes
    every run bit-reproducible.

    Sequential-looking simulated processes ("fibers") are built on OCaml 5
    effects: a fiber may call {!sleep}, {!park} or {!wait}, which park
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
    event cell: it is recycled once the event fires or is cancelled, so a
    handle is only meaningful together with the {!timer_seq} read when it
    was made. *)

val schedule_timer : t -> float -> (unit -> unit) -> timer
(** Like {!schedule}, returning the event's handle. Read its
    {!timer_seq} straight away, before the cell can be recycled. *)

val no_timer : timer
(** A handle to no event: cancelling it does nothing. *)

val timer_seq : timer -> int
(** The scheduling sequence number the cell carries now. *)

val cancel : t -> timer -> int -> unit
(** [cancel t tm seq] takes the event out of the queue and returns its
    cell to the pool, if the cell still carries [seq] and is queued. It
    does nothing otherwise: the event already fired or was cancelled, and
    the cell may carry another event now. The other events keep their
    order, and the engine drops its reference to the thunk at once.

    The clock still passes the removed event's time: the engine keeps the
    latest such time, its horizon, and once no live event is left
    {!step} and {!run} without [until] move the clock to it if it is
    later. So a run ends at the time it would have if the cancelled event
    had stayed queued and fired, doing nothing. *)

val spawn : t -> (unit -> unit) -> unit
(** [spawn t f] starts a fiber at the current time. The fiber may use
    {!sleep}, {!park} and {!wait}. Exceptions escaping a fiber abort
    the run. The event cell carries [f] itself, so spawning allocates no
    wrapper closure. *)

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

type queue
(** Fibers waiting for one event, woken all at once. The queue pools its
    waiters: a wait allocates no more than {!park}, unless more fibers
    wait in the queue at once than ever before. *)

val queue : unit -> queue

val wait : t -> queue -> unit
(** [wait t q] parks the calling fiber in [q] until {!wake_all}[ q]. *)

val wake_all : queue -> unit
(** Resume every fiber parked in the queue, the last parked first, each
    synchronously as {!unpark} does. The queue is emptied before the
    first resumes, so a fiber that waits again meanwhile stays parked
    until the next [wake_all]. *)

(** {2 Running} *)

val run : ?until:float -> t -> unit
(** Process events until the queue is empty, or until simulated time would
    exceed [until] (remaining events stay queued). With [until], the clock
    always advances to [until] — even if the queue drained earlier — so
    rates computed as work/elapsed see the full window. Without [until],
    the clock ends at the horizon of {!cancel} if that is later than the
    last event. *)

val step : t -> bool
(** Process a single event. When no live event is left it returns
    [false], after moving the clock to the horizon of {!cancel} if that
    is later. *)

val pending : t -> int
(** Number of queued live events: a cancelled event is not counted. *)
