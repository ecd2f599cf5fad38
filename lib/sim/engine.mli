(** Deterministic discrete-event simulation engine.

    Time is a [float] in seconds. Events scheduled for the same instant run
    in FIFO order of scheduling, which together with the seeded PRNG makes
    every run bit-reproducible.

    Sequential-looking simulated processes ("fibers") are built on OCaml 5
    effects: a fiber may call {!sleep} or {!suspend}, which park it without
    blocking the engine. All fiber code runs synchronously inside the event
    loop, so no locking is ever needed. *)

type t

val create : unit -> t

val now : t -> float
(** Current simulated time in seconds. *)

val schedule : t -> float -> (unit -> unit) -> unit
(** [schedule t delay f] runs [f] at [now t +. delay]. [delay < 0] is
    clamped to 0. *)

val schedule_at : t -> float -> (unit -> unit) -> unit
(** [schedule_at t time f] runs [f] at absolute [time] (clamped to now). *)

val spawn : t -> (unit -> unit) -> unit
(** [spawn t f] starts a fiber at the current time. The fiber may use
    {!sleep} and {!suspend}. Exceptions escaping a fiber abort the run. *)

(** {2 Fiber operations (only valid inside a spawned fiber)} *)

val sleep : t -> float -> unit
(** Park the calling fiber for a simulated duration. A positive duration
    always yields, even one too small to move the clock. Sleeping is the
    cheapest way to park: the fiber's continuation goes straight into the
    event queue, with no closure allocated. *)

val sleep_until : t -> float -> unit
(** Park the calling fiber until an absolute simulated time. *)

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
