(** Token-bucket admission gate for background-class tenants at the
    µproxy: [rate] tokens/second accrue up to [burst]; each admitted
    request spends one. Refill is lazy from the caller-supplied clock, so
    the bucket arms no timers and is deterministic by construction. *)

type t

val create : rate:float -> burst:float -> t
(** [burst] is clamped up to 1.0 (a bucket that can never hold a whole
    token would deadlock its tenant).
    @raise Invalid_argument when [rate <= 0]. *)

val try_take : t -> now:float -> bool
(** Spend one token if available. *)

val next_ready : t -> now:float -> float
(** Seconds until a full token exists (0.0 if one is already there): the
    deferral delay after a failed {!try_take}. *)
