(** Write-ahead log.

    Slice file managers are dataless: "each manager journals its updates
    in a write-ahead log; the system can recover the state of any manager
    from its backing objects together with its log". This module provides
    that journal: CRC-guarded records appended in memory and hardened by
    group commit to a (modeled) disk. Recovery replays records in LSN
    order and stops cleanly at a torn or corrupt tail.

    The log image is an explicit byte string, so tests can crash a server
    at an arbitrary byte boundary and recover from the prefix. *)

type t

val create : ?eng:Slice_sim.Engine.t -> ?disk:Slice_disk.Disk.t -> name:string -> unit -> t
(** Without [eng] and [disk], [sync] completes instantly (pure logical
    log for unit tests). With both, sync charges a sequential disk write
    of the unsynced bytes and parks the calling fiber; syncs are then
    {e group commits}: one fiber leads a round covering all pending
    records, and concurrent callers wait for the round that covers
    theirs. One without the other is [invalid_arg]: an engine only makes
    sense with a disk to drive (this combination used to silently fall
    back to the instant log, skipping group commit), and a disk cannot
    be driven without an engine. *)

val append_with : t -> rtype:int -> (Slice_xdr.Xdr.Enc.t -> 'a -> unit) -> 'a -> int64
(** [append_with t ~rtype write v] buffers a record, returning its LSN.
    Not stable until {!sync}. This is the one place a record is built:
    the header goes straight into the log's pending area, [write enc v]
    encodes the payload right after it through [enc], and the length and
    CRC are then stamped in place — no payload string, no record string,
    no second copy. [write] must only encode into [enc]: it must not
    raise, keep [enc], or touch this log. *)

val append : t -> rtype:int -> string -> int64
(** [append t ~rtype payload] is [append_with t ~rtype Enc.raw payload]:
    a payload already held as a string, copied once into the record. *)

exception Crashed
(** Raised by {!sync} and {!checkpoint} to a caller parked across a
    {!crash}, or leading the round it dropped, whose records the crash
    dropped. A caller whose records were stable before the crash returns
    normally. *)

val sync : ?span:Slice_trace.Trace.span -> t -> unit
(** Fiber (when disk-backed): force buffered records stable; it returns
    as soon as the caller's records are, or raises {!Crashed}. A live
    [span] gets a ["wal"] child covering the commit round this caller
    led (fibers that join an in-flight round record the round they then
    lead, if any). A round's bytes stay out of {!image} and
    {!crash_image} until its disk write completes; records appended
    during the write are the unsynced tail. Fibers that joined a round
    resume when it lands, last to arrive first. *)

val crash : t -> unit
(** The host crashed: drop the pending tail and any round in flight, and
    keep the stable image in place. No simulated time, no fiber. A round
    whose write lands after the crash is not hardened; the next round
    starts once that write is done. The next record takes the LSN after
    the last stable one. *)

val synced_lsn : t -> int64
(** Highest LSN guaranteed stable. 0 when nothing is synced. *)

val bytes_appended : t -> int
val sync_count : t -> int

val checkpoint : t -> from:int64 -> unit
(** Fiber (when disk-backed): sync, then drop every stable record before
    LSN [from], the owner's snapshot, appended before the call. The
    image holds the old log or the whole snapshot at every instant: a
    crash before the snapshot is stable raises {!Crashed} and drops
    nothing. A round in flight when the checkpoint starts lands before
    the snapshot and is dropped with the prefix. *)

val image : t -> string
(** The stable on-disk image: synced records only. *)

val crash_image : t -> keep_unsynced_bytes:int -> string
(** Stable image plus the first [keep_unsynced_bytes] of unsynced data —
    a torn-write crash picture for recovery tests. *)

val replay : string -> (lsn:int64 -> rtype:int -> string -> unit) -> int
(** [replay image f] applies every intact record in order and returns the
    count, ignoring any trailing garbage (torn tail). *)
