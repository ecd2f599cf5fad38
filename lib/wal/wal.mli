(** Write-ahead log.

    Slice file managers are dataless: "each manager journals its updates
    in a write-ahead log; the system can recover the state of any manager
    from its backing objects together with its log". This module provides
    that journal: CRC-guarded records appended in memory and hardened by
    group commit to a (modeled) disk. Recovery replays records in LSN
    order and stops cleanly at a torn or corrupt tail.

    Each record belongs to a logical site with its own stable image. A
    server hosting several sites keeps one log, whose group commit covers
    them all, and can hand a site's image to another server's log whole
    ({!hand_over}), as a failover target mounts a journal in place.

    An image is an explicit byte string, so tests can crash a server at
    an arbitrary byte boundary and recover from the prefix. *)

type t

val create : ?eng:Slice_sim.Engine.t -> ?disk:Slice_disk.Disk.t -> name:string -> unit -> t
(** Without [eng] and [disk], [sync] completes instantly (pure logical
    log for unit tests). With both, sync charges a sequential disk write
    of the unsynced bytes and parks the calling fiber; syncs are then
    {e group commits}: one fiber leads a round covering all pending
    records, and concurrent callers wait for the round that covers
    theirs. One without the other is [invalid_arg]: an engine only makes
    sense with a disk to drive, and a disk cannot be driven without an
    engine. *)

val append_with : t -> site:int -> rtype:int -> (Slice_xdr.Xdr.Enc.t -> 'a -> unit) -> 'a -> int64
(** [append_with t ~site ~rtype write v] buffers a record for [site]'s
    image, returning its LSN. Not stable until {!sync}. This is the one
    place a record is built: the header goes straight into the site's
    pending area, [write enc v] encodes the payload right after it
    through [enc], and the length and CRC are then stamped in place — no
    payload string, no record string, no second copy. [write] must only
    encode into [enc]: it must not raise, keep [enc], or touch this log. *)

exception Crashed
(** Raised by {!sync} and {!checkpoint} to a caller parked across a
    {!crash}, or leading the round it dropped, whose records the crash
    dropped. A caller whose records were stable before the crash returns
    normally. *)

val sync : ?span:Slice_trace.Trace.span -> t -> unit
(** Fiber (when disk-backed): force buffered records stable, one disk
    write per round whatever their sites; it returns as soon as the
    caller's records are, or raises {!Crashed}. A live [span] gets a
    ["wal"] child covering the commit round this caller led (fibers that
    join an in-flight round record the round they then lead, if any). A
    round's bytes stay out of the {!image}s and {!crash_image} until its
    disk write completes; records appended during the write are the
    unsynced tail. Fibers that joined a round resume when it lands, last
    to arrive first. *)

val crash : t -> unit
(** The host crashed: drop the pending tail and any round in flight, and
    keep the stable image in place. No simulated time, no fiber. A round
    whose write lands after the crash is not hardened; the next round
    starts once that write is done. The next record takes the LSN after
    the last stable one, or after the last one of an image handed in,
    whichever is later. *)

val settle : t -> site:int -> unit
(** Fiber (when disk-backed): {!sync} until no record of [site] is
    pending or in a round in flight. Raises {!Crashed} as {!sync} does. *)

val synced_lsn : t -> int64
(** Highest LSN guaranteed stable. 0 when nothing is synced. *)

val bytes_appended : t -> int
val sync_count : t -> int

val checkpoint : t -> from:int64 -> unit
(** Fiber (when disk-backed): sync, then drop from every image each
    record before LSN [from], the owner's first snapshot, appended before
    the call with one snapshot per site after it. The image holds the
    old log or the whole snapshot at every instant: a crash before the
    snapshot is stable raises {!Crashed} and drops nothing. A round in
    flight when the checkpoint starts lands before the snapshot and is
    dropped with the prefix. *)

val hand_over : t -> site:int -> to_:t -> unit
(** [hand_over t ~site ~to_] moves [site]'s stable image from [t] to
    [to_] by reference, replacing any image [to_] held for it; [t] is
    left with an empty one. [to_]'s next record takes an LSN past the
    image's last. A record of [site] still pending in [t], or in its
    round in flight, lands in the empty image [t] now holds. *)

val image : t -> site:int -> string
(** [site]'s stable on-disk image: its synced records only. *)

val crash_image : t -> site:int -> keep_unsynced_bytes:int -> string
(** [site]'s stable image plus the first [keep_unsynced_bytes] of its
    unsynced records — a torn-write crash picture for recovery tests. *)

val replay : string -> (lsn:int64 -> rtype:int -> string -> unit) -> int
(** [replay image f] applies every intact record in order and returns the
    count, ignoring any trailing garbage (torn tail). *)
