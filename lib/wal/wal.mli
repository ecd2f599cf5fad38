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

val create :
  ?eng:Slice_sim.Engine.t ->
  ?disk:Slice_disk.Disk.t ->
  ?sync_fn:(int -> unit) ->
  name:string ->
  unit ->
  t
(** Without [eng]/[disk]/[sync_fn], [sync] completes instantly (pure
    logical log for unit tests). With [eng] and [disk], sync charges a
    sequential disk write of the unsynced bytes and parks the calling
    fiber. With [eng] and [sync_fn], sync calls [sync_fn byte_count] from
    a fiber — the hook dataless managers use to journal onto the network
    storage array. [eng] without a disk or sync_fn is [invalid_arg]: an
    engine only makes sense with a sink to drive (this combination used
    to silently fall back to the instant log, skipping group commit).
    Either way syncs are {e group commits}: one fiber leads a round
    covering all pending records; concurrent callers wait for the round
    that covers theirs. *)

val append : t -> rtype:int -> string -> int64
(** [append t ~rtype payload] buffers a record, returning its LSN.
    Not stable until {!sync}. *)

val sync : ?span:Slice_trace.Trace.span -> t -> unit
(** Fiber (when disk-backed): force buffered records stable.  A live
    [span] gets a ["wal"] child covering the commit round this caller
    led (fibers that join an in-flight round record the round they then
    lead, if any). *)

val synced_lsn : t -> int64
(** Highest LSN guaranteed stable. 0 when nothing is synced. *)

val bytes_appended : t -> int
val sync_count : t -> int

val checkpoint : t -> unit
(** Discard the log prefix (the owner has made its backing objects
    reflect all logged updates). *)

val image : t -> string
(** The stable on-disk image: synced records only. *)

val crash_image : t -> keep_unsynced_bytes:int -> string
(** Stable image plus the first [keep_unsynced_bytes] of unsynced data —
    a torn-write crash picture for recovery tests. *)

val replay : string -> (lsn:int64 -> rtype:int -> string -> unit) -> int
(** [replay image f] applies every intact record in order and returns the
    count, ignoring any trailing garbage (torn tail). *)
