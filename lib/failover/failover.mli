(** Dataless failover: lease/heartbeat failure detection and
    hot-standby takeover for the manager classes.

    The Slice managers are {e dataless} — their durable state lives in
    journals and intention logs on shared storage — so a failed manager
    is replaced by replaying that state on a peer and rebinding its
    logical sites in the routing table (paper Section 3.4: recovery "on
    a surviving server using standard redo/undo recovery from the
    shared log"). What the paper leaves implicit is how the cluster
    decides a manager is dead and how a {e wrong} decision is kept
    safe; this module supplies both:

    {ol
    {- {b Detection.} A controller host renews a fencing lease at every
       manager every 50 ms over the simulated network (one datagram, no
       retries). After 3 consecutive timeouts the manager is declared
       dead (≈ 300 ms detection).}
    {- {b Fencing.} Every renewal carries its expiry computed at send
       time, and one lease lasts (2·3 − 1)·50 ms = 250 ms — just less
       than the worst-case time for the controller to count 3 misses.
       Before promoting a standby the controller additionally waits
       out the largest expiry it ever put on the wire. A donor cut off
       from renewals (crashed {e or} merely partitioned) has therefore
       always wedged itself — bouncing every request with
       [SLICE_MISDIRECTED] — strictly before the standby claims its
       sites, so at most one side of a partition executes requests,
       with no shared clock assumptions beyond the simulator's.}
    {- {b Takeover.} Directory and small-file victims are replaced via
       {!Slice_reconfig.Reconfig.takeover} (per-site Begin intent,
       journal/zone replay from shared storage, table rebind, Commit
       seal, one fencing-epoch bump). The coordinator is replaced by
       attaching a successor to a surviving storage node's host,
       adopting the victim's intention log (redo completes in-flight
       2PC), swapping the ensemble's endpoint and bumping the storage
       table's epoch. Standbys are the least-loaded live peer (lowest
       index on ties); the successor coordinator is the first live
       storage node not hosting the victim.}} *)

type t

val attach : Slice.Ensemble.t -> Slice_reconfig.Reconfig.t -> t
(** Create the controller host, install a lease-renewal endpoint (port
    2060) on every manager host, seed finite leases (arming fencing —
    servers default to infinite leases) and spawn one detector fiber
    per manager plus one for the coordinator role. Call {!stop} before
    running the engine to quiescence, or the detector fibers renew
    forever. *)

val stop : t -> unit
(** Stop all detector fibers at their next wakeup and stop renewing
    leases. Wedges every watched manager once its last lease runs out —
    quiesce the workload first. *)

type event = {
  ev_time : float;  (** sim time the takeover committed *)
  ev_class : string;  (** ["dir"], ["smallfile"] or ["coordinator"] *)
  ev_victim : int;
  ev_standby : int;
  ev_sites : int;  (** sites claimed (coordinator: map width) *)
  ev_bytes : int;  (** the victim's journals or zone images replayed *)
  ev_detect : float;  (** first missed renewal → declaration *)
  ev_mttr : float;  (** first missed renewal → service restored *)
}

val events : t -> event list
(** Completed takeovers, oldest first. *)

val takeovers : t -> int

val rejoin : t -> Slice.Ensemble.klass -> int -> unit
(** Bring deposed manager [i] of the class back as a {e peer}: recover
    it (a directory server replays its journal), shed every site the
    routing table has since bound elsewhere (a small-file server also
    drops their file data), grant it a fresh lease under the current
    fencing epoch and resume its heartbeats. Without this call a
    recovered victim stays wedged forever — fencing is deliberately
    sticky. A deposed coordinator has no rejoin: the role moved, and the
    old instance stays fenced on its storage host.
    @raise Invalid_argument for [Storage]: storage nodes are not
    managers. *)

val metrics : t -> Slice_util.Metrics.t
(** [failover.heartbeats], [failover.declared], [failover.takeovers],
    [failover.sites_claimed], [failover.false_suspects] (suspicions
    cleared by a late ack), [failover.no_standby], the
    [failover.detect_latency] and [failover.mttr] distributions, and
    gauges for targets / deposed count / lease duration. *)

val heartbeats : t -> int
val lease_duration : t -> float

val deposed : t -> string list
(** Names of currently deposed targets (e.g. ["dir1"]), attach order. *)
