(** Online reconfiguration control plane: elastic scaling,
    logical-site migration and load-driven rebalancing.

    The Slice routing tables map many {e logical sites} to few physical
    servers precisely so that reconfiguration is a table edit rather
    than a rehash (Section 3.3.1: "multiple logical sites may map to the
    same physical server, leaving flexibility for reconfiguration").
    This module is the external agent the paper leaves implicit: it
    decides which sites move, migrates their state, and republishes the
    tables — all under live load, on the simulated clock.

    {2 Migration state machine}

    Every site move runs the same four phases:

    + {b Intend} — a Begin record (class, site, donor, receiver) is
      forced to the coordinator intent log before anything changes, so
      {!recover} can always roll an interrupted move back.
    + {b Drain} — the donor keeps answering reads for the moving site
      but bounces mutations with [SLICE_MISDIRECTED]. µProxies back off
      and retry; because the routing table has not changed yet, the
      retries keep landing on the donor until commit.
    + {b Copy} — the transfer occupies simulated time proportional to
      the bytes moved at the configured bandwidth: a directory site's
      own journal, a small-file or storage site's backing
      fragments/objects. A directory donor then forces its journal
      until no record of the site is unstable.
    + {b Commit} — atomically (no intervening simulated events): the
      receiver opens a directory site's journal in place or imports the
      copied image, takes ownership, the donor disowns and drops the
      site, the routing table rebinds the site (one version bump), and a
      Commit record seals the intent. µProxies refresh lazily on their
      next bounce, exactly as for any stale snapshot.

    Epoch safety falls out of ownership gating: after commit the donor
    no longer owns the site, so a straggler request routed by a
    pre-commit snapshot bounces instead of mutating ghost state.

    {2 Crash matrix}

    The copy phase is the only window containing simulated-time gaps.
    If the donor or receiver is down when commit is reached, the move
    {e aborts}: the drain mark is lifted (a donor crash already cleared
    it — drains are volatile) and the table never changes, so the site
    is wholly on the donor. The receiver took nothing: all state
    transfer happens inside the atomic commit step. A control-plane
    crash (modelled by the [abandon] fault-injection hook) leaves a
    dangling Begin intent; {!recover} replays the log and rolls every
    unsealed intent back to the donor. In no schedule is a site ever
    split across, or owned by, two servers. *)

type t

(** {2 Plans}

    The operator-facing vocabulary: a plan names {e intent} ("grow the
    storage class"); {!execute} turns it into a deterministic sequence
    of logical-site migrations. *)

type plan =
  | Add_server of Slice.Ensemble.klass
      (** Provision one more server of the class and rebalance the
          class's logical sites onto it. The new server joins owning no
          sites; everything it serves arrives by migration. *)
  | Remove_server of Slice.Ensemble.klass * int
      (** Decommission server [idx] of the class: migrate every logical
          site it owns to the remaining servers, leaving it empty. The
          host stays in the ensemble but receives no further traffic
          once the routing table stops naming it. *)
  | Rebalance
      (** Re-spread the logical sites of every class by observed
          per-site load (least-loaded-bucket greedy with a
          keep-in-place tie-break, so a balanced ensemble is a fixed
          point and repeated rebalances are idempotent). *)

exception Abandoned
(** Raised internally by the [abandon] fault-injection hook; {!execute}
    catches it, leaving the in-flight migration dangling for
    {!recover} to roll back. *)

val attach : ?bandwidth:float -> ?trace:Slice_trace.Trace.t -> Slice.Ensemble.t -> t
(** Attach a control plane to a live ensemble. [bandwidth] is the
    modelled migration copy rate in bytes per simulated second
    (default 50 MB/s — a throttled background stream that leaves
    capacity for foreground traffic). With [trace], every migration
    opens a [migrate.<class>] span finished with the commit/abort
    outcome. *)

val execute : ?abandon:[ `After_begin ] -> t -> plan -> unit
(** Run a plan to completion. Must be called from a fiber of the
    ensemble's engine (migrations sleep for the modelled copy time).
    Migrations within a plan run sequentially in ascending site order —
    the control plane is single-threaded by design, so plans serialize.

    [abandon:`After_begin] is a fault-injection hook: the first
    migration stops dead after logging its intent and starting the
    drain, simulating a control-plane crash mid-move (state is left
    dangling; use {!recover}).

    @raise Invalid_argument for a plan naming a class the ensemble does
    not run (e.g. [Add_server Smallfile] with no small-file servers),
    or a [Remove_server] index out of range / naming the last server
    of its class. *)

val takeover : t -> Slice.Ensemble.klass -> victim:int -> standby:int -> int
(** Hot-standby failover: claim every logical site of the class's dead
    server [victim] for [standby] — per site: log a Begin intent,
    rebuild the site's state from shared storage (the site's directory
    journal opened in place, small-file zone images), bind the
    site to the standby, seal with Commit — then advance the class
    table's fencing epoch exactly once. No drain phase, no donor-liveness
    check; the dead donor keeps its (unreachable) ownership bits and is
    stopped by fencing, not by control-plane writes to a machine just
    declared unreachable. Returns the number of sites claimed. A standby
    that crashes mid-takeover leaves dangling Begin intents for
    {!recover} exactly like an abandoned migration.
    @raise Invalid_argument for the storage class (storage sites are not
    dataless), out-of-range indices, or [victim = standby]. *)

val recover : t -> unit
(** Replay the intent log and roll back every Begin not sealed by a
    Commit or Abort: lift the drain, restore donor ownership, disown
    and drop the receiver's copy, rebind the table to the donor (a
    no-op unless the crash landed inside commit, which the atomic
    commit step makes impossible — the rebind is belt and braces), and
    seal the intent with an Abort record. Idempotent; a no-op on a
    clean log. *)

val metrics : t -> Slice_util.Metrics.t
(** The control plane's registry: [reconfig.migrations],
    [reconfig.sites_moved], [reconfig.aborted], [reconfig.bytes_copied],
    a [reconfig.drain_bounces] gauge summing every server's
    drain-bounce counter, and per-site [reconfig.load.<class>.<site>]
    gauges over the owners' load counters — the inputs to
    {!Rebalance}'s placement decision. *)

val migrations : t -> int
(** Migrations started (including aborted and abandoned ones). *)

val sites_moved : t -> int
(** Migrations committed. *)

val aborted : t -> int
(** Migrations aborted (liveness check failed at commit) or rolled
    back by {!recover}. *)

val bytes_copied : t -> int64
(** Total bytes of site state streamed by committed migrations. *)

val drain_bounces : t -> int
(** Mutations bounced by donors mid-drain, summed over all servers of
    all classes. *)

val shed : t -> Slice.Ensemble.klass -> int -> unit
(** Disown, drop and forget the load of every site server [i] of the
    class still owns but the class table binds elsewhere — how a
    recovered, deposed server rejoins as a peer. A no-op for a class the
    ensemble does not run. *)

val ownership_violations : t -> (string * int * int) list
(** The exactly-one-owner audit over every class: each [(class, site,
    owners)] names a logical site that is not owned by exactly one
    server, or whose one owner the class table does not publish (then
    [owners] is 1). Empty when the invariant holds. *)
