(** Structured request tracing.

    A span records one hop of one request: id, parent, op class, site,
    sim-time start/stop, and an outcome.  Spans form trees rooted at the
    µproxy's interception of a client call; remote hops attach to the
    right tree through the RPC xid (globally unique per simulation).

    The disabled path is allocation-free: every operation on {!null} is
    a constant-time no-op, and children of an unallocated span are
    themselves {!null}, so recorded trees are always complete — the span
    cap truncates whole requests, never subtrees. *)

type t
(** A tracer: one per simulation, owning span storage and the xid
    binding table. *)

type span

val null : span
(** The inert span: all operations on it are no-ops.  Handed out when
    tracing is disabled, the root was not sampled, or the cap was hit. *)

val is_live : span -> bool

val create : Slice_sim.Engine.t -> ?sample:float -> ?cap:int -> ?seed:int -> unit -> t
(** [sample] is the fraction of request roots recorded (default 1.0,
    drawn from a private deterministic PRNG); [cap] bounds total spans
    retained (default 200k) — past it new roots are dropped whole. *)

val root : t option -> op:string -> site:string -> span
(** Open a request root (hop ["request"]).  [None] tracer gives {!null}. *)

val child : span -> ?op:string -> hop:string -> site:string -> unit -> span
(** Open a child span under [sp]; starts now, op defaults to the parent's. *)

val finish : ?outcome:string -> span -> unit
(** Close at current sim time (default outcome ["ok"]). *)

val emit :
  span -> ?op:string -> hop:string -> site:string -> start:float -> stop:float ->
  ?outcome:string -> unit -> unit
(** Record an already-completed child of [sp] over [\[start, stop\]];
    dropped when the interval is empty. *)

val timed : span -> hop:string -> site:string -> (unit -> 'a) -> 'a
(** Run [f] and record it as a completed child if it consumed sim time. *)

val bind_xid : span -> int -> unit
(** Register [sp] as the parent for remote spans carrying this xid. *)

val unbind_xid : span -> int -> unit
val span_of_xid : t option -> int -> span

type info = {
  i_id : int;
  i_parent : int; (* 0 for roots *)
  i_op : string;
  i_hop : string;
  i_site : string;
  i_start : float;
  i_stop : float;
  i_outcome : string; (* "unfinished" when never closed *)
}

val count : t -> int
val dropped : t -> int
val infos : t -> info list

val to_json : t -> Slice_util.Json.t
(** Deterministic dump: spans in id order, fixed field order. *)

val hop_breakdown : t -> (string * string * Slice_util.Stats.t) list
(** [(op, hop, stats)] rows sorted by op then hop.  A span's self time is
    its duration minus its direct children's durations (clamped ≥ 0);
    roots contribute a ["total"] row (full duration) and a ["network"]
    row (root self time: wire + queueing no hop accounts for). *)
