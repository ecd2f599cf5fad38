(** One fault schedule for an ensemble: packet loss, link faults,
    partitions, server and coordinator crashes, and µproxy soft-state
    loss, each at a simulated time. A schedule is plain data, so a test,
    an exhibit or a generator can build, print or shrink it.

    The paper's §3.4 claim is that the µproxy "is free to discard its
    state and/or pending packets without compromising correctness":
    client retransmission recovers from every action below. *)

type target =
  | Server of Ensemble.klass * int
  | Coordinator  (** the ensemble's current block coordinator *)

type action =
  | Net of Slice_net.Net.fault  (** see {!Slice_net.Net.fault} *)
  | Crash of target
      (** {!Ensemble.crash} for a server (service and host). A coordinator
          crash stops only the coordinator: its host, storage node 0,
          stays up. *)
  | Recover of target  (** {!Ensemble.recover}, or the coordinator's log replay *)
  | Discard_soft_state of int
      (** drop every cache and pending record of client µproxy [i], in
          {!Ensemble.add_client} order *)

type schedule = (float * action) list
(** (absolute simulated time, action), in non-decreasing time order. *)

val install : Ensemble.t -> schedule -> unit
(** Apply [schedule] to the ensemble. Actions due at or before the
    current time apply at once, in the caller, before any packet moves —
    so a loss due at 0, installed before the run, covers every packet.
    No action parks, so [install] needs no fiber. Each later instant
    runs its actions in list order on one fiber started at that
    instant.
    @raise Invalid_argument when a time is negative or out of order. *)
