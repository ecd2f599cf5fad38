(** Fault-injection ("chaos") exhibit: the paper's end-to-end correctness
    argument, measured. Section 3.4 claims the µproxy "is free to discard
    its state and/or pending packets without compromising correctness" —
    so a Slice volume must survive sustained packet loss and a storage
    node fail-stopping mid-workload with {e zero} client-visible lost
    operations, recovering purely by client RPC retransmission.

    Each run drives a real workload (untar or SPECsfs) over a lossy LAN,
    optionally crashing and recovering one storage node mid-run, and
    returns the recovery counters the test suite asserts on. *)

type config = {
  seed : int;
  drop_prob : float;  (** iid loss probability on every link *)
  storage_nodes : int;
  untar_scale : float;  (** tree scale for {!run_untar} *)
  procs : int;  (** client processes (one host + µproxy each) *)
  crash_node : (Slice.Ensemble.klass * int) option;
      (** the server that fail-stops mid-run, by class and index. Pick
          one the workload actually talks to (untar is pure name traffic
          — crash a [Dir]; specsfs moves data — crash a [Storage]).
          Never [(Storage, 0)]: the block coordinator lives there, and
          its loss stalls commits for far longer. *)
  crash_at : float;  (** absolute simulated time of the crash *)
  crash_for : float;  (** seconds until recovery; keep below the client
                          retry budget (~11 s at default RPC settings) or
                          operations are lost *)
}

val default_config : config
(** 3 storage nodes, 2 % loss, storage node 1 crashed at t=1 s for 2 s. *)

type result = {
  ops : int;  (** client NFS operations completed *)
  errors : int;  (** lost operations: failed untar processes or
                     generator-reported errors — must be 0 *)
  retransmissions : int;  (** client RPC resends (the recovery mechanism) *)
  stale_bounces : int;  (** misdirected-request bounces re-routed *)
  expired_pending : int;  (** µproxy pending records reaped by the sweep *)
  pending_at_quiesce : int;  (** leaked µproxy records — must be 0 *)
  packets_dropped : int;  (** all loss (iid + faults + no-handler) *)
  fault_drops : int;  (** losses from the fault schedule alone *)
  elapsed : float;  (** simulated seconds to completion *)
}

val run_untar : ?cfg:config -> unit -> result
(** Name-intensive workload under faults.
    @raise Failure if any operation is lost (untar's own oracle). *)

val run_specsfs : ?cfg:config -> unit -> result
(** SPECsfs mix (reads/writes/commits) under faults; [errors] comes from
    the generator's own per-op accounting. *)

val report : unit -> Report.t
(** Clean baseline, loss-only, loss + crash, and SPECsfs runs. *)
