(** Fault-injection ("chaos") exhibit: the paper's end-to-end correctness
    argument, measured. Section 3.4 claims the µproxy "is free to discard
    its state and/or pending packets without compromising correctness" —
    so a Slice volume must survive sustained packet loss and a storage
    node fail-stopping mid-workload with {e zero} client-visible lost
    operations, recovering purely by client RPC retransmission.

    Each run drives a real workload (untar or SPECsfs) on a fresh
    ensemble under one {!Slice.Fault.schedule} and returns the recovery
    counters the test suite asserts on. *)

type workload = Untar | Specsfs

val exhibit : (string * workload * Slice.Fault.schedule) list
(** The report's rows in order: a clean untar, untar under 2 % loss,
    untar under 2 % loss with directory server 0 down from t = 1 s to
    t = 3 s, and SPECsfs under the same loss with storage node 1 down
    for the same window. A crash window stays well inside the client
    retry budget (~11 s at default RPC settings), or operations are
    lost. *)

type result = {
  ops : int;  (** client NFS operations completed *)
  errors : int;  (** lost operations: failed untar processes or
                     generator-reported errors — must be 0 *)
  retransmissions : int;  (** client RPC resends (the recovery mechanism) *)
  stale_bounces : int;  (** misdirected-request bounces re-routed *)
  expired_pending : int;  (** µproxy pending records reaped by the sweep *)
  pending_at_quiesce : int;  (** leaked µproxy records — must be 0 *)
  packets_dropped : int;  (** all loss (faults + no-handler) *)
  fault_drops : int;  (** node, link and partition losses (iid loss excluded) *)
  elapsed : float;  (** simulated seconds to completion *)
}

val run : workload -> Slice.Fault.schedule -> result
(** One run: 3 storage nodes, one small-file server and two client
    processes (one host + µproxy each), seed 2001. Under [Untar], an
    error is a process that lost an operation (untar's own oracle);
    under [Specsfs], the generator's per-op accounting. *)

val report : unit -> Report.t
(** One row per {!exhibit} entry. *)
