(** Reconfiguration plans: the operator-facing vocabulary of the online
    control plane. A plan names {e intent} ("grow the storage class");
    {!Reconfig.execute} turns it into a deterministic sequence of
    logical-site migrations. *)

type klass = Dir | Smallfile | Storage
(** The three request classes of the Slice ensemble, each with its own
    routing table and logical-site space. *)

type t =
  | Add_server of klass
      (** Provision one more server of the class and rebalance the
          class's logical sites onto it. The new server joins owning no
          sites; everything it serves arrives by migration. *)
  | Remove_server of klass * int
      (** Decommission server [idx] of the class: migrate every logical
          site it owns to the remaining servers, leaving it empty. The
          host stays in the ensemble but receives no further traffic
          once the routing table stops naming it. *)
  | Rebalance
      (** Re-spread the logical sites of every class by observed
          per-site load (least-loaded-bucket greedy with a
          keep-in-place tie-break, so a balanced ensemble is a fixed
          point and repeated rebalances are idempotent). *)
  | Takeover of klass * int * int
      (** [Takeover (k, victim, standby)]: hot-standby failover — claim
          every logical site of the class's dead server [victim] for
          server [standby], rebuilding the sites' state from shared
          storage (directory journal replay / small-file zone images).
          No drain phase and no donor-liveness check: the victim is
          presumed dead, and the routing table's fencing-epoch bump is
          what stops a zombie. Storage sites are not dataless (their
          bytes die with the node), so [Takeover (Storage, _, _)] is
          rejected — coordinator failover is [Slice_failover]'s job. *)

val klass_name : klass -> string
(** ["dir"], ["smallfile"] or ["storage"] — used in metric names, trace
    spans and the intent log. *)

val klass_of_name : string -> klass option
