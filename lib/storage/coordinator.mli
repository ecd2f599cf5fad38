(** Block service coordinator (Sections 2.2, 3.1, 3.3.2).

    "The Slice block service includes a coordinator module for files that
    span multiple storage nodes. The coordinator manages optional block
    maps and preserves atomicity of multisite operations."

    Atomicity uses the paper's intention-logging protocol: a requester
    sends an {e intention} before a multi-site operation; the coordinator
    logs it to stable storage (its write-ahead log); the requester sends a
    {e completion} when done, asynchronously clearing the intention. If no
    completion arrives within the probe timeout — or the coordinator
    recovers from a crash with intentions outstanding — the coordinator
    drives the operation to a consistent state by idempotent redo
    (re-issuing remove/commit to the participants).

    The coordinator also orchestrates whole-file multi-site remove and
    commit on behalf of directory servers and µproxies, and serves
    per-file block-map fragments for dynamic I/O routing policies. *)

type t

val attach :
  Host.t ->
  ?probe_timeout:float ->
  ?map_sites:int array ->
  ?trace:Slice_trace.Trace.t ->
  unit ->
  t
(** [map_sites] are the storage-node addresses used when minting block-map
    entries (default: empty — Get_map then answers an empty map). It serves
    {!Ctrl.port} and its own calls go out from port 2052.
    Default probe timeout 0.5 s. With [trace], control messages whose
    xid is bound to a request span record a ["server"] hop here. *)

val addr : t -> Slice_net.Packet.addr
val host : t -> Host.t
val map_sites : t -> int array
(** The storage-node placement array this coordinator mints maps from
    (a successor must be attached with the same array so block placement
    is preserved across a takeover). *)

(** {2 Introspection and failure injection} *)

val pending_intents : t -> int
val intents_logged : t -> int
val completions : t -> int
val redos : t -> int
(** Operations the coordinator had to finish itself (timeout probe or
    crash recovery). *)

val map_entries : t -> int

val crash : t -> unit
(** Fail-stop ({!Tenure.crash}) and discard all volatile state;
    {!Slice_wal.Wal.crash} keeps only the synced log image (unsynced log
    records are torn away), and its calls in flight end
    ({!Slice_net.Rpc.crash}). Takes no simulated time. A message the
    crash overtakes, in its CPU wait or its journal round, is not
    answered, even though the coordinator's host stays up. *)

val recover : t -> unit
(** Replay the surviving log, redo incomplete intentions, resume
    service. *)

val adopt_log : t -> from:t -> int
(** Takeover: open the failed coordinator [from]'s stable intentions log
    in place ({!Slice_wal.Wal.hand_over}: nothing is copied), then
    recover from it — incomplete intentions are re-driven from this
    coordinator, which journals from then on into the same log. Returns
    the log bytes replayed. *)

val tenure : t -> Tenure.t
(** The coordinator's life (down between {!crash} and {!recover}) and
    fencing lease; it owns no sites. Once the lease has expired, control
    messages are Nacked and redo probes stop, so a zombie deposed by a
    takeover cannot commit 2PC work. *)
