(** Baseline monolithic NFS server.

    Models the evaluation's comparison points: a single FreeBSD 4.0 NFS
    server exporting its whole disk array as one volume over a CCD
    concatenator (Figure 5's 850-IOPS baseline), and — with [mem_only] —
    the N-MFS memory-filesystem server of Figure 3 (faster per-op, no
    logging, but one CPU that saturates).

    Serves the full NFS V3 subset on one host: name space, attributes and
    file data together, data through a buffer cache over the local array.
    No µproxy is involved; clients address this server directly. *)

type t

val attach :
  Slice_storage.Host.t ->
  ?port:int ->
  ?cache_bytes:int ->
  ?per_op_cpu:float ->
  ?mem_only:bool ->
  unit ->
  t
(** Defaults: port 2049, 512 MB cache, 150 µs/op CPU (a 450 MHz PC
    kernel NFS stack), disk-backed. [mem_only] serves everything from
    memory (MFS) at 120 µs/op unless [per_op_cpu] overrides. *)

val addr : t -> Slice_net.Packet.addr
val root : t -> Slice_nfs.Fh.t
