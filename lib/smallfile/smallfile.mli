(** Small-file server (Section 4.4 of the paper).

    Handles all I/O below the threshold offset. Each file is a sequence of
    8 KB logical blocks; a per-file {e map record} — held in an on-disk map
    descriptor array indexed by fileID — gives an (offset, length) extent
    in the backing storage object for each logical block. Physical space
    is rounded up to the next power of two (an 8300-byte file consumes
    8192 + 128 bytes), allocated best-fit from free fragments or appended
    at the end of the backing object, so create-heavy workloads lay data
    out sequentially (the Bullet-server/FFS-fragments/SquidMLA lineage the
    paper cites). Map records and data share the server's buffer cache;
    commit complies with NFS V3 stability semantics. *)

type t

val attach :
  Slice_storage.Host.t ->
  ?cache_bytes:int ->
  ?backing_bytes:int64 ->
  ?threshold:int ->
  ?nsites:int ->
  ?sites:int list ->
  ?backend:Slice_disk.Bcache.backend ->
  ?trace:Slice_trace.Trace.t ->
  ?qos:Slice_qos.Wfq.t ->
  unit ->
  t
(** Serves NFS on port 2049. Default cache 1 GB (the SPECsfs
    configuration), backing object 64 GB, threshold 64 KB. [backend] is
    where zone blocks live: small-file servers are dataless managers, so
    production configurations pass a remote backend over the network
    storage array; the default uses the host's local disk (for
    standalone tests). [nsites] is the logical
    small-file site count of the volume and [sites] the sites this server
    initially owns (defaults 1 / [\[0\]]); requests whose handle hashes to
    a site not owned here bounce with [SLICE_MISDIRECTED]. *)

val crash : t -> unit
(** Fail-stop ({!Slice_storage.Tenure.crash}): the endpoint goes silent
    and the cache is cold on recovery; map records and data survive in
    the backing object. *)

val file_count : t -> int
val bytes_stored : t -> int64
(** Physical bytes allocated (after power-of-two rounding). *)

val logical_bytes : t -> int64
(** Sum of file sizes held here (below-threshold bytes). *)

val fragmentation : t -> int
(** Free-fragment count in the backing object. *)

val cache_hits : t -> int
val cache_misses : t -> int
val reads : t -> int
val writes : t -> int

val physical_size_of : int -> int
(** The power-of-two rounding rule for a block's physical footprint
    (minimum fragment 128 bytes); exposed for tests: an 8300-byte file
    occupies [physical_size_of 8192 + physical_size_of 108] = 8320. *)

(** {2 Reconfiguration hooks}

    In-process control-plane surface used by [Slice_reconfig]: logical
    small-file sites can be drained, exported, imported and rebound
    without stopping the server. *)

val tenure : t -> Slice_storage.Tenure.t
(** The server's site tenure. A drained site keeps answering reads and
    bounces writes with [SLICE_MISDIRECTED]; {!crash} clears drains, so
    an aborted migration's donor serves the site again after recovery.
    An expired lease bounces every request, so a zombie deposed by a
    takeover cannot serve stale file contents. *)

type site_image
(** A deep copy of one site's files, for migration. *)

val export_site : t -> int -> site_image
val import_site : t -> int -> site_image -> unit
val drop_site : t -> int -> unit
(** Free the site's files and forget its load. *)

val image_bytes : site_image -> int64
val site_bytes : t -> int -> int64
val host : t -> Slice_storage.Host.t
