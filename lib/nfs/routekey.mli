(** Routing fingerprints shared by the µproxy and the servers.

    Both sides must agree bit-for-bit on how requests map to logical
    sites — the µproxy to route, the servers to detect misdirected
    requests — so the functions live here, beside the protocol. All are
    MD5-based (the hash the paper selected for balance and cost). *)

type name_policy =
  | Mkdir_switching
      (** a directory's entries live at its attribute cell's site; a new
          directory lands on another site with probability p *)
  | Name_hashing  (** each entry lives at {!name_site} of (parent, name) *)
(** Where name entries live (Section 4.3). The µproxy routes by it and
    the directory servers place cells by it. *)

val name_site : nsites:int -> Fh.t -> string -> int
(** Logical site of the name entry (parent handle, name) under the
    name-hashing policy, and the redirection target of mkdir switching. *)

val file_site : nsites:int -> Fh.t -> int
(** Logical site keyed by the file handle: small-file server selection
    and the primary stripe site of bulk I/O. *)

val mirror_sites : nsites:int -> Fh.t -> int * int
(** Two replica sites for a mirrored file (distinct when [nsites > 1]). *)

(** {2 In-place variants}

    The same fingerprints computed directly over handle/name spans inside
    a packet buffer, plus plain-int offset arithmetic — the µproxy's
    allocation-free routing entry points. Each site function agrees
    bit-for-bit with its materializing twin above (test-enforced):
    servers detect misdirected requests with the string versions. *)

val file_site_at : nsites:int -> bytes -> off:int -> int
(** {!file_site} of the 32-byte handle span at [off]. *)

val name_site_at :
  nsites:int -> scratch:bytes -> bytes -> fh_off:int -> name_off:int -> name_len:int -> int
(** {!name_site} of the handle span at [fh_off] and name span at
    [name_off]; [scratch] must hold at least [33 + name_len] bytes (the
    caller owns and sizes it off the hot path). *)

val chunk_of_offset_int : stripe_unit:int -> int -> int
(** Stripe chunk index containing a byte offset. *)

val stripe_site_at : nsites:int -> stripe_unit:int -> bytes -> off:int -> int -> int
(** Storage site of the chunk holding a byte offset under static
    striping, for the handle span at [off]: the file's primary site
    ({!file_site_at}) rotated by the chunk index. *)

val local_offset_int : nsites:int -> stripe_unit:int -> int -> int
(** Node-local byte offset for a striped chunk: each node stores its
    every-Nth chunks densely, so its prefetcher sees a sequential
    stream. *)

val mirror_partner : nsites:int -> int -> int
(** Second replica site given the primary ({!file_site_at}); pairs with
    it to give exactly {!mirror_sites} without the tuple. *)

(** {2 Site-offset codec} *)

val site_stride_int : int
(** Offset-space stride (2^40) separating logical storage sites within
    one object: the µproxy rewrites bulk-I/O offsets to
    [site * site_stride_int + local], and the storage node decodes the
    pair — so several logical sites can share (or migrate between)
    physical nodes without colliding in an object's offset space. *)

val site_offset_int : site:int -> int -> int
(** Compose a wire offset from a logical site and a node-local offset. *)

val offset_site_int : int -> int
(** The logical site encoded in a wire offset (0 for plain offsets). *)

val offset_local_int : int -> int
(** The node-local offset encoded in a wire offset. *)
