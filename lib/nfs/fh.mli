(** NFS file handles.

    Slice directory servers "place keys in each newly minted file handle,
    allowing them to locate any resident cell if presented with an fhandle"
    — so besides the fileID and generation number, our handles embed the
    logical directory-server site holding the file's attribute cell and
    per-file policy bits (mirroring) that the µproxy's I/O routing policies
    consult. Handles are opaque 32-byte strings on the wire. *)

type ftype = Reg | Dir | Lnk

type t = {
  file_id : int64;  (** volume-unique file identifier *)
  gen : int;  (** generation number guarding against reuse *)
  ftype : ftype;
  mirrored : bool;  (** per-file mirrored-striping policy flag *)
  attr_site : int;  (** logical directory-server site of the attribute cell *)
  cap : int64;
      (** capability tag sealed in by the minting directory server when
          secure objects are enabled (see {!Cap}); 0 when unused. Ignored
          by {!equal}. *)
}

val root : t
(** The volume root directory (fileID 1, minted at logical site 0). *)

val wire_length : int
(** 32 bytes. *)

val encode : t -> string
val decode : string -> t option
(** [None] when the magic or length is wrong (a stale/garbage handle). *)

val write_into : bytes -> int -> t -> unit
(** [write_into buf off t] renders the 32 wire bytes of [t] at
    [buf.[off, off+32)]: {!encode} without the intermediate string, and
    without allocating. Routing fingerprints and storage object ids hash
    these bytes. *)

(** {2 In-place peeks}

    Allocation-free accessors over a handle's 32-byte wire span inside a
    packet buffer, for the µproxy hot path. {!peek_valid} checks length,
    magic and file-type byte; the field peeks assume it held. *)

val peek_valid : bytes -> int -> int -> bool
(** [peek_valid buf off len] — would [decode] of [buf.[off, off+len)]
    succeed? *)

val peek_file_id_int : bytes -> int -> int
(** FileID collapsed to an OCaml int (cache keys, routing); simulated
    fileIDs never reach 2^62. *)

val peek_gen : bytes -> int -> int
val peek_ftype_code : bytes -> int -> int
(** Raw wire code: 1 = Reg, 2 = Dir, 5 = Lnk. *)

val peek_mirrored : bytes -> int -> bool
val peek_attr_site : bytes -> int -> int

val read_at : bytes -> int -> t
(** The handle whose wire bytes sit at [buf.[off, off+32)]; requires
    [peek_valid buf off wire_length]. A zero [cap] is the shared [0L],
    so a handle without a capability allocates only its record and its
    [file_id]. *)

val decode_at : bytes -> int -> t option
(** Materialize a peeked span as a record (cold paths that outlive the
    packet buffer: intents, writeback, commit orchestration). *)

val equal : t -> t -> bool
