(** 16-bit ones-complement transport checksum, with the incremental-update
    arithmetic (RFC 1624) the µproxy uses when it rewrites address/port
    fields or patches attribute words: cost proportional to the bytes
    modified, independent of packet size — the property the paper's
    differential checksum code (derived from FreeBSD NAT) relies on. *)

val compute : Packet.t -> int
(** Full checksum over pseudo-header (src, dst, ports, length) and
    payload. *)

val verify : Packet.t -> bool
(** Endpoints verify on receipt; a µproxy bug that forgets to adjust the
    checksum surfaces here. *)

val rewrite_src : Packet.t -> Packet.addr -> unit
(** Replace the source address, adjusting the checksum incrementally. *)

val rewrite_dst : Packet.t -> Packet.addr -> unit

val patch_payload_bytes : Packet.t -> off:int -> bytes -> spos:int -> len:int -> unit
(** [patch_payload_bytes p ~off src ~spos ~len] overwrites payload bytes
    at [off] (which must be even, as all XDR field offsets are) with
    [src.[spos, spos+len)], adjusting the checksum word-by-word. The
    µproxy writes field values into a per-instance scratch buffer and
    patches from it, keeping the rewrite path free of string allocation.
    Raises [Invalid_argument] if out of range or misaligned. *)
