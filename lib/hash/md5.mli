(** MD5 message digest, implemented from RFC 1321.

    The paper's µproxy routes name-space requests by an MD5 fingerprint of
    the parent file handle and name component ("we determined empirically
    that MD5 yields a combination of balanced distribution and low cost
    superior to competing hash functions"). We implement MD5 in-repo so the
    routing behaviour matches the paper without external dependencies.

    This is used for request routing and content fingerprints, not for
    security; MD5's known cryptographic weaknesses are irrelevant here. *)

val digest : string -> string
(** [digest msg] is the raw 16-byte MD5 digest of [msg]. *)

val digest_bytes : bytes -> pos:int -> len:int -> string
(** Digest of a subrange of a byte buffer. *)

val to_hex : string -> string
(** Lowercase hex rendering of a raw digest. *)

val hex : string -> string
(** [hex msg] is [to_hex (digest msg)]. *)

val fold64 : string -> int64
(** First 8 digest bytes folded to a little-endian [int64]; the routing
    fingerprint used by the µproxy's hash-based policies. *)

val fold64_bytes : bytes -> pos:int -> len:int -> int64
(** [fold64] of [buf.[pos, pos+len)], digested in place: only the
    result is allocated. *)

val bucket : string -> int -> int
(** [bucket msg n] maps [msg] uniformly onto [\[0, n)] via [fold64]. *)

val bucket_bytes : bytes -> pos:int -> len:int -> int -> int
(** [bucket_bytes buf ~pos ~len n] is [bucket] of [buf.[pos, pos+len)]
    without materializing the key: the digest runs over the buffer in
    place and allocates nothing, so routing hashes can be computed
    directly from a packet's payload bytes on the µproxy hot path.
    Produces exactly the same bucket as {!bucket} on the same bytes. *)
