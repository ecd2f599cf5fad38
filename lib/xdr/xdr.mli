(** XDR-style (RFC 4506) wire encoding: big-endian 4-byte units, variable
    opaques padded to 4-byte alignment. The NFS codec builds on this, and
    the µproxy's packet-decode cost model charges per XDR item consumed. *)

exception Truncated
(** Raised by decoders reading past the end of the buffer. *)

module Enc : sig
  type t

  val create : ?size:int -> unit -> t
  (** Claim the process-wide scratch buffer, reused from message to
      message so a warmed-up encode allocates only {!to_bytes}'s copy.
      While another encoder holds it (one message built inside another,
      or an encoder never finished), the new one gets a private buffer of
      [size] bytes (default 256). *)

  val length : t -> int

  val u32 : t -> int -> unit
  (** Unsigned 32-bit, value in [0, 2^32). Values are handled as OCaml
      ints; out-of-range values are masked. *)

  val i32 : t -> int32 -> unit
  val u64 : t -> int64 -> unit
  val bool : t -> bool -> unit
  val enum : t -> int -> unit

  val opaque_fixed : t -> string -> unit
  (** Raw bytes, padded to 4-byte alignment, no length prefix. *)

  val opaque : t -> string -> unit
  (** Length-prefixed variable opaque, padded. *)

  val opaque_with : t -> int -> (bytes -> int -> 'a -> unit) -> 'a -> unit
  (** [opaque_with t n write v] encodes a length-prefixed opaque of exactly
      [n] bytes that [write buf off v] renders in place at
      [buf.[off, off+n)], padded: [opaque]'s wire form without the
      intermediate string. *)

  val str : t -> string -> unit
  (** XDR string (same wire form as variable opaque). *)

  val to_bytes : t -> bytes
  (** A fresh copy of the encoded contents. This finishes the encoder:
      it releases the shared scratch buffer (see {!create}), and a later
      write raises [Invalid_argument]. *)
end

module Dec : sig
  type t

  val of_bytes : ?pos:int -> ?len:int -> bytes -> t

  val reset : t -> bytes -> pos:int -> len:int -> unit
  (** Rebind an existing decoder to [buf.[pos, pos+len)] and clear the
      item and span state. Lets a long-lived cursor be reused across
      packets without allocating a decoder per packet. *)

  val pos : t -> int
  val remaining : t -> int
  val skip : t -> int -> unit

  val u32 : t -> int
  val i32 : t -> int32
  val u64 : t -> int64

  val u64_int : t -> int
  (** Unsigned 64-bit read collapsed into an OCaml int without boxing the
      intermediate [int64]. Wire values ≥ 2^62 wrap; simulated offsets
      and cookies never reach that range. *)

  val bool : t -> bool
  val enum : t -> int

  val opaque_fixed : t -> int -> string
  val opaque : t -> string
  val str : t -> string

  (** {2 Cursor peeks}

      The allocation-free alternative to {!opaque}/{!opaque_fixed}: the
      opaque's position and length are recorded in the decoder instead of
      being copied out, and {!span_off}/{!span_len} expose them so callers
      compare names and handles in place against the packet buffer.
      Bounds are enforced exactly as for the materializing reads — a
      truncated buffer or an oversized length field raises {!Truncated}
      before any out-of-bounds access. *)

  val opaque_span : t -> unit
  (** Consume a length-prefixed variable opaque, recording its span. *)

  val opaque_fixed_span : t -> int -> unit
  (** Consume an [n]-byte fixed opaque (plus padding), recording its span.
      Raises {!Truncated} on a negative [n]. *)

  val span_off : t -> int
  (** Offset (into the underlying buffer) of the last opaque span. *)

  val span_len : t -> int
  (** Length of the last opaque span. *)

  val items_read : t -> int
  (** Number of primitive XDR items consumed so far — the µproxy charges
      decode CPU per item, reproducing the paper's observation that
      variable-length RPC/NFS header fields dominate µproxy cost. *)
end
