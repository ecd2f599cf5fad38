exception Truncated

let[@hot] pad_len n = (4 - (n land 3)) land 3

(* Unchecked big-endian stores: callers reserve the room first, and the
   int32/int64 argument goes straight into the primitive, so it is never
   boxed. *)
external set32u : bytes -> int -> int32 -> unit = "%caml_bytes_set32u"
external set64u : bytes -> int -> int64 -> unit = "%caml_bytes_set64u"
external bswap32 : int32 -> int32 = "%bswap_int32"
external bswap64 : int64 -> int64 = "%bswap_int64"

module Enc = struct
  (* Messages are encoded one at a time and copied out by [to_bytes], so
     one process-wide scratch buffer serves every encoder: [create] claims
     it and [to_bytes] releases it. An encoder created while the scratch
     is claimed (one message built inside another) gets a private buffer
     instead. The scratch grows by doubling and is never shrunk, so a
     warmed-up encode allocates only the result of [to_bytes]. *)
  type t = { mutable buf : bytes; mutable len : int; mutable shared : bool }

  let scratch = ref (Bytes.create 1024)
  let claimed = ref false

  let create ?(size = 256) () =
    if !claimed then { buf = Bytes.create (max size 16); len = 0; shared = false }
    else begin
      claimed := true;
      { buf = !scratch; len = 0; shared = true }
    end

  let length t = t.len

  (* A finished encoder holds an empty buffer with a positive length, so a
     write after [to_bytes] lands here and is refused. *)
  let grow t n =
    if Bytes.length t.buf = 0 && t.len > 0 then invalid_arg "Xdr.Enc: write after to_bytes";
    let cap = ref (max 16 (2 * Bytes.length t.buf)) in
    while !cap < t.len + n do
      cap := 2 * !cap
    done;
    let nb = Bytes.create !cap in
    Bytes.blit t.buf 0 nb 0 t.len;
    t.buf <- nb;
    if t.shared then scratch := nb

  let[@inline] reserve t n = if t.len + n > Bytes.length t.buf then grow t n

  let u32 t v =
    reserve t 4;
    if Sys.big_endian then set32u t.buf t.len (Int32.of_int v)
    else set32u t.buf t.len (bswap32 (Int32.of_int v));
    t.len <- t.len + 4

  let i32 t v =
    reserve t 4;
    if Sys.big_endian then set32u t.buf t.len v else set32u t.buf t.len (bswap32 v);
    t.len <- t.len + 4

  let u64 t v =
    reserve t 8;
    if Sys.big_endian then set64u t.buf t.len v else set64u t.buf t.len (bswap64 v);
    t.len <- t.len + 8

  let bool t b = u32 t (if b then 1 else 0)
  let enum t v = u32 t v

  (* The scratch holds earlier messages' bytes: padding is written, not
     assumed. *)
  let zero_pad t n =
    let p = pad_len n in
    Bytes.unsafe_fill t.buf t.len p '\000';
    t.len <- t.len + p

  let opaque_fixed t s =
    let n = String.length s in
    reserve t (n + 3);
    Bytes.unsafe_blit_string s 0 t.buf t.len n;
    t.len <- t.len + n;
    zero_pad t n

  let opaque t s =
    u32 t (String.length s);
    opaque_fixed t s

  let opaque_with t n write v =
    u32 t n;
    reserve t (n + 3);
    write t.buf t.len v;
    t.len <- t.len + n;
    zero_pad t n

  let str = opaque

  let to_bytes t =
    let out = Bytes.sub t.buf 0 t.len in
    if t.shared then begin
      claimed := false;
      t.shared <- false
    end;
    t.buf <- Bytes.empty;
    out
end

module Dec = struct
  type t = {
    mutable buf : bytes;
    mutable limit : int;
    mutable p : int;
    mutable items : int;
    (* cursor span: position/length of the last opaque consumed by
       [opaque_span] / [opaque_fixed_span] — offsets into [buf], so the
       caller can compare names and handles in place instead of
       materializing strings (the allocation-free peek path) *)
    mutable sp_off : int;
    mutable sp_len : int;
  }

  let of_bytes ?(pos = 0) ?len buf =
    let limit = match len with Some l -> pos + l | None -> Bytes.length buf in
    if pos < 0 || limit > Bytes.length buf then invalid_arg "Xdr.Dec.of_bytes";
    { buf; limit; p = pos; items = 0; sp_off = 0; sp_len = 0 }

  (* Rebind a decoder to a new buffer without allocating a fresh record:
     the µproxy keeps one cursor per instance and resets it per packet. *)
  let reset t buf ~pos ~len =
    let limit = pos + len in
    if pos < 0 || len < 0 || limit > Bytes.length buf then invalid_arg "Xdr.Dec.reset";
    t.buf <- buf;
    t.limit <- limit;
    t.p <- pos;
    t.items <- 0;
    t.sp_off <- 0;
    t.sp_len <- 0

  let[@hot] pos t = t.p
  let[@hot] remaining t = t.limit - t.p

  let[@hot] need t n = if t.p + n > t.limit then raise Truncated

  let[@hot] skip t n =
    need t n;
    t.p <- t.p + n

  (* The int32 read feeds Int32.to_int directly so it stays unboxed;
     let-binding it would box on every call (A1). *)
  let[@hot] u32 t =
    need t 4;
    let p = t.p in
    t.p <- p + 4;
    t.items <- t.items + 1;
    Int32.to_int (Bytes.get_int32_be t.buf p) land 0xFFFFFFFF

  let i32 t =
    need t 4;
    let v = Bytes.get_int32_be t.buf t.p in
    t.p <- t.p + 4;
    t.items <- t.items + 1;
    v

  let u64 t =
    need t 8;
    let v = Bytes.get_int64_be t.buf t.p in
    t.p <- t.p + 8;
    t.items <- t.items + 1;
    v

  let[@hot] bool t = u32 t <> 0
  let[@hot] enum t = u32 t

  (* The u64 read feeds Int64.to_int directly so it stays unboxed (A1);
     wire values above 2^62 wrap into the int domain, which the routing
     arithmetic tolerates (simulated offsets and cookies are small). *)
  let[@hot] u64_int t =
    need t 8;
    let p = t.p in
    t.p <- p + 8;
    t.items <- t.items + 1;
    Int64.to_int (Bytes.get_int64_be t.buf p)

  let opaque_fixed t n =
    need t (n + pad_len n);
    let s = Bytes.sub_string t.buf t.p n in
    t.p <- t.p + n + pad_len n;
    t.items <- t.items + 1;
    s

  let opaque t =
    let n = u32 t in
    opaque_fixed t n

  let str = opaque

  (* ---- cursor peeks: record (offset, length) instead of materializing.
     [n] comes off the wire, so [need] is the out-of-bounds guard for both
     truncated buffers and oversized length fields. *)

  let[@hot] opaque_fixed_span t n =
    if n < 0 then raise Truncated;
    need t (n + pad_len n);
    t.sp_off <- t.p;
    t.sp_len <- n;
    t.p <- t.p + n + pad_len n;
    t.items <- t.items + 1

  let[@hot] opaque_span t =
    let n = u32 t in
    opaque_fixed_span t n

  let[@hot] span_off t = t.sp_off
  let[@hot] span_len t = t.sp_len
  let[@hot] items_read t = t.items
end
