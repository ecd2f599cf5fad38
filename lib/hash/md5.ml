(* RFC 1321. The sine-derived constants are computed at module init:
   T[i] = floor(2^32 * abs(sin(i+1))), which avoids transcribing 64 magic
   numbers and is bit-exact because sin is correctly rounded well within
   the 32 bits we keep.

   The core runs on plain OCaml ints masked to 32 bits rather than boxed
   [int32]s: the µproxy fingerprints a routing key per name-space packet,
   so the digest sits on the allocation-free hot path. All scratch state
   (the 16-word message schedule, the padded tail block, and the running
   digest words) is preallocated at module init and reused, the round
   loop avoids tuples and refs, and the tail length is written as single
   bytes — digesting an in-buffer key allocates nothing. The simulator is
   single-domain, so the shared scratch needs no locking. *)

let m32 = 0xFFFFFFFF

let t_const =
  Array.init 64 (fun i ->
      let v = Float.abs (sin (float_of_int (i + 1))) *. 4294967296.0 in
      Int64.to_int (Int64.of_float v) land m32)

let shifts =
  [|
    7; 12; 17; 22; 7; 12; 17; 22; 7; 12; 17; 22; 7; 12; 17; 22;
    5; 9; 14; 20; 5; 9; 14; 20; 5; 9; 14; 20; 5; 9; 14; 20;
    4; 11; 16; 23; 4; 11; 16; 23; 4; 11; 16; 23; 4; 11; 16; 23;
    6; 10; 15; 21; 6; 10; 15; 21; 6; 10; 15; 21; 6; 10; 15; 21;
  |]

let rotl32 x s = ((x lsl s) lor (x lsr (32 - s))) land m32

type state = { mutable a : int; mutable b : int; mutable c : int; mutable d : int }

(* Reused scratch: one digest runs at a time (single-domain simulator).
   [st] holds the running digest, [w] the per-block working words. *)
let st = { a = 0; b = 0; c = 0; d = 0 }
let w = { a = 0; b = 0; c = 0; d = 0 }
let msg_words = Array.make 16 0
let tail_buf = Bytes.make 128 '\000'

let process_block block off =
  for j = 0 to 15 do
    msg_words.(j) <- Int32.to_int (Bytes.get_int32_le block (off + (4 * j))) land m32
  done;
  w.a <- st.a;
  w.b <- st.b;
  w.c <- st.c;
  w.d <- st.d;
  for i = 0 to 63 do
    let f =
      if i < 16 then (w.b land w.c) lor (lnot w.b land w.d)
      else if i < 32 then (w.d land w.b) lor (lnot w.d land w.c)
      else if i < 48 then w.b lxor w.c lxor w.d
      else w.c lxor ((w.b lor (lnot w.d land m32)) land m32)
    in
    let g =
      if i < 16 then i
      else if i < 32 then ((5 * i) + 1) mod 16
      else if i < 48 then ((3 * i) + 5) mod 16
      else 7 * i mod 16
    in
    let sum = (f + w.a + t_const.(i) + msg_words.(g)) land m32 in
    let nb = (w.b + rotl32 sum shifts.(i)) land m32 in
    let na = w.d in
    w.d <- w.c;
    w.c <- w.b;
    w.b <- nb;
    w.a <- na
  done;
  st.a <- (st.a + w.a) land m32;
  st.b <- (st.b + w.b) land m32;
  st.c <- (st.c + w.c) land m32;
  st.d <- (st.d + w.d) land m32

(* Full MD5 over buf.[pos, pos+len), leaving the digest words in [st].
   Allocation-free: the tail block reuses [tail_buf] and the 64-bit
   little-endian bit length is stored byte by byte (no boxed int64). *)
let run buf ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Bytes.length buf then invalid_arg "Md5.digest_bytes";
  st.a <- 0x67452301;
  st.b <- 0xefcdab89;
  st.c <- 0x98badcfe;
  st.d <- 0x10325476;
  let full_blocks = len / 64 in
  for i = 0 to full_blocks - 1 do
    process_block buf (pos + (64 * i))
  done;
  (* Tail: remaining bytes + 0x80 + zero pad + 64-bit little-endian bit length. *)
  let rem = len - (64 * full_blocks) in
  let tail_len = if rem + 9 <= 64 then 64 else 128 in
  Bytes.fill tail_buf 0 tail_len '\000';
  Bytes.blit buf (pos + (64 * full_blocks)) tail_buf 0 rem;
  Bytes.set tail_buf rem '\x80';
  let bits = len * 8 in
  for j = 0 to 7 do
    Bytes.set_uint8 tail_buf (tail_len - 8 + j) ((bits lsr (8 * j)) land 0xFF)
  done;
  process_block tail_buf 0;
  if tail_len = 128 then process_block tail_buf 64

let digest_bytes buf ~pos ~len =
  run buf ~pos ~len;
  let out = Bytes.create 16 in
  Bytes.set_int32_le out 0 (Int32.of_int st.a);
  Bytes.set_int32_le out 4 (Int32.of_int st.b);
  Bytes.set_int32_le out 8 (Int32.of_int st.c);
  Bytes.set_int32_le out 12 (Int32.of_int st.d);
  Bytes.unsafe_to_string out

let digest msg = digest_bytes (Bytes.unsafe_of_string msg) ~pos:0 ~len:(String.length msg)

let to_hex raw =
  let b = Buffer.create 32 in
  String.iter (fun ch -> Buffer.add_string b (Printf.sprintf "%02x" (Char.code ch))) raw;
  Buffer.contents b

let hex msg = to_hex (digest msg)

let fold64_bytes buf ~pos ~len =
  run buf ~pos ~len;
  Int64.logor (Int64.shift_left (Int64.of_int st.b) 32) (Int64.of_int st.a)

let fold64 msg = fold64_bytes (Bytes.unsafe_of_string msg) ~pos:0 ~len:(String.length msg)

(* [fold64] is (b << 32) | a of the digest state, and the bucket is
   ((fold64 >>> 1) mod n). The shifted value is b·2^31 + (a >>> 1), which
   overflows a 63-bit int for b ≥ 2^31, so the remainder is taken
   modularly over the halves: ((b mod n)·(2^31 mod n) + (a>>>1) mod n)
   mod n — exact for every digest and every positive n below 2^31. *)
let bucket_of_state n =
  let hi = st.b mod n * ((1 lsl 31) mod n) mod n in
  (hi + (st.a lsr 1 mod n)) mod n

let bucket msg n =
  if n <= 0 then invalid_arg "Md5.bucket: n must be positive";
  run (Bytes.unsafe_of_string msg) ~pos:0 ~len:(String.length msg);
  bucket_of_state n

let bucket_bytes buf ~pos ~len n =
  if n <= 0 then invalid_arg "Md5.bucket_bytes: n must be positive";
  run buf ~pos ~len;
  bucket_of_state n
