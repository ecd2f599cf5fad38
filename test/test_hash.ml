open Helpers
module Md5 = Slice_hash.Md5
module Fnv = Slice_hash.Fnv
module Crc32 = Slice_hash.Crc32

(* RFC 1321 appendix test suite. *)
let md5_rfc_vectors () =
  let cases =
    [
      ("", "d41d8cd98f00b204e9800998ecf8427e");
      ("a", "0cc175b9c0f1b6a831c399e269772661");
      ("abc", "900150983cd24fb0d6963f7d28e17f72");
      ("message digest", "f96b697d7cb7938d525a2f31aaf161d0");
      ("abcdefghijklmnopqrstuvwxyz", "c3fcd3d76192e4007dfb496cca67e13b");
      ( "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789",
        "d174ab98d277d9f5a5611c2c9f419d9f" );
      ( "12345678901234567890123456789012345678901234567890123456789012345678901234567890",
        "57edf4a22be3c955ac49da2e2107b67a" );
    ]
  in
  List.iter (fun (msg, hex) -> check_string msg hex (Md5.hex msg)) cases

let md5_block_boundaries () =
  (* lengths around the 55/56/64-byte padding boundaries *)
  List.iter
    (fun n ->
      let s = String.make n 'x' in
      check_int (Printf.sprintf "digest len at %d" n) 16 (String.length (Md5.digest s)))
    [ 0; 1; 54; 55; 56; 57; 63; 64; 65; 119; 120; 128; 1000 ]

let md5_subrange () =
  let buf = Bytes.of_string "xxabcyy" in
  check_string "subrange = digest of slice" (Md5.hex "abc")
    (Md5.to_hex (Md5.digest_bytes buf ~pos:2 ~len:3))

let md5_deterministic =
  qtest "md5 deterministic & 16 bytes" QCheck2.Gen.string (fun s ->
      let d1 = Md5.digest s and d2 = Md5.digest s in
      d1 = d2 && String.length d1 = 16)

let md5_bucket_range =
  qtest "bucket in range" QCheck2.Gen.(pair string (int_range 1 64)) (fun (s, n) ->
      let b = Md5.bucket s n in
      b >= 0 && b < n)

let md5_balance () =
  (* the paper chose MD5 for balanced request distribution: hashing many
     distinct keys over 8 buckets should be near-uniform *)
  let n = 8 and keys = 16_000 in
  let counts = Array.make n 0 in
  for i = 1 to keys do
    let b = Md5.bucket (Printf.sprintf "fh-%d/name-%d" i (i * 17)) n in
    counts.(b) <- counts.(b) + 1
  done;
  let expect = keys / n in
  Array.iteri
    (fun i c ->
      check_bool (Printf.sprintf "bucket %d near uniform (%d)" i c) true
        (abs (c - expect) < expect / 4))
    counts

let fnv_known () =
  (* standard FNV-1a 64 test values *)
  check_bool "empty" true (Fnv.hash "" = 0xcbf29ce484222325L);
  check_bool "a" true (Fnv.hash "a" = 0xaf63dc4c8601ec8cL)

let fnv_bucket_range =
  qtest "fnv bucket in range" QCheck2.Gen.(pair string (int_range 1 64)) (fun (s, n) ->
      let b = Fnv.bucket s n in
      b >= 0 && b < n)

let crc32_vectors () =
  (* standard zlib crc32 check values *)
  let crc s = Crc32.bytes (Bytes.of_string s) ~pos:0 ~len:(String.length s) in
  check_bool "123456789" true (crc "123456789" = 0xCBF43926l);
  check_bool "empty" true (crc "" = 0l);
  check_bool "abc" true (crc "abc" = 0x352441C2l)

let crc32_detects_flip =
  qtest "crc32 detects single-byte flips"
    QCheck2.Gen.(string_size (int_range 1 200))
    (fun s ->
      let b = Bytes.of_string s in
      let c1 = Crc32.bytes b ~pos:0 ~len:(Bytes.length b) in
      let i = String.length s / 2 in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x5A));
      let c2 = Crc32.bytes b ~pos:0 ~len:(Bytes.length b) in
      c1 <> c2)

let suite =
  [
    ("md5 RFC vectors", `Quick, md5_rfc_vectors);
    ("md5 block boundaries", `Quick, md5_block_boundaries);
    ("md5 subrange", `Quick, md5_subrange);
    md5_deterministic;
    md5_bucket_range;
    ("md5 balance over sites", `Quick, md5_balance);
    ("fnv known values", `Quick, fnv_known);
    fnv_bucket_range;
    ("crc32 vectors", `Quick, crc32_vectors);
    crc32_detects_flip;
  ]
