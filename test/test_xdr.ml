open Helpers
module Xdr = Slice_xdr.Xdr

(* A decoder has consumed its buffer when not even one more word fits. *)
let check_drained name d =
  Alcotest.check_raises name Xdr.Truncated (fun () -> ignore (Xdr.Dec.u32 d))

let encoded_length f =
  let e = Xdr.Enc.create () in
  f e;
  Bytes.length (Xdr.Enc.to_bytes e)

let roundtrip_primitives () =
  let e = Xdr.Enc.create () in
  Xdr.Enc.u32 e 0;
  Xdr.Enc.u32 e 0xFFFFFFFF;
  Xdr.Enc.u64 e 0x1122334455667788L;
  Xdr.Enc.bool e true;
  Xdr.Enc.bool e false;
  let d = Xdr.Dec.of_bytes (Xdr.Enc.to_bytes e) in
  check_int "u32 zero" 0 (Xdr.Dec.u32 d);
  check_int "u32 max" 0xFFFFFFFF (Xdr.Dec.u32 d);
  check_bool "u64" true (Xdr.Dec.u64 d = 0x1122334455667788L);
  check_bool "bool t" true (Xdr.Dec.bool d);
  check_bool "bool f" false (Xdr.Dec.bool d);
  check_drained "consumed all" d

let opaque_padding () =
  (* 4 len + 3 data + 1 pad *)
  check_int "padded length" 8 (encoded_length (fun e -> Xdr.Enc.opaque e "abc"));
  let e = Xdr.Enc.create () in
  Xdr.Enc.opaque e "abc";
  Xdr.Enc.opaque e "abcd" (* no pad *);
  let buf = Xdr.Enc.to_bytes e in
  check_int "aligned length" 16 (Bytes.length buf);
  let d = Xdr.Dec.of_bytes buf in
  check_string "first" "abc" (Xdr.Dec.opaque d);
  check_string "second" "abcd" (Xdr.Dec.opaque d);
  check_drained "pad skipped" d

let truncation_raises () =
  let d = Xdr.Dec.of_bytes (Bytes.create 3) in
  Alcotest.check_raises "u32 truncated" Xdr.Truncated (fun () -> ignore (Xdr.Dec.u32 d));
  let e = Xdr.Enc.create () in
  Xdr.Enc.u32 e 100 (* length prefix promising 100 bytes *);
  let d = Xdr.Dec.of_bytes (Xdr.Enc.to_bytes e) in
  Alcotest.check_raises "opaque truncated" Xdr.Truncated (fun () -> ignore (Xdr.Dec.opaque d))

let pos_advances () =
  let e = Xdr.Enc.create () in
  Xdr.Enc.u32 e 1;
  Xdr.Enc.u32 e 2;
  let d = Xdr.Dec.of_bytes (Xdr.Enc.to_bytes e) in
  check_int "first" 1 (Xdr.Dec.u32 d);
  check_int "pos" 4 (Xdr.Dec.pos d);
  check_int "second" 2 (Xdr.Dec.u32 d)

let items_counted () =
  let e = Xdr.Enc.create () in
  Xdr.Enc.u32 e 1;
  Xdr.Enc.u64 e 2L;
  Xdr.Enc.str e "hello";
  let d = Xdr.Dec.of_bytes (Xdr.Enc.to_bytes e) in
  ignore (Xdr.Dec.u32 d);
  ignore (Xdr.Dec.u64 d);
  ignore (Xdr.Dec.str d);
  (* str = length word + fixed body = 2 items *)
  check_int "items" 4 (Xdr.Dec.items_read d)

let gen_value =
  QCheck2.Gen.(
    oneof
      [
        map (fun n -> `U32 (n land 0xFFFFFFFF)) int;
        map (fun n -> `U64 n) (map Int64.of_int int);
        map (fun s -> `Str s) (string_size (int_range 0 50));
        map (fun b -> `Bool b) bool;
      ])

let roundtrip_sequences =
  qtest "sequences roundtrip" QCheck2.Gen.(list gen_value) (fun vs ->
      let e = Xdr.Enc.create () in
      List.iter
        (function
          | `U32 n -> Xdr.Enc.u32 e n
          | `U64 n -> Xdr.Enc.u64 e n
          | `Str s -> Xdr.Enc.str e s
          | `Bool b -> Xdr.Enc.bool e b)
        vs;
      let d = Xdr.Dec.of_bytes (Xdr.Enc.to_bytes e) in
      List.for_all
        (function
          | `U32 n -> Xdr.Dec.u32 d = n
          | `U64 n -> Xdr.Dec.u64 d = n
          | `Str s -> Xdr.Dec.str d = s
          | `Bool b -> Xdr.Dec.bool d = b)
        vs
      && match Xdr.Dec.u32 d with _ -> false | exception Xdr.Truncated -> true)

let alignment_invariant =
  qtest "encoded length is 4-aligned" QCheck2.Gen.(string_size (int_range 0 64)) (fun s ->
      let n = encoded_length (fun e -> Xdr.Enc.opaque e s) in
      n mod 4 = 0 && n - 4 - String.length s < 4)

let span_peeks_match_materializing () =
  let e = Xdr.Enc.create () in
  Xdr.Enc.opaque e "hello-world";
  Xdr.Enc.opaque e "abcd";
  Xdr.Enc.u32 e 7;
  let buf = Xdr.Enc.to_bytes e in
  let d = Xdr.Dec.of_bytes buf in
  Xdr.Dec.opaque_span d;
  check_string "padded span bytes" "hello-world"
    (Bytes.sub_string buf (Xdr.Dec.span_off d) (Xdr.Dec.span_len d));
  Xdr.Dec.opaque_span d;
  check_string "aligned span bytes" "abcd"
    (Bytes.sub_string buf (Xdr.Dec.span_off d) (Xdr.Dec.span_len d));
  check_int "trailing word still readable" 7 (Xdr.Dec.u32 d);
  (* item accounting matches the materializing reads *)
  let d2 = Xdr.Dec.of_bytes buf in
  ignore (Xdr.Dec.opaque d2);
  ignore (Xdr.Dec.opaque d2);
  ignore (Xdr.Dec.u32 d2);
  let d3 = Xdr.Dec.of_bytes buf in
  Xdr.Dec.opaque_span d3;
  Xdr.Dec.opaque_span d3;
  ignore (Xdr.Dec.u32 d3);
  check_int "span items = materializing items" (Xdr.Dec.items_read d2) (Xdr.Dec.items_read d3)

let reset_reuses_decoder () =
  let mk s =
    let e = Xdr.Enc.create () in
    Xdr.Enc.opaque e s;
    Xdr.Enc.to_bytes e
  in
  let b1 = mk "first" and b2 = mk "second-buffer" in
  let d = Xdr.Dec.of_bytes b1 in
  Xdr.Dec.opaque_span d;
  Xdr.Dec.reset d b2 ~pos:0 ~len:(Bytes.length b2);
  check_int "pos cleared" 0 (Xdr.Dec.pos d);
  check_int "items cleared" 0 (Xdr.Dec.items_read d);
  Xdr.Dec.opaque_span d;
  check_string "rebinds to the new buffer" "second-buffer"
    (Bytes.sub_string b2 (Xdr.Dec.span_off d) (Xdr.Dec.span_len d))

(* Span reads must bounds-check before touching memory: any random
   buffer either yields an in-bounds span or raises Truncated — never an
   out-of-bounds access (which would surface as Invalid_argument). The
   framed case puts a small length field before the random bytes, so
   lengths just past the end are exercised as well as huge ones. *)
let span_bounds_fuzz =
  qtest "span peeks never read out of bounds"
    QCheck2.Gen.(pair (string_size (int_range 0 64)) (int_range 0 72))
    (fun (raw, n) ->
      let ok buf =
        let len = Bytes.length buf in
        let d = Xdr.Dec.of_bytes buf in
        match Xdr.Dec.opaque_span d with
        | () -> Xdr.Dec.span_off d >= 0 && Xdr.Dec.span_off d + Xdr.Dec.span_len d <= len
        | exception Xdr.Truncated -> true
      in
      let framed = Bytes.make 4 '\000' in
      Bytes.set_int32_be framed 0 (Int32.of_int n);
      ok (Bytes.of_string raw) && ok (Bytes.cat framed (Bytes.of_string raw)))

let u64_int_matches_u64 =
  qtest "u64_int agrees with u64 on simulation-range values"
    QCheck2.Gen.(int_range 0 max_int)
    (fun v ->
      let e = Xdr.Enc.create () in
      Xdr.Enc.u64 e (Int64.of_int v);
      let d = Xdr.Dec.of_bytes (Xdr.Enc.to_bytes e) in
      Xdr.Dec.u64_int d = v)

(* ---- the shared scratch buffer ---- *)

(* One message built inside another: the inner encoder gets its own
   buffer, so neither overwrites the other; a finished encoder refuses
   further writes. *)
let nested_encoders () =
  let outer = Xdr.Enc.create () in
  Xdr.Enc.u32 outer 1;
  let inner = Xdr.Enc.create () in
  Xdr.Enc.str inner "inner";
  Xdr.Enc.u32 outer 2;
  let ib = Xdr.Enc.to_bytes inner in
  Xdr.Enc.u32 outer 3;
  let d = Xdr.Dec.of_bytes (Xdr.Enc.to_bytes outer) in
  List.iter (fun v -> check_int "outer word" v (Xdr.Dec.u32 d)) [ 1; 2; 3 ];
  check_drained "outer consumed" d;
  check_string "inner" "inner" (Xdr.Dec.str (Xdr.Dec.of_bytes ib));
  Alcotest.check_raises "write after to_bytes" (Invalid_argument "Xdr.Enc: write after to_bytes")
    (fun () -> Xdr.Enc.u32 outer 4)

(* [build] lends one encoder: a build nested in another writes its own
   bytes, each build returns exactly what it wrote, and the encoder
   refuses writes once its build has returned, as a finished one does. *)
let build_lends_a_finished_encoder () =
  let kept = ref None in
  let inner = ref Bytes.empty in
  let outer =
    Xdr.Enc.build
      (fun e a b ->
        kept := Some e;
        Xdr.Enc.u32 e a;
        inner := Xdr.Enc.build (fun e s () -> Xdr.Enc.str e s) "inner" ();
        Xdr.Enc.u32 e b)
      1 2
  in
  let d = Xdr.Dec.of_bytes outer in
  List.iter (fun v -> check_int "outer word" v (Xdr.Dec.u32 d)) [ 1; 2 ];
  check_drained "outer consumed" d;
  check_string "inner" "inner" (Xdr.Dec.str (Xdr.Dec.of_bytes !inner));
  (match !kept with
  | Some e ->
      Alcotest.check_raises "write after the build" (Invalid_argument "Xdr.Enc: write after to_bytes")
        (fun () -> Xdr.Enc.u32 e 3)
  | None -> Alcotest.fail "build never ran its writer");
  let again = Xdr.Enc.build (fun e v () -> Xdr.Enc.u32 e v) 7 () in
  check_int "the next build writes afresh" 4 (Bytes.length again)

let opaque_with_matches_opaque =
  qtest "opaque_with has opaque's wire form" QCheck2.Gen.(string_size (int_range 0 40)) (fun s ->
      let a = Xdr.Enc.create () in
      Xdr.Enc.opaque a s;
      let a = Xdr.Enc.to_bytes a in
      let b = Xdr.Enc.create () in
      Xdr.Enc.opaque_with b (String.length s)
        (fun buf off s -> Bytes.blit_string s 0 buf off (String.length s))
        s;
      Bytes.equal a (Xdr.Enc.to_bytes b))

let fill4 b off c = Bytes.fill b off 4 c

(* After warm-up the primitives write into the reused scratch without
   allocating: the copy [to_bytes] returns is an encode's only
   allocation. Any per-call allocation would show as thousands of words. *)
let enc_primitives_allocate_nothing () =
  let write_all e =
    for _ = 1 to 256 do
      Xdr.Enc.u32 e 0xDEADBEEF;
      Xdr.Enc.u64 e 0x1122334455667788L;
      Xdr.Enc.bool e true;
      Xdr.Enc.opaque e "hello";
      Xdr.Enc.str e "name";
      Xdr.Enc.opaque_with e 4 fill4 'x'
    done
  in
  let warm = Xdr.Enc.create () in
  write_all warm;
  ignore (Xdr.Enc.to_bytes warm);
  let e = Xdr.Enc.create () in
  let w0 = Gc.minor_words () in
  write_all e;
  let dw = Gc.minor_words () -. w0 in
  ignore (Xdr.Enc.to_bytes e);
  check_bool (Printf.sprintf "1536 primitive calls allocated %.0f words" dw) true (dw < 8.0)

let suite =
  [
    ("roundtrip primitives", `Quick, roundtrip_primitives);
    ("opaque padding", `Quick, opaque_padding);
    ("truncation raises", `Quick, truncation_raises);
    ("pos advances", `Quick, pos_advances);
    ("items counted", `Quick, items_counted);
    ("span peeks match materializing", `Quick, span_peeks_match_materializing);
    ("decoder reset reuse", `Quick, reset_reuses_decoder);
    roundtrip_sequences;
    alignment_invariant;
    span_bounds_fuzz;
    u64_int_matches_u64;
    ("nested encoders", `Quick, nested_encoders);
    ("build lends a finished encoder", `Quick, build_lends_a_finished_encoder);
    opaque_with_matches_opaque;
    ("encoder primitives allocate nothing", `Quick, enc_primitives_allocate_nothing);
  ]
