open Helpers
module Prng = Slice_util.Prng
module Stats = Slice_util.Stats
module Lru = Slice_util.Lru
module Json = Slice_util.Json

(* ---- Prng ---- *)

let prng_deterministic () =
  let a = Prng.create 42 and b = Prng.create 42 in
  for _ = 1 to 100 do
    check_bool "same stream" true (Prng.int a max_int = Prng.int b max_int)
  done

let prng_seeds_differ () =
  let a = Prng.create 1 and b = Prng.create 2 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Prng.int a max_int = Prng.int b max_int then incr same
  done;
  check_bool "streams differ" true (!same < 4)

let prng_int_range =
  qtest "int in range" QCheck2.Gen.(pair int (int_range 1 1000)) (fun (seed, bound) ->
      let p = Prng.create seed in
      let v = Prng.int p bound in
      v >= 0 && v < bound)

let prng_float_range =
  qtest "float in range" QCheck2.Gen.int (fun seed ->
      let p = Prng.create seed in
      let v = Prng.float p 3.5 in
      v >= 0.0 && v < 3.5)

let prng_weighted () =
  let p = Prng.create 7 in
  let counts = Hashtbl.create 3 in
  for _ = 1 to 10_000 do
    let v = Prng.weighted p [| (1.0, `A); (2.0, `B); (7.0, `C) |] in
    Hashtbl.replace counts v (1 + Option.value ~default:0 (Hashtbl.find_opt counts v))
  done;
  let get k = Option.value ~default:0 (Hashtbl.find_opt counts k) in
  check_bool "A ~10%" true (abs (get `A - 1000) < 250);
  check_bool "B ~20%" true (abs (get `B - 2000) < 350);
  check_bool "C ~70%" true (abs (get `C - 7000) < 500)

let prng_exponential () =
  let p = Prng.create 9 in
  let total = ref 0.0 in
  let n = 20_000 in
  for _ = 1 to n do
    let v = Prng.exponential p 2.0 in
    check_bool "non-negative" true (v >= 0.0);
    total := !total +. v
  done;
  let mean = !total /. float_of_int n in
  check_bool "mean near 2.0" true (Float.abs (mean -. 2.0) < 0.1)

(* A split child is a pure function of its parent's state, and its
   stream is not the parent's continuation. *)
let prng_split () =
  let a = Prng.create 7 and b = Prng.create 7 in
  let ca = Prng.split a and cb = Prng.split b in
  let same = ref 0 in
  for _ = 1 to 64 do
    let x = Prng.int ca max_int in
    check_int "children agree" x (Prng.int cb max_int);
    if x = Prng.int a max_int then incr same
  done;
  check_bool "child differs from parent" true (!same < 4)

(* ---- Stats ---- *)

let stats_basic () =
  let s = Stats.create () in
  List.iter (Stats.add s) [ 1.0; 2.0; 3.0; 4.0 ];
  check_int "count" 4 (Stats.count s);
  check_float "mean" 2.5 (Stats.mean s);
  check_float "min" 1.0 (Stats.min s);
  check_float "max" 4.0 (Stats.max s)

let stats_percentile () =
  let s = Stats.create () in
  for i = 1 to 100 do
    Stats.add s (float_of_int i)
  done;
  check_float "p50" 50.0 (Stats.percentile s 50.0);
  check_float "p95" 95.0 (Stats.percentile s 95.0);
  check_float "p100" 100.0 (Stats.percentile s 100.0)

let stats_empty () =
  let s = Stats.create () in
  check_float "mean empty" 0.0 (Stats.mean s);
  check_float "percentile empty" 0.0 (Stats.percentile s 50.0)

(* ---- Lru ---- *)

let lru_basic () =
  let l = Lru.create ~capacity:3 () in
  Lru.add l 1 "a";
  Lru.add l 2 "b";
  Lru.add l 3 "c";
  check_bool "find 1" true (Lru.find l 1 = Some "a");
  (* 1 is now MRU; adding 4 evicts 2 *)
  Lru.add l 4 "d";
  check_bool "2 evicted" true (Lru.find l 2 = None);
  check_bool "1 kept" true (Lru.find l 1 = Some "a");
  check_int "entries" 3 (Lru.entry_count l)

let lru_eviction_callback () =
  let evicted = ref [] in
  let l = Lru.create ~on_evict:(fun k v -> evicted := (k, v) :: !evicted) ~capacity:2 () in
  Lru.add l 1 "a";
  Lru.add l 2 "b";
  Lru.add l 3 "c";
  check_bool "evicted (1,a)" true (!evicted = [ (1, "a") ]);
  Lru.remove l 2;
  check_bool "remove is silent" true (List.length !evicted = 1)

let lru_replace_fires_evict () =
  let evicted = ref [] in
  let l = Lru.create ~on_evict:(fun k v -> evicted := (k, v) :: !evicted) ~capacity:4 () in
  Lru.add l 1 "a";
  Lru.add l 2 "b";
  (* replacing a live key displaces its old value just like pressure
     does — the hook must see it (else a dirty entry loses write-back) *)
  Lru.add l 1 "a2";
  check_bool "replace fired on_evict with old value" true (!evicted = [ (1, "a") ]);
  check_bool "new value visible" true (Lru.find l 1 = Some "a2");
  check_int "no duplicate entry" 2 (Lru.entry_count l)

let lru_replace () =
  let l = Lru.create ~capacity:10 () in
  Lru.add l 1 "a";
  Lru.add l 1 "b";
  check_bool "value updated" true (Lru.find l 1 = Some "b");
  check_int "one entry" 1 (Lru.entry_count l)

let lru_model =
  qtest ~count:100 "lru matches model"
    QCheck2.Gen.(list (pair (int_range 0 10) (int_range 0 2)))
    (fun ops ->
      (* model: list of keys, MRU first, capacity 4 *)
      let l = Lru.create ~capacity:4 () in
      let model = ref [] in
      List.for_all
        (fun (k, op) ->
          match op with
          | 0 ->
              Lru.add l k k;
              model := k :: List.filter (( <> ) k) !model;
              if List.length !model > 4 then
                model := List.filteri (fun i _ -> i < 4) !model;
              true
          | 1 ->
              let expect = List.mem k !model in
              let got = Lru.find l k <> None in
              if got then model := k :: List.filter (( <> ) k) !model;
              expect = got
          | _ ->
              Lru.remove l k;
              model := List.filter (( <> ) k) !model;
              true)
        ops)

(* ---- lease-aware lookup (the metadata cache's TTL machinery) ---- *)

let lru_find_ttl () =
  let evicted = ref [] in
  let l = Lru.create ~capacity:8 ~on_evict:(fun k _ -> evicted := k :: !evicted) () in
  Lru.add l ~expires_at:5.0 "leased" 1;
  Lru.add l "forever" 2;
  (match Lru.find_ttl l "leased" ~now:4.9 with
  | Lru.Fresh v -> check_int "fresh within lease" 1 v
  | _ -> Alcotest.fail "expected Fresh");
  (match Lru.find_ttl l "leased" ~now:5.0 with
  | Lru.Stale -> ()
  | _ -> Alcotest.fail "expected Stale at expiry");
  (* expiry removed the entry silently: no eviction callback, and a
     re-probe is a Miss, not Stale again *)
  check_bool "no on_evict for lease expiry" true (!evicted = []);
  (match Lru.find_ttl l "leased" ~now:5.0 with
  | Lru.Miss -> ()
  | _ -> Alcotest.fail "expected Miss after expiry removal");
  check_int "expired entry no longer counted" 1 (Lru.entry_count l);
  (match Lru.find_ttl l "forever" ~now:1e12 with
  | Lru.Fresh v -> check_int "default lease is infinite" 2 v
  | _ -> Alcotest.fail "expected Fresh");
  (* the plain interface ignores leases entirely *)
  Lru.add l ~expires_at:0.5 "old" 3;
  check_bool "plain find ignores lease" true (Lru.find l "old" = Some 3)

(* ---- reservoir percentiles ---- *)

let stats_reservoir_bounded () =
  let s = Stats.create ~reservoir:100 () in
  for i = 1 to 10_000 do
    Stats.add s (float_of_int i)
  done;
  check_int "count is exact" 10_000 (Stats.count s);
  check_float "mean is exact" 5000.5 (Stats.mean s);
  (* percentiles are estimates from 100 retained samples of a uniform
     ramp: nearest-rank over the reservoir should land within a few
     percent of truth *)
  let p50 = Stats.percentile s 50.0 in
  check_bool "median estimate sane" true (p50 > 3000.0 && p50 < 7000.0);
  let p100 = Stats.percentile s 100.0 in
  check_bool "max estimate below true max" true (p100 <= 10_000.0)

(* Past the cap the reservoir's sampling is seeded, so equal streams give
   equal percentiles; min and max stay exact however many were dropped. *)
let stats_reservoir_deterministic () =
  let fill () =
    let s = Stats.create ~reservoir:64 () in
    for i = 1 to 5_000 do
      Stats.add s (float_of_int (i * 7919 mod 997))
    done;
    (* the extremes arrive late, when the reservoir keeps few samples *)
    Stats.add s (-1.0);
    Stats.add s 1e6;
    s
  in
  let a = fill () and b = fill () in
  List.iter
    (fun p -> check_float (Printf.sprintf "p%.0f agrees" p) (Stats.percentile a p) (Stats.percentile b p))
    [ 0.0; 25.0; 50.0; 90.0; 99.0; 100.0 ];
  check_float "min exact" (-1.0) (Stats.min a);
  check_float "max exact" 1e6 (Stats.max a)

let stats_reservoir_exact_under_cap =
  qtest "percentile exact when samples fit the reservoir"
    QCheck2.Gen.(list_size (int_range 1 200) (float_bound_exclusive 1000.0))
    (fun xs ->
      let s = Stats.create ~reservoir:256 () in
      List.iter (Stats.add s) xs;
      let sorted = List.sort compare xs in
      let m = List.length xs in
      List.for_all
        (fun p ->
          let rank = max 1 (int_of_float (ceil (p /. 100.0 *. float_of_int m))) in
          Stats.percentile s p = List.nth sorted (min (m - 1) (rank - 1)))
        [ 0.0; 50.0; 90.0; 99.0; 100.0 ])

(* ---- json ---- *)

let json_roundtrip () =
  let open Json in
  let j =
    Obj
      [
        ("schema_version", Num 1.0);
        ("name", Str "bench \"smoke\"\n\ttab");
        ("neg", Num (-12.5));
        ("big", Num 1e9);
        ("flags", Arr [ Bool true; Bool false; Null ]);
        ("empty_arr", Arr []);
        ("nested", Obj [ ("k", Str "v") ]);
      ]
  in
  Alcotest.check
    (Alcotest.testable (fun fmt j -> Format.pp_print_string fmt (to_string j)) ( = ))
    "of_string (to_string j) = j" j
    (of_string (to_string j))

let json_parse_errors () =
  List.iter
    (fun txt ->
      match Json.of_string txt with
      | exception Json.Parse_error _ -> ()
      | _ -> Alcotest.failf "accepted malformed input %S" txt)
    [ ""; "{"; "[1,]"; "{\"a\":}"; "tru"; "\"unterminated"; "1 2"; "{\"a\" 1}" ]

let json_accessors () =
  let j = Json.of_string {|{"micro": [{"name": "x", "ns_per_op": 41.5}]}|} in
  match Json.member "micro" j with
  | Some (Json.Arr [ row ]) ->
      check_bool "str accessor" true (Json.member "name" row = Some (Json.Str "x"));
      (match Json.member "ns_per_op" row with
      | Some (Json.Num n) -> check_float "num accessor" 41.5 n
      | _ -> Alcotest.fail "ns_per_op missing")
  | _ -> Alcotest.fail "micro missing"

let suite =
  [
    ("prng deterministic", `Quick, prng_deterministic);
    ("prng seeds differ", `Quick, prng_seeds_differ);
    prng_int_range;
    prng_float_range;
    ("prng weighted", `Quick, prng_weighted);
    ("prng exponential", `Quick, prng_exponential);
    ("prng split", `Quick, prng_split);
    ("stats basic", `Quick, stats_basic);
    ("stats percentile", `Quick, stats_percentile);
    ("stats empty", `Quick, stats_empty);
    ("lru basic", `Quick, lru_basic);
    ("lru eviction callback", `Quick, lru_eviction_callback);
    ("lru replace fires evict", `Quick, lru_replace_fires_evict);
    ("lru replace", `Quick, lru_replace);
    lru_model;
    ("lru find_ttl leases", `Quick, lru_find_ttl);
    ("stats reservoir bounded", `Quick, stats_reservoir_bounded);
    stats_reservoir_exact_under_cap;
    ("stats reservoir deterministic", `Quick, stats_reservoir_deterministic);
    ("json roundtrip", `Quick, json_roundtrip);
    ("json parse errors", `Quick, json_parse_errors);
    ("json accessors", `Quick, json_accessors);
  ]
