open Helpers
module Prng = Slice_util.Prng
module Stats = Slice_util.Stats
module Slot_lru = Slice_util.Slot_lru
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

(* The first draws of seed 42, from the reference SplitMix64 (state
   advanced by the golden gamma, then mixed): a change to how the state
   is kept must leave the stream as it was. *)
let prng_stream_pinned () =
  let p = Prng.create 42 in
  List.iter
    (fun want -> check_int "int draw" want (Prng.int p max_int))
    [ 0x3dd732262feb6e95; 0x28efe333b266f103 ];
  check_bool "float draw" true (Prng.float p 1.0 = float_of_int 0x8ea4ceae261f3 /. 0x1p53)

(* Steady-state words per call of [f], warmed. *)
let words_per_call n f =
  f ();
  let w0 = Gc.minor_words () in
  f ();
  (Gc.minor_words () -. w0) /. float_of_int n

(* A draw keeps the generator's state and its result unboxed, called from
   another module: an int, a weighted pick over twelve choices, and
   floats and exponential gaps summed into a local float ref. *)
let prng_draws_allocate_nothing () =
  let p = Prng.create 5 in
  let n = 1024 in
  let choices = Array.init 12 (fun i -> (float_of_int (i + 1), i)) in
  let ints () =
    for _ = 1 to n do
      ignore (Sys.opaque_identity (Prng.int p 1000))
    done
  in
  let picks () =
    for _ = 1 to n do
      ignore (Sys.opaque_identity (Prng.weighted p choices))
    done
  in
  let floats () =
    let acc = ref 0.0 in
    for _ = 1 to n do
      acc := !acc +. Prng.float p 1.0
    done;
    ignore (Sys.opaque_identity (!acc > 0.0))
  in
  let gaps () =
    let acc = ref 0.0 in
    for _ = 1 to n do
      acc := !acc +. Prng.exponential p 2.0
    done;
    ignore (Sys.opaque_identity (!acc > 0.0))
  in
  check_float "Prng.int: words per draw" 0.0 (words_per_call n ints);
  check_float "Prng.weighted: words per pick" 0.0 (words_per_call n picks);
  check_float "Prng.float summed: words per draw" 0.0 (words_per_call n floats);
  check_float "Prng.exponential summed: words per draw" 0.0 (words_per_call n gaps)

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

(* ---- Slot_lru ---- *)

(* The cache under test, seen through the operations the µproxy uses:
   int keys, a value per entry, an absolute lease per entry and an
   eviction hook that sees every displaced value. The reference-model
   property below is written against this signature only. *)
module Cache : sig
  type t

  val create : on_evict:(int -> string -> unit) -> capacity:int -> t
  val add : t -> expires_at:float -> int -> string -> unit
  val find : t -> int -> string option
  val find_ttl : t -> int -> now:float -> [ `Fresh of string | `Stale | `Miss ]
  val remove : t -> int -> unit
  val clear : t -> unit
  val to_list : t -> (int * string) list (* most recently used first *)
end = struct
  (* the table plus the two value columns a caller keeps beside it *)
  type t = {
    lru : Slot_lru.t;
    mutable keys : int array;
    mutable vals : string array;
    on_evict : int -> string -> unit;
  }

  let create ~on_evict ~capacity =
    { lru = Slot_lru.create ~capacity; keys = [||]; vals = [||]; on_evict }

  let add t ~expires_at k v =
    let s = Slot_lru.add t.lru k ~lease:expires_at in
    t.keys <- Slot_lru.fit t.lru t.keys 0;
    t.vals <- Slot_lru.fit t.lru t.vals "";
    if Slot_lru.displaced t.lru then t.on_evict t.keys.(s) t.vals.(s);
    t.keys.(s) <- k;
    t.vals.(s) <- v

  let find t k =
    let s = Slot_lru.find t.lru k in
    if s < 0 then None else Some t.vals.(s)

  let find_ttl t k ~now =
    let s = Slot_lru.slot t.lru k in
    if s < 0 then `Miss else if Slot_lru.fresh t.lru s ~now then `Fresh t.vals.(s) else `Stale

  let remove t k = Slot_lru.remove t.lru k
  let clear t = Slot_lru.clear t.lru

  let to_list t =
    let l = ref [] in
    Slot_lru.iter t.lru (fun s -> l := (t.keys.(s), t.vals.(s)) :: !l);
    !l
end

let no_evict _ _ = ()
let entry_count c = List.length (Cache.to_list c)

let lru_basic () =
  let c = Cache.create ~on_evict:no_evict ~capacity:3 in
  Cache.add c ~expires_at:infinity 1 "a";
  Cache.add c ~expires_at:infinity 2 "b";
  Cache.add c ~expires_at:infinity 3 "c";
  check_bool "find 1" true (Cache.find c 1 = Some "a");
  (* 1 is now MRU; adding 4 evicts 2 *)
  Cache.add c ~expires_at:infinity 4 "d";
  check_bool "2 evicted" true (Cache.find c 2 = None);
  check_bool "1 kept" true (Cache.find c 1 = Some "a");
  check_int "entries" 3 (entry_count c)

let lru_eviction_callback () =
  let evicted = ref [] in
  let c = Cache.create ~on_evict:(fun k v -> evicted := (k, v) :: !evicted) ~capacity:2 in
  Cache.add c ~expires_at:infinity 1 "a";
  Cache.add c ~expires_at:infinity 2 "b";
  Cache.add c ~expires_at:infinity 3 "c";
  check_bool "evicted (1,a)" true (!evicted = [ (1, "a") ]);
  Cache.remove c 2;
  check_bool "remove is silent" true (List.length !evicted = 1)

let lru_replace_fires_evict () =
  let evicted = ref [] in
  let c = Cache.create ~on_evict:(fun k v -> evicted := (k, v) :: !evicted) ~capacity:4 in
  Cache.add c ~expires_at:infinity 1 "a";
  Cache.add c ~expires_at:infinity 2 "b";
  (* replacing a live key displaces its old value just like pressure
     does — the hook must see it (else a dirty entry loses write-back) *)
  Cache.add c ~expires_at:infinity 1 "a2";
  check_bool "replace fired on_evict with old value" true (!evicted = [ (1, "a") ]);
  check_bool "new value visible" true (Cache.find c 1 = Some "a2");
  check_int "no duplicate entry" 2 (entry_count c)

let lru_replace () =
  let c = Cache.create ~on_evict:no_evict ~capacity:10 in
  Cache.add c ~expires_at:infinity 1 "a";
  Cache.add c ~expires_at:infinity 1 "b";
  check_bool "value updated" true (Cache.find c 1 = Some "b");
  check_int "one entry" 1 (entry_count c)

(* lease-aware lookup (the metadata cache's TTL machinery) *)
let lru_find_ttl () =
  let evicted = ref [] in
  let c = Cache.create ~capacity:8 ~on_evict:(fun k _ -> evicted := k :: !evicted) in
  Cache.add c ~expires_at:5.0 1 "leased";
  Cache.add c ~expires_at:infinity 2 "forever";
  (match Cache.find_ttl c 1 ~now:4.9 with
  | `Fresh v -> check_bool "fresh within lease" true (v = "leased")
  | _ -> Alcotest.fail "expected Fresh");
  (match Cache.find_ttl c 1 ~now:5.0 with
  | `Stale -> ()
  | _ -> Alcotest.fail "expected Stale at expiry");
  (* expiry removed the entry silently: no eviction callback, and a
     re-probe is a Miss, not Stale again *)
  check_bool "no on_evict for lease expiry" true (!evicted = []);
  (match Cache.find_ttl c 1 ~now:5.0 with
  | `Miss -> ()
  | _ -> Alcotest.fail "expected Miss after expiry removal");
  check_int "expired entry no longer counted" 1 (entry_count c);
  (match Cache.find_ttl c 2 ~now:1e12 with
  | `Fresh v -> check_bool "infinite lease stays fresh" true (v = "forever")
  | _ -> Alcotest.fail "expected Fresh");
  (* the plain interface ignores leases entirely *)
  Cache.add c ~expires_at:0.5 3 "old";
  check_bool "plain find ignores lease" true (Cache.find c 3 = Some "old")

type cache_op =
  | Add of int * string * float
  | Replace of int * string * float (* the [n]th live key, mod the entry count *)
  | Find of int
  | Find_ttl of int * float
  | Remove of int
  | Clear

let cache_op_gen =
  let open QCheck2.Gen in
  let key = int_range 0 9 in
  let value = map (Printf.sprintf "v%d") (int_range 0 99) in
  (* lease deadlines and probe times share values, so a probe exactly
     at the deadline (stale: [expires_at <= now]) is common *)
  let lease = oneofl [ 1.0; 2.0; 3.0; infinity ] in
  let time = oneofl [ 0.5; 1.0; 2.0; 3.0 ] in
  frequency
    [
      (6, map3 (fun k v e -> Add (k, v, e)) key value lease);
      (2, map3 (fun n v e -> Replace (n, v, e)) (int_range 0 7) value lease);
      (4, map (fun k -> Find k) key);
      (4, map2 (fun k now -> Find_ttl (k, now)) key time);
      (2, map (fun k -> Remove k) key);
      (1, return Clear);
    ]

let show_cache_op = function
  | Add (k, v, e) -> Printf.sprintf "add %d %s %g" k v e
  | Replace (n, v, e) -> Printf.sprintf "replace #%d %s %g" n v e
  | Find k -> Printf.sprintf "find %d" k
  | Find_ttl (k, now) -> Printf.sprintf "find_ttl %d @%g" k now
  | Remove k -> Printf.sprintf "remove %d" k
  | Clear -> "clear"

(* Reference model: a list of (key, value, lease), most recently used
   first, at capacity 4. Every operation is checked for its result and
   for the entries it displaced; after every operation the cache's
   MRU-to-LRU walk must equal the model. *)
let lru_model =
  qtest ~count:300 ~print:QCheck2.Print.(list show_cache_op) "lru matches reference model"
    QCheck2.Gen.(list_size (int_range 0 80) cache_op_gen)
    (fun ops ->
      let capacity = 4 in
      let evicted = ref [] in
      let c = Cache.create ~on_evict:(fun k v -> evicted := (k, v) :: !evicted) ~capacity in
      let model = ref [] in
      let without k = List.filter (fun (k', _, _) -> k' <> k) !model in
      let to_front (k, v, e) = model := (k, v, e) :: without k in
      let add k v e =
        let displaced =
          match List.find_opt (fun (k', _, _) -> k' = k) !model with
          | Some (_, v', _) -> [ (k, v') ]
          | None -> []
        in
        to_front (k, v, e);
        let victims =
          if List.length !model > capacity then begin
            let k', v', _ = List.nth !model capacity in
            model := List.filteri (fun i _ -> i < capacity) !model;
            [ (k', v') ]
          end
          else []
        in
        Cache.add c ~expires_at:e k v;
        displaced @ victims
      in
      let step op =
        evicted := [];
        let expect_evicted =
          match op with
          | Add (k, v, e) -> add k v e
          | Replace (n, v, e) -> (
              match !model with
              | [] -> add n v e
              | live ->
                  let k, _, _ = List.nth live (n mod List.length live) in
                  add k v e)
          | Find k ->
              let expect =
                match List.find_opt (fun (k', _, _) -> k' = k) !model with
                | Some ((_, v, _) as entry) ->
                    to_front entry;
                    Some v
                | None -> None
              in
              if Cache.find c k <> expect then QCheck2.Test.fail_reportf "find %d: wrong hit" k;
              []
          | Find_ttl (k, now) ->
              let expect =
                match List.find_opt (fun (k', _, _) -> k' = k) !model with
                | Some (_, _, e) when e <= now ->
                    model := without k;
                    `Stale
                | Some ((_, v, _) as entry) ->
                    to_front entry;
                    `Fresh v
                | None -> `Miss
              in
              if Cache.find_ttl c k ~now <> expect then
                QCheck2.Test.fail_reportf "find_ttl %d @%g: wrong fresh/stale/miss" k now;
              []
          | Remove k ->
              model := without k;
              Cache.remove c k;
              []
          | Clear ->
              model := [];
              Cache.clear c;
              []
        in
        if List.rev !evicted <> expect_evicted then
          QCheck2.Test.fail_reportf "%s: wrong victims" (show_cache_op op);
        if Cache.to_list c <> List.map (fun (k, v, _) -> (k, v)) !model then
          QCheck2.Test.fail_reportf "%s: walk order differs from the model" (show_cache_op op)
      in
      List.iter step ops;
      true)

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
    ("prng stream pinned", `Quick, prng_stream_pinned);
    ("prng draws allocate nothing", `Quick, prng_draws_allocate_nothing);
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
