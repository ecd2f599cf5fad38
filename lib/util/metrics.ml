(* Unified metrics registry: named counters, pull-style gauges, and
   sample distributions behind one interface, with a deterministic
   (sorted-key) JSON dump.  Components either push by name into a
   counter/dist created on first use, or register a gauge closure so
   existing ad-hoc counters (Rpc endpoint stats, proxy meta-cache stats,
   coordinator redo counts, WAL sync totals) are absorbed without
   touching their hot paths. *)

type t = {
  counters : (string, int ref) Hashtbl.t;
  gauges : (string, unit -> float) Hashtbl.t;
  dists : (string, Stats.t) Hashtbl.t;
}

let create () =
  (* lint: bounded — one row per registered metric name, a small static vocabulary *)
  { counters = Hashtbl.create 64; gauges = Hashtbl.create 64; dists = Hashtbl.create 16 }

let counter t name =
  match Hashtbl.find_opt t.counters name with
  | Some r -> r
  | None ->
      let r = ref 0 in
      Hashtbl.replace t.counters name r;
      r

let incr t name = incr (counter t name)
let add t name n = counter t name := !(counter t name) + n
let gauge t name fn = Hashtbl.replace t.gauges name fn

let dist t name =
  match Hashtbl.find_opt t.dists name with
  | Some s -> s
  | None ->
      let s = Stats.create () in
      Hashtbl.replace t.dists name s;
      s

let observe t name v = Stats.add (dist t name) v

let value t name =
  match Hashtbl.find_opt t.counters name with
  | Some r -> float_of_int !r
  | None -> (
      match Hashtbl.find_opt t.gauges name with Some fn -> fn () | None -> 0.0)

let sorted_keys tbl =
  (* lint: D2 ok — fold output is sorted on the next line *)
  Hashtbl.fold (fun k _ acc -> k :: acc) tbl [] |> List.sort compare

let names t =
  List.sort_uniq compare
    (sorted_keys t.counters @ sorted_keys t.gauges @ sorted_keys t.dists)

let dist_json s =
  Json.Obj
    [
      ("count", Json.Num (float_of_int (Stats.count s)));
      ("max", Json.Num (Stats.max s));
      ("mean", Json.Num (Stats.mean s));
      ("min", Json.Num (Stats.min s));
      ("p50", Json.Num (Stats.percentile s 50.0));
      ("p95", Json.Num (Stats.percentile s 95.0));
      ("p99", Json.Num (Stats.percentile s 99.0));
    ]

let dump t =
  (* Keys sorted at every level so two identical runs dump byte-identical
     JSON regardless of registration/hash order. *)
  let counters =
    sorted_keys t.counters
    |> List.map (fun k -> (k, Json.Num (float_of_int !(Hashtbl.find t.counters k))))
  in
  let gauges =
    sorted_keys t.gauges
    |> List.map (fun k -> (k, Json.Num ((Hashtbl.find t.gauges k) ())))
  in
  let dists =
    sorted_keys t.dists |> List.map (fun k -> (k, dist_json (Hashtbl.find t.dists k)))
  in
  Json.Obj
    [ ("counters", Json.Obj counters); ("dists", Json.Obj dists); ("gauges", Json.Obj gauges) ]
