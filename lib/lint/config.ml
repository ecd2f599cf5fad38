type t = {
  d1_allow : string -> bool;
  d2_scope : string -> bool;
  r1_scope : string -> bool;
  e1_scope : string -> bool;
  p1_scope : string -> bool;
  x1_allow : string -> bool;
  dune_file : string;
  required_dune_flags : string;
  a1_scope : string -> bool;
  f1_scope : string -> bool;
  hot_attr : string;
  f1_guards : string list;
  f1_protected : string list;
  u1_scope : string -> bool;
  u1_test_source : string -> bool;
}

let has_prefix p s = String.length s >= String.length p && String.sub s 0 (String.length p) = p
let any_prefix ps s = List.exists (fun p -> has_prefix p s) ps
let basename s = match String.rindex_opt s '/' with None -> s | Some i -> String.sub s (i + 1) (String.length s - i - 1)

(* The curated warning set promoted to errors in every library — and,
   since PR 8, in the bench/bin/test executable stanzas too: partial
   matches (8), unused values/opens/types/indices/constructors/rec flags
   (26 27 32..35 37 39). Checked verbatim (modulo whitespace) in each
   scanned dune by X1. *)
let uniform_flags = "(flags (:standard -warn-error +8+26+27+32+33+34+35+37+39))"

let repo =
  {
    (* The PRNG wrapper and the simulation core own time and randomness;
       everything else must go through them. *)
    d1_allow = any_prefix [ "lib/util/prng."; "lib/sim/" ];
    (* Modules whose hash-table iteration feeds reports, stats
       aggregation or BENCH_*.json artifacts — including the tracer,
       metrics registry and the load generators, whose dumps and op
       streams must be byte-stable across runs. *)
    d2_scope =
      (fun f ->
        any_prefix
          [ "lib/experiments/"; "bench/"; "examples/"; "lib/trace/";
            "lib/reconfig/"; "lib/failover/"; "lib/workload/"; "lib/qos/" ]
          f
        || List.mem f [ "lib/util/stats.ml"; "lib/util/metrics.ml" ]);
    (* Long-lived proxy/server modules: state here survives across
       requests, so every Hashtbl needs a bound or a bounded pragma. *)
    r1_scope =
      (fun f ->
        List.mem f
          [
            "lib/core/proxy.ml";
            "lib/net/net.ml";
            "lib/net/rpc.ml";
            "lib/dir/dirserver.ml";
            "lib/baseline/nfs_server.ml";
            "lib/disk/bcache.ml";
            "lib/storage/coordinator.ml";
            "lib/storage/obsd.ml";
            "lib/storage/nfs_endpoint.ml";
            "lib/smallfile/smallfile.ml";
            "lib/reconfig/reconfig.ml";
            "lib/failover/failover.ml";
            "lib/qos/tenant.ml";
            "lib/qos/wfq.ml";
            "lib/util/lru.ml";
            "lib/util/metrics.ml";
            "lib/trace/trace.ml";
          ]);
    (* Routing and cache paths where a stray polymorphic compare on a
       file handle or route key silently disagrees with keyed equality. *)
    e1_scope = any_prefix [ "lib/nfs/"; "lib/core/" ];
    (* Protocol request paths: a partial call here turns a malformed or
       unlucky request into a crash instead of an NFS error status. The
       codec feeders — XDR primitives and the routing hashes — are in
       scope too: they see raw request bytes before any validation. *)
    p1_scope =
      (fun f ->
        any_prefix [ "lib/nfs/"; "lib/hash/"; "lib/xdr/" ] f
        || List.mem f
             [
               "lib/core/proxy.ml";
               "lib/core/ensemble.ml";
               "lib/net/rpc.ml";
               "lib/net/net.ml";
               "lib/dir/dirserver.ml";
               "lib/dir/peer.ml";
               "lib/baseline/nfs_server.ml";
               "lib/storage/coordinator.ml";
               "lib/storage/obsd.ml";
               "lib/storage/nfs_endpoint.ml";
               "lib/smallfile/smallfile.ml";
             ]);
    x1_allow = (fun _ -> false);
    dune_file = "dune";
    required_dune_flags = uniform_flags;
    (* Files whose [@hot] roots seed A1, and which therefore must have a
       .cmt available when the typed tier runs: the µproxy packet path,
       the codec peek path and its XDR primitives, the engine's event
       dispatch, the RPC reply path, the shared xid index and the buffer
       cache's slot table. *)
    a1_scope =
      (fun f ->
        List.mem f
          [
            "lib/core/proxy.ml";
            "lib/nfs/codec.ml";
            "lib/xdr/xdr.ml";
            "lib/sim/engine.ml";
            "lib/net/rpc.ml";
            "lib/util/xid_index.ml";
            "lib/disk/bcache.ml";
          ]);
    (* The fenced server modules of PR 6: every dispatch path that
       reaches the WAL, the buffer cache or the allocator must be
       dominated by the wedge/lease-epoch check. *)
    f1_scope =
      (fun f ->
        List.mem f
          [
            "lib/dir/dirserver.ml";
            "lib/smallfile/smallfile.ml";
            "lib/storage/obsd.ml";
            "lib/storage/coordinator.ml";
          ]);
    hot_attr = "hot";
    f1_guards = [ "wedged"; "is_wedged" ];
    f1_protected =
      [ "Wal.append"; "Bcache.write"; "Bcache.commit"; "Ffs.alloc"; "Ffs.free" ];
    (* Every library interface. Uses count from any other unit with a
       .cmt under --cmt-dir, bin/, bench/, examples/ and perfbench/
       included; a value only test/ uses is a warning. *)
    u1_scope = has_prefix "lib/";
    u1_test_source = has_prefix "test/";
  }

(* Fixture profile: each rule is active exactly on files whose basename
   starts with the rule's lowercase name, so one fixture file exercises
   one rule family without cross-talk. *)
let fixtures =
  let named rule f = has_prefix rule (basename f) in
  {
    d1_allow = (fun f -> not (named "d1" f));
    d2_scope = named "d2";
    r1_scope = named "r1";
    e1_scope = named "e1";
    p1_scope = named "p1";
    x1_allow = (fun f -> basename f = "allowed.ml");
    dune_file = "dune.lint-fixture";
    required_dune_flags = uniform_flags;
    a1_scope = named "a1";
    f1_scope = named "f1";
    hot_attr = "hot";
    f1_guards = [ "wedged"; "is_wedged" ];
    f1_protected =
      [ "Wal.append"; "Bcache.write"; "Bcache.commit"; "Ffs.alloc"; "Ffs.free" ];
    u1_scope = named "u1";
    u1_test_source = named "u1_test";
  }
