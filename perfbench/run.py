#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload sfs_mix --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

The first form builds perfbench/main.exe from source with dune (inside
the checkout's _build directory) and runs one workload; the last line
of standard output is the result JSON. The exit code is non-zero when
the build fails, an output check fails, or the run overruns.

--self-test runs every workload in its tiny size: it checks that each
metric named in BENCHMARK.json is emitted with its unit, that the
deterministic metrics repeat exactly across two runs of one seed, and
that a hold-out seed runs clean and changes the simulated inputs.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
EXE = ROOT / "_build" / "default" / "perfbench" / "main.exe"
WORKLOADS = ["sfs_mix", "untar_create", "storm_qos"]
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170

# Metrics read off the host (clock, GC timing); everything else is a
# function of the seed and must repeat exactly.
HOST_METRICS = {
    "wall_us_per_op",
    "wall_us_per_op_p95",
    "setup_s",
    "peak_heap_mb",
    "gc.minor_ms_per_kop",
    "gc.major_ms_per_kop",
    "sim.step_ns_p50",
    "sim.step_ns_p99",
    "proxy.replay_ns_per_pkt",
    "nfs.decode_call_replay_ns",
    "nfs.encode_reply_replay_ns",
    "qos.wfq_replay_ns",
    "trace.overhead_ratio",
}


def fail(msg):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(1)


def dune_cmd():
    if shutil.which("dune"):
        return ["dune"]
    if shutil.which("opam"):
        return ["opam", "exec", "--", "dune"]
    fail("dune not found")


def build():
    if not (ROOT / "dune-project").is_file():
        fail("no dune-project at %s: the benchmark builds the repository from source" % ROOT)
    cmd = dune_cmd() + [
        "build", "--root", str(ROOT), "--cache=disabled", "-j", "2", "./perfbench/main.exe",
    ]
    try:
        r = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if r.returncode != 0 or not EXE.is_file():
        fail("build failed")


def run(workload, seed, seconds, trace, tiny=False, echo=True):
    """Run main.exe once; return (exit code, parsed result line or None)."""
    events = ROOT / "_build" / "perfbench-events"
    events.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, OCAML_RUNTIME_EVENTS_DIR=str(events))
    env.pop("OCAML_RUNTIME_EVENTS_PRESERVE", None)
    cmd = [str(EXE), "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)] + (["--tiny"] if tiny else [])
    try:
        r = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=sys.stderr,
                           text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s overran %d s" % (workload, RUN_TIMEOUT_S))
    if echo:
        sys.stdout.write(r.stdout)
        sys.stdout.flush()
    lines = r.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    return r.returncode, result


def self_test():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    if set(w["name"] for w in spec["workloads"]) != set(WORKLOADS):
        fail("BENCHMARK.json workloads differ from %s" % WORKLOADS)
    problems = []
    for w in WORKLOADS:
        for trace in (0, 1):
            runs = {}
            for label, seed in (("a", 1), ("b", 1), ("holdout", 2)):
                rc, res = run(w, seed, 1, trace, tiny=True, echo=False)
                if rc != 0 or res is None or res.get("correct") is not True:
                    problems.append("%s trace %d seed %d: exit %d" % (w, trace, seed, rc))
                    continue
                runs[label] = res
                got = {k: v["unit"] for k, v in res["metrics"].items()}
                if got != want[trace]:
                    problems.append("%s trace %d: metrics/units %s, want %s" % (w, trace, sorted(got.items()), sorted(want[trace].items())))
            if "a" in runs and "b" in runs:
                a, b = runs["a"], runs["b"]
                for key in ("attempted", "failed"):
                    if a[key] != b[key]:
                        problems.append("%s trace %d: %s differs across runs of one seed" % (w, trace, key))
                for name, m in a["metrics"].items():
                    if name not in HOST_METRICS and m["value"] != b["metrics"][name]["value"]:
                        problems.append("%s trace %d: %s not repeatable (%r vs %r)" % (w, trace, name, m["value"], b["metrics"][name]["value"]))
            if trace == 0 and "a" in runs and "holdout" in runs:
                if runs["a"]["metrics"]["sim_lat_p50_ms"] == runs["holdout"]["metrics"]["sim_lat_p50_ms"] \
                        and runs["a"]["attempted"] == runs["holdout"]["attempted"]:
                    problems.append("%s: the hold-out seed simulated the same thing" % w)
            print("self-test %s trace %d: %d runs" % (w, trace, len(runs)))
    for p in problems:
        print("self-test: " + p, file=sys.stderr)
    print("self-test: %s" % ("ok" if not problems else "%d problem(s)" % len(problems)))
    return 0 if not problems else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="seconds-long smoke size")
    ap.add_argument("--self-test", action="store_true")
    a = ap.parse_args()
    build()
    if a.self_test:
        sys.exit(self_test())
    if a.workload is None:
        ap.error("--workload is required")
    rc, res = run(a.workload, a.seed, a.seconds, a.trace, tiny=a.tiny)
    if rc == 0 and res is None:
        fail("no result line")
    sys.exit(rc)


if __name__ == "__main__":
    main()
