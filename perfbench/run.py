"""svtkit benchmark: three seeded workloads, untraced or traced.

    python3 perfbench/run.py --workload {synth,transform,apps,all}
                             --seed N --seconds S --trace {0,1}
                             [--requests K]

``--trace 0`` runs the workload's seeded request sequence untraced three
times, each replay in a fresh interpreter, and prints the end-to-end
metrics.  Each request's latency is the median of its three replays: the
host is shared, and its speed shifts by up to ~40% for seconds at a time,
so one replay of a request caught in such a shift does not move the
result.  A cold import (``setup_s``, the median of three) is timed before
each replay.  ``--trace 1`` runs one replay untraced and the same requests
again in a fresh interpreter with every svtkit public function wrapped,
and prints the per-layer metrics and ``trace.overhead_ratio``.
S sets the amount of work: each replay is the whole number of blocks that
``workloads.blocks_for`` gives for S/3 seconds, the same on every machine
and commit.

Human-readable lines come first; the last line is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The
program is built from ``src/`` of the checkout this file sits in; without
it the benchmark exits with code 2.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("synth", "transform", "apps")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
REPLAYS = 3
CHILD_LIMIT_S = 170  # a run must end within 180 s
IMPORT_TIMER = ("import time; t = time.perf_counter(); "
                "import svtkit, svtkit.apps, svtkit.cli; "
                "print(time.perf_counter() - t)")


class BenchError(Exception):
    pass


def _env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


def _child(argv) -> str:
    """Run a fresh interpreter to completion; return its last output line."""
    try:
        proc = subprocess.run([sys.executable, *argv], cwd=ROOT, env=_env(),
                              capture_output=True, text=True,
                              timeout=CHILD_LIMIT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{argv[0]} ran over {CHILD_LIMIT_S} s") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"{argv[0]} exited {proc.returncode}:\n"
                         f"{proc.stderr[-3000:]}")
    return proc.stdout.strip().splitlines()[-1]


def cold_import_seconds() -> float:
    """One cold import of svtkit, svtkit.apps and svtkit.cli."""
    return float(_child(["-c", IMPORT_TIMER]))


def run_worker(workload, seed, seconds, requests=None, trace=False) -> dict:
    argv = [WORKER, "--workload", workload, "--seed", str(seed),
            "--seconds", repr(float(seconds))]
    if requests is not None:
        argv += ["--requests", str(requests)]
    if trace:
        argv.append("--trace")
    return json.loads(_child(argv))


def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least 10 samples above it."""
    for p in range(99, 50, -1):
        if n - 1 - int(p / 100 * (n - 1)) >= 10:
            return p
    return 50


def percentile(values, p: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def median_of(recs: list) -> dict:
    """One record from replays of the same requests: each request's
    latency is the median of its replays, and it succeeded only if every
    replay succeeded."""
    first = recs[0]
    for rec in recs[1:]:
        if rec["kinds"] != first["kinds"]:
            raise BenchError("replays of one seed ran different requests")
    return {
        "requests": first["requests"],
        "latencies": [statistics.median(lat)
                      for lat in zip(*(r["latencies"] for r in recs))],
        "ok": [all(ok) for ok in zip(*(r["ok"] for r in recs))],
        "uses": first["uses"],
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in recs),
    }


def end_to_end(rec: dict, setup_s: float) -> dict:
    lat = rec["latencies"]
    return {
        "ops_per_s": (sum(rec["ok"]) / sum(lat), "1/s"),
        "latency_p50_s": (statistics.median(lat), "s"),
        "latency_tail_s": (percentile(lat, tail_percentile(len(lat))), "s"),
        "queries_per_op": (statistics.fmean(rec["uses"])
                           if rec["uses"] else 0.0, "count"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (rec["peak_rss_mb"], "MB"),
    }


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def print_machine(rec: dict) -> None:
    m = rec["machine"]
    threads = ", ".join(f"{k}={v}" for k, v in m["threads"].items())
    print(f"machine: Python {m['python']}, numpy {m['numpy']}, "
          f"scipy {m['scipy']}, mpmath {m['mpmath']} "
          f"({m['mpmath_backend']} backend; gmpy2 "
          f"{'present' if m['gmpy2'] else 'absent'}), BLAS {m['blas']}, "
          f"nproc {m['nproc']}, {threads}")


def print_requests(rec: dict) -> None:
    failures = ", ".join(f"{k} {v}" for k, v in sorted(
        rec["failures"].items())) or "none"
    print(f"  requests: {rec['requests']} attempted, {rec['failed']} failed "
          f"({failures}), {rec['wrong']} wrong outputs; closed loop, one "
          f"client, {rec['wall_s']:.3f} s inside requests, "
          f"{rec['check_s']:.3f} s in the benchmark's checks")
    for sample in rec["failure_samples"]:
        print(f"    failure: {sample}")
    print(f"  inputs: {json.dumps(rec['inputs'])}")


def untraced(workload, seed, seconds, requests=None):
    starts, recs = [], []
    for _ in range(REPLAYS):
        starts.append(cold_import_seconds())
        recs.append(run_worker(workload, seed, seconds / REPLAYS, requests))
    setup_s = statistics.median(starts)
    merged = median_of(recs)
    metrics = end_to_end(merged, setup_s)
    n = merged["requests"]
    print(f"workload {workload}, seed {seed}, untraced, {REPLAYS} replays "
          f"in fresh interpreters; latency = median replay of each request")
    for i, rec in enumerate(recs):
        print(f"  replay {i + 1}:")
        print_requests(rec)
    for name, (value, unit) in metrics.items():
        note = ""
        if name == "latency_tail_s":
            note = f"  (p{tail_percentile(n)} of {n} requests)"
        elif name == "setup_s":
            note = f"  (median of {len(starts)} cold imports)"
        print(f"  {name:<16} {_fmt(value)} {unit}{note}")
        if name == "latency_tail_s":
            failed = sum(r["failed"] for r in recs)
            attempted = sum(r["requests"] for r in recs)
            print(f"  {'fail_rate':<16} {_fmt(failed / attempted)} ratio"
                  f"  ({failed} of {attempted})")
    return recs[0], recs, metrics


def traced(workload, seed, seconds, requests=None):
    plain = run_worker(workload, seed, seconds / REPLAYS, requests)
    rec = run_worker(workload, seed, seconds / REPLAYS, requests, trace=True)
    metrics = {name: tuple(v) for name, v in rec["layers"].items()}
    metrics["trace.overhead_ratio"] = (rec["wall_s"] / plain["wall_s"],
                                       "ratio")
    print(f"workload {workload}, seed {seed}, traced replay of the "
          f"{plain['requests']} requests of one untraced replay "
          f"({rec['spans']} spans)")
    print_requests(rec)
    self_s = {k: v for k, (v, _) in metrics.items()
              if k.endswith(".self_s") and k.count(".") == 1}
    shares = ", ".join(f"{k.split('.')[0]} {v / rec['wall_s']:.1%}"
                       for k, v in sorted(self_s.items(),
                                          key=lambda kv: -kv[1]))
    print(f"  self time by layer (share of traced wall {rec['wall_s']:.3f} "
          f"s): {shares}; sum {sum(self_s.values()) / rec['wall_s']:.1%}")
    if rec["layer_failures"]:
        print(f"  exceptions leaving a layer: "
              f"{json.dumps(rec['layer_failures'])}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<36} {_fmt(value)} {unit}")
    return rec, [plain, rec], metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--requests", type=int,
                    help="stop each workload after this many requests")
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not os.path.isfile(os.path.join(SRC, "svtkit", "__init__.py")):
        print(f"no svtkit sources under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = []
        for i, name in enumerate(names):
            if args.trace:
                rec, runs, metrics = traced(name, args.seed, args.seconds,
                                            args.requests)
            else:
                rec, runs, metrics = untraced(name, args.seed, args.seconds,
                                              args.requests)
            if i == 0:
                print_machine(rec)
            results.append((name, runs, metrics))
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    prefix = len(names) > 1
    runs = [r for _, rs, _ in results for r in rs]
    print(json.dumps({
        "correct": all(r["wrong"] == 0 for r in runs),
        "attempted": sum(r["requests"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": {
            (f"{name}.{metric}" if prefix else metric):
                {"value": value, "unit": unit}
            for name, _, metrics in results
            for metric, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
