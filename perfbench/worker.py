"""Run one workload in a fresh interpreter and print its record as JSON.

    python3 perfbench/worker.py --workload W --seed N --seconds S
                                [--requests K] [--trace]

A closed loop with one client: each request is sent when the previous one
has returned and been checked.  The run is the number of whole blocks that
``workloads.blocks_for`` gives for ``--seconds`` (cut short after
``--requests`` requests).  The record lists every request's kind, latency
and outcome in order, so that replays of one seed can be matched request
by request.  Only the request itself is timed; input
generation and the output checks run between requests.  The last line of
output is the run's record.
"""
from __future__ import annotations

import argparse
import os
import sys

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:  # before numpy is imported anywhere
    os.environ[_var] = "1"

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
REQUEST_LIMIT_S = 60  # a request running longer is stopped and counted failed

import collections  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import time  # noqa: E402


class RequestTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise RequestTimeout(f"request ran over {REQUEST_LIMIT_S} s")


def machine() -> dict:
    import mpmath
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        import gmpy2  # noqa: F401
        has_gmpy2 = True
    except ImportError:
        has_gmpy2 = False
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "gmpy2": has_gmpy2,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def _bucket(value: int) -> str:
    lo = 1 << max(value.bit_length() - 1, 0)
    return f"{lo}-{2 * lo - 1}"


def run(name, seed, seconds, max_requests, tracer):
    import workloads

    tmp_root = os.path.join(ROOT, ".perfbench_tmp")
    tmp_dir = os.path.join(tmp_root, str(os.getpid()))
    os.makedirs(tmp_dir)
    latencies, uses, failures, samples = [], [], collections.Counter(), []
    kinds, ok = [], []
    wrong, check_s = 0, 0.0
    keys, repeats = set(), 0
    dims, degrees = collections.Counter(), collections.Counter()
    signal.signal(signal.SIGALRM, _on_alarm)
    try:
        blocks = workloads.stream(name, seed, tmp_dir)
        for _ in range(workloads.blocks_for(name, seconds)):
            for req in next(blocks)[:max_requests - len(latencies)]:
                repeats += req.key in keys
                kinds.append(f"{req.kind}:{req.dim}")
                keys.add(req.key)
                if req.dim:
                    dims[req.dim] += 1
                if tracer is not None:
                    tracer.request = len(latencies)
                error = None
                signal.alarm(REQUEST_LIMIT_S)
                start = time.perf_counter()
                try:
                    out = req.run()
                except Exception as exc:  # every failure is counted
                    error = exc
                finally:
                    latencies.append(time.perf_counter() - start)
                    signal.alarm(0)
                ok.append(False)
                if error is None:
                    start = time.perf_counter()
                    try:
                        problem = req.check(out)
                    except Exception as exc:
                        problem = f"check raised {exc!r}"
                    check_s += time.perf_counter() - start
                    if problem:
                        wrong += 1
                        kind = "wrong_output"
                    else:
                        ok[-1] = True
                        uses.append(req.uses(out))
                        degrees[_bucket(uses[-1])] += 1
                        continue
                else:
                    kind = getattr(error, "kind", type(error).__name__)
                    problem = str(error)
                failures[f"{req.kind}:{kind}"] += 1
                if len(samples) < 5:
                    samples.append(f"{req.kind}: {problem}"[:300])
    finally:
        shutil.rmtree(tmp_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(tmp_root)  # only when no other run is using it
    record = {
        "workload": name, "seed": seed,
        "requests": len(latencies), "failed": sum(failures.values()),
        "wrong": wrong, "wall_s": sum(latencies), "check_s": check_s,
        "latencies": latencies, "kinds": kinds, "ok": ok,
        "uses": uses, "failures": dict(failures), "failure_samples": samples,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "inputs": {
            "degree_histogram": dict(sorted(
                degrees.items(), key=lambda kv: int(kv[0].split("-")[0]))),
            "dimension_histogram": dict(sorted(dims.items())),
            "repeat_share": repeats / max(len(latencies), 1),
        },
    }
    return record


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--requests", type=int, default=sys.maxsize)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args(argv)

    sys.path.insert(0, SRC)
    import svtkit

    if not os.path.abspath(svtkit.__file__).startswith(SRC + os.sep):
        print(f"svtkit imported from {svtkit.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install(svtkit)
    record = run(args.workload, args.seed, args.seconds, args.requests,
                 tracer)
    record["machine"] = machine()
    if tracer is not None:
        metrics, by_type = tracing.layer_metrics(
            tracer.spans, record["wall_s"], record["requests"])
        record["layers"] = metrics
        record["layer_failures"] = by_type
        record["spans"] = len(tracer.spans)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
