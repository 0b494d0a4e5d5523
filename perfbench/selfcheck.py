"""Small-size self-check of the benchmark.

    python3 perfbench/selfcheck.py

Runs every workload untraced and traced at a few requests under two seeds
and checks that the result line has the agreed keys, that every metric of
BENCHMARK.json prints by name with its unit, and that both seeds give the
same metric set.  Finally it runs the benchmark in a directory that holds
only BENCHMARK.json and the benchmark's files, where it must fail without
printing a result.  Exits 0 when every check passes.
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEEDS = (1, 2)
REQUESTS = 3


def _run(cwd, workload, seed, trace):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "5", "--trace", str(trace),
         "--requests", str(REQUESTS)],
        cwd=cwd, capture_output=True, text=True, timeout=600)


def check_run(spec, workload, seed, trace) -> tuple[list[str], set]:
    proc = _run(ROOT, workload, seed, trace)
    where = f"{workload} seed {seed} trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}: {proc.stderr[-500:]}"], set()
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    if not result["attempted"] >= 1:
        problems.append(f"{where}: nothing attempted")
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    if set(result["metrics"]) != set(units):
        problems.append(f"{where}: metrics {sorted(result['metrics'])}")
    human = "\n".join(lines[:-1])
    if not trace:
        units["fail_rate"] = "ratio"
    for name, unit in units.items():
        got = result["metrics"].get(name, {"unit": unit, "value": 0.0})
        if got["unit"] != unit or not isinstance(got["value"], (int, float)):
            problems.append(f"{where}: {name} reads {got}")
        if not any(line.split()[:1] == [name] and line.split()[2] == unit
                   for line in human.splitlines() if len(line.split()) > 2):
            problems.append(f"{where}: no line '{name} <value> {unit}'")
    return problems, set(result["metrics"])


def check_without_program() -> list[str]:
    """Only BENCHMARK.json and perfbench/: no result, nonzero exit."""
    bare = os.path.join(ROOT, ".perfbench_tmp", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        proc = _run(bare, "synth", 1, 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"without src/: exit {proc.returncode}, "
                f"stdout {proc.stdout[-200:]!r}"]
    return []


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    problems = []
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            sets = []
            for seed in SEEDS:
                found, names = check_run(spec, workload, seed, trace)
                problems += found
                sets.append(names)
            if sets[0] != sets[1]:
                problems.append(f"{workload} trace {trace}: metric sets "
                                f"differ between seeds")
            print(f"{workload} trace {trace}: checked", flush=True)
    problems += check_without_program()
    for problem in problems:
        print(f"FAIL {problem}")
    print("selfcheck:", "FAIL" if problems else "PASS")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
