#!/usr/bin/env python3
"""cyclolrs benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload lrs_scan --seed 1 --seconds 25 --trace 0

Run from the repository root.  This process builds the inputs and their
truths from the seed with the benchmark's own arithmetic (it never
imports cyclolrs), hands only the inputs to a fresh worker interpreter,
and checks every answer.  With --trace 0 it prints the end-to-end
metrics; with --trace 1 it runs a fixed number of rounds twice, untraced
and traced, and prints the per-layer metrics plus the tracing overhead.
The last line of stdout is the JSON result.  See perfbench/README.md.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402

SETUP_PROBES = 7
WORKER_TIMEOUT_S = 150
PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import cyclolrs.cli; print(time.perf_counter() - t)"
)


class BenchError(Exception):
    pass


def setup_seconds(src):
    """Median import time of cyclolrs.cli over fresh interpreters; one
    unrecorded probe first, so compiling bytecode is not counted."""
    times = []
    for i in range(SETUP_PROBES + 1):
        res = subprocess.run(
            [sys.executable, "-I", "-c", PROBE, src],
            capture_output=True, text=True, timeout=60,
        )
        if res.returncode != 0:
            raise BenchError(f"importing cyclolrs failed:\n{res.stderr}")
        if i:
            times.append(float(res.stdout))
    return statistics.median(times)


def run_worker(job):
    res = subprocess.run(
        [sys.executable, "-I", os.path.join(HERE, "worker.py")],
        input=json.dumps(job), capture_output=True, text=True, timeout=WORKER_TIMEOUT_S,
    )
    if res.returncode != 0:
        raise BenchError(f"worker failed:\n{res.stderr}")
    return json.loads(res.stdout)


def score(workload, reqs, truths, out):
    """Correct answers, attempted requests and throughput of one worker
    run.  The worker reports one answer per pool input and how many
    repeats of an input answered differently from its first answer."""
    n = ok = 0
    for req, truth, ans, count, differ in zip(
        reqs, truths, out["answers"], out["counts"], out["mismatches"]
    ):
        n += count
        if count and "error" not in ans and workload.check(req, truth, ans):
            ok += count - differ
    return ok, n, ok / (out["wall_ns"] / 1e9)


def percentile(times_ns, pct):
    """Nearest-rank percentile in ms and how many requests lie beyond it.
    Nearest rank never averages two requests, so with rounds of fixed
    cost classes a percentile stays inside one class."""
    ordered = sorted(times_ns)
    rank = max(1, math.ceil(pct / 100 * len(ordered)))
    return ordered[rank - 1] / 1e6, len(ordered) - rank


def _layer_unit(name):
    if name.endswith("_ms"):
        return "ms"
    return "ratio" if name.endswith(("_ratio", "_per_prime")) else "count"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "cyclolrs", "__init__.py")):
        print(f"no cyclolrs package under {src}; run from the repository root",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    reqs, truths, round_size = workload.pool(args.seed)
    job = {
        "root": root, "workload": workload.name, "requests": reqs,
        "round_size": round_size, "seconds": args.seconds, "rounds": None,
        "time_slots": workload.time_slots, "spans_path": None,
    }
    lines = [f"workload {workload.name}  seed {args.seed}  pool {len(reqs)} requests"]
    try:
        if args.trace:
            job["rounds"] = workload.trace_rounds
            base = run_worker(job)
            spans_dir = os.path.join(root, ".perfbench", "spans")
            os.makedirs(spans_dir, exist_ok=True)
            job["spans_path"] = os.path.join(spans_dir, f"{workload.name}-seed{args.seed}.tsv")
            traced = run_worker(job)
        else:
            setup_s = setup_seconds(src)
            traced = None
            base = run_worker(job)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(exc, file=sys.stderr)
        return 1

    ok, n, throughput = score(workload, reqs, truths, base)
    correct = ok == n
    if traced is None:
        tail_ms, beyond = percentile(base["times_ns"], workload.tail_pct)
        metrics = {
            "throughput_per_s": (throughput, "1/s"),
            "p50_ms": (percentile(base["times_ns"], 50)[0], "ms"),
            "tail_ms": (tail_ms, "ms"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (base["peak_rss_kb"] / 1024, "MB"),
        }
        lines.append(
            f"{n} requests in {base['wall_ns'] / 1e9:.2f} s, closed loop, one caller; "
            f"error_rate {(n - ok) / n:.4g} ({n - ok} of {n}); "
            f"tail is p{workload.tail_pct:g} with {beyond} requests beyond it; "
            f"worker import {base['import_s']:.4f} s"
        )
    else:
        t_ok, t_n, t_throughput = score(workload, reqs, truths, traced)
        correct = correct and t_ok == t_n
        ok, n = ok + t_ok, n + t_n
        metrics = {k: (v, _layer_unit(k)) for k, v in traced["layers"].items()}
        metrics["trace.throughput_per_s"] = (t_throughput, "1/s")
        metrics["trace.overhead_ratio"] = (throughput / t_throughput, "ratio")
        lines.append(
            f"{workload.trace_rounds} rounds, {t_n} requests, untraced then traced; "
            f"untraced throughput {throughput:.4g}/s; spans in {job['spans_path']}"
        )
        if traced["absent"]:
            lines.append("absent (reported as 0): " + ", ".join(traced["absent"]))
    for name, (value, unit) in metrics.items():
        lines.append(f"{name:48} {value:.6g} {unit}")
    print("\n".join(lines))
    print(json.dumps({
        "correct": correct,
        "attempted": n,
        "failed": n - ok,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
