"""One workload process: reads a job (the generated requests) as JSON on
stdin, imports cyclolrs cold, answers the requests in a closed loop and
writes answers, per-request wall times and peak memory as JSON on stdout.

One caller, no threads: each request starts when the previous one has
returned.  The loop runs whole rounds until the time is up, or a fixed
number of rounds when a round count is given (traced runs), so counts
repeat exactly.
"""

import json
import os
import random
import resource
import sys
from array import array
from time import perf_counter, perf_counter_ns


def _lrs(lrs, req):
    rep = lrs.lrs_degeneracy_orders(req["f"], rng=req["rng"], verify=True, mode=req["mode"])
    return [[k, s] for k, s in rep.orders]


def _factors(factors, req):
    rep = factors.find_cyclo_factor_indexes(
        req["f"], rng=random.Random(req["rng"]), verify=req["verify"]
    )
    verified = None
    if rep.verified is not None:
        verified = [k for k in rep.candidates if rep.verified[k]]
    return {"low": rep.verified_low, "candidates": rep.candidates, "verified": verified}


def _index(recognize, req):
    v = recognize.cyclo_index(req["f"], method=req["method"])
    return [v.outcome, v.index]


# workload -> (front-door module, call); the module attribute is looked
# up on every request, so a traced wrapper installed on it is seen
CALLS = {
    "lrs_scan": ("lrs", _lrs),
    "lrs_verify": ("lrs", _lrs),
    "factors_products": ("factors", _factors),
    "index_batch": ("recognize", _index),
}


def main():
    job = json.load(sys.stdin)
    sys.path.insert(0, os.path.join(job["root"], "src"))
    t0 = perf_counter()
    import cyclolrs.cli  # noqa: F401  pulls in every module

    import_s = perf_counter() - t0
    modname, call = CALLS[job["workload"]]
    module = sys.modules[f"cyclolrs.{modname}"]
    tracer = None
    if job["spans_path"]:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    pool = job["requests"]
    size = job["round_size"]
    rounds = job["rounds"]
    # the bookkeeping must not grow with throughput, or a faster library
    # would read as a memory regression: answers are kept once per pool
    # input, and time samples go to a preallocated array
    first = [None] * len(pool)
    counts = [0] * len(pool)
    mismatches = [0] * len(pool)  # repeats answered unlike the first time
    slots = job["time_slots"]
    times = array("q", [0]) * slots
    deadline = perf_counter_ns() + int(job["seconds"] * 1e9)
    i = 0
    start = perf_counter_ns()
    while True:
        for _ in range(size):
            j = i % len(pool)
            if tracer:
                tracer.request_id = i
            t = perf_counter_ns()
            try:
                ans = call(module, pool[j])
            except Exception as exc:  # a raised request counts as failed
                ans = {"error": f"{type(exc).__name__}: {exc}"}
            dt = perf_counter_ns() - t
            if i < slots:
                times[i] = dt
            else:
                times.append(dt)
            if counts[j] == 0:
                first[j] = ans
            elif ans != first[j]:
                mismatches[j] += 1
            counts[j] += 1
            i += 1
        if rounds is not None:
            if i >= rounds * size:
                break
        elif perf_counter_ns() >= deadline:
            break
    wall_ns = perf_counter_ns() - start
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    del times[i:]

    out = {
        "answers": first,
        "counts": counts,
        "mismatches": mismatches,
        "times_ns": times.tolist(),
        "wall_ns": wall_ns,
        "import_s": import_s,
        "peak_rss_kb": peak_rss_kb,
    }
    if tracer:
        out["layers"] = tracer.metrics()
        out["absent"] = tracer.absent
        tracer.write_spans(job["spans_path"])
    json.dump(out, sys.stdout)


if __name__ == "__main__":
    main()
