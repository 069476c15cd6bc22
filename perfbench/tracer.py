"""Outside-in tracing: spans around calls into each cyclolrs layer, from
the benchmark's own files.

Every traced function is replaced, in every cyclolrs module namespace
that binds it, by a wrapper that records a span (name, start, end,
parent span, request id).  Replacing only the defining module would miss
callers that imported the function by name, as lrs does with the modpoly
kernels.  Spans stay in memory; self time is derived after the run.
Observers read arguments and return values to count work done and kept,
so ratios are measured where the work happens.
"""

import sys
from array import array
from time import perf_counter_ns

LAYERS = ("numtheory", "poly", "modpoly", "cyclotomic", "recognize", "factors", "lrs", "cli")


# (layer, span name, attribute, {counter: observer(args, out) -> number})
POINTS = (
    ("numtheory", "find_prime_in_progression", "find_prime_in_progression", {}),
    ("numtheory", "primitive_root", "primitive_root", {}),
    ("numtheory", "is_prime", "is_prime", {}),
    ("numtheory", "factorize", "factorize", {}),
    ("numtheory", "inverse_totient", "inverse_totient", {}),
    ("poly", "gcd_poly", "gcd_poly", {}),
    ("poly", "div_exact", "div_exact", {}),
    ("poly", "graeffe", "graeffe", {}),
    ("poly", "is_squarefree", "is_squarefree", {}),
    ("poly", "eval_rational_num", "eval_rational_num", {}),
    ("modpoly", "mul_lists_mod", "mul_lists_mod", {}),
    ("modpoly", "rem_lists_fast", "rem_lists_fast", {}),
    ("modpoly", "gcd_lists_mod", "gcd_lists_mod", {}),
    ("modpoly", "inv_series_mod", "inv_series_mod", {}),
    ("cyclotomic", "phi_poly", "phi_poly", {}),
    ("cyclotomic", "phi_suffix", "phi_suffix", {}),
    ("recognize", "cyclo_index", "cyclo_index", {}),
    ("recognize", "quick_checks", "quick_checks",
     {"decided": lambda args, out: out.verdict is not None}),
    ("factors", "find_indexes", "find_cyclo_factor_indexes",
     {"points": lambda args, out: len(out.evaluation_points_used)}),
    ("factors", "refine", "refine_candidates",
     {"offered": lambda args, out: len(args[2]), "kept": lambda args, out: len(out)}),
    ("factors", "verify", "divides_exactly", {"true": lambda args, out: bool(out)}),
    ("lrs", "scan", "lrs_degeneracy_orders", {}),
    ("lrs", "preprocess", "preprocess", {}),
    ("lrs", "sieve", "lrs_order_candidates", {"candidates": lambda args, out: len(out.orders)}),
    ("lrs", "partition", "_batch_partition", {"batches": lambda args, out: len(out)}),
    ("lrs", "batch_filter", "_batch_survivors",
     {"offered": lambda args, out: len(args[1][2]), "kept": lambda args, out: len(out)}),
    ("lrs", "order_test", "_modular_test", {"true": lambda args, out: bool(out)}),
    ("lrs", "verify", "verify_order", {"true": lambda args, out: bool(out)}),
)

SPAN_NAMES = tuple(f"{layer}.{name}" for layer, name, _, _ in POINTS)

# spans whose time including traced children is reported as .total_ms:
# exact verification does its work in poly children
INCLUSIVE = ("lrs.verify",)

# derived per-layer metrics: name -> (numerator, denominator); a name
# ending in .calls or .self_ms is read straight off the span table
RATIOS = {
    "recognize.quick_checks.decided_ratio": ("recognize.quick_checks.decided", "recognize.quick_checks.calls"),
    "factors.refine.kept_ratio": ("factors.refine.kept", "factors.refine.offered"),
    "factors.verify.true_ratio": ("factors.verify.true", "factors.verify.calls"),
    "lrs.batch_filter.kept_ratio": ("lrs.batch_filter.kept", "lrs.batch_filter.offered"),
    "lrs.order_test.kept_ratio": ("lrs.order_test.true", "lrs.order_test.calls"),
    "lrs.verify.true_ratio": ("lrs.verify.true", "lrs.verify.calls"),
    "numtheory.prime_search.tests_per_prime": (
        "numtheory.prime_search.tests", "numtheory.find_prime_in_progression.calls"),
}


class Tracer:
    """Span store plus the wrappers that feed it."""

    def __init__(self):
        self.name = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("l")
        self.request = array("l")
        self.counters = {
            f"{layer}.{span}.{key}": 0 for layer, span, _, obs in POINTS for key in obs
        }
        self.absent = []  # traced names the library lacks, or whose
        # arguments or results no longer have the observed shape
        self.request_id = -1
        self._stack = [-1]

    def _wrap(self, sid, fn, observers):
        name, start, end = self.name, self.start, self.end
        parent, request, stack = self.parent, self.request, self._stack
        counters, absent = self.counters, self.absent

        def traced(*args, **kwargs):
            i = len(name)
            name.append(sid)
            parent.append(stack[-1])
            request.append(self.request_id)
            end.append(0)
            stack.append(i)
            start.append(perf_counter_ns())
            try:
                out = fn(*args, **kwargs)
            finally:
                end[i] = perf_counter_ns()
                stack.pop()
            for key, observe in observers:
                try:
                    counters[key] += observe(args, out)
                except (AttributeError, IndexError, KeyError, TypeError):
                    if key not in absent:
                        absent.append(key)
            return out

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Wrap every traced function in every cyclolrs namespace.  A name
        the library no longer defines is recorded as absent."""
        mods = [sys.modules[f"cyclolrs.{m}"] for m in LAYERS]
        for sid, (layer, span, attr, observers) in enumerate(POINTS):
            home = sys.modules[f"cyclolrs.{layer}"]
            fn = getattr(home, attr, None)
            if fn is None:
                self.absent.append(f"{layer}.{span}")
                continue
            obs = [(f"{layer}.{span}.{key}", o) for key, o in observers.items()]
            wrapper = self._wrap(sid, fn, obs)
            for mod in mods:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, key, wrapper)

    def metrics(self):
        """Per-layer counts and self times, keyed as in BENCHMARK.json."""
        n = len(self.name)
        child = [0] * n
        start, end, parent, name = self.start, self.end, self.parent, self.name
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        calls = [0] * len(POINTS)
        self_ns = [0] * len(POINTS)
        total_ns = [0] * len(POINTS)
        prime_sid = SPAN_NAMES.index("numtheory.find_prime_in_progression")
        test_sid = SPAN_NAMES.index("numtheory.is_prime")
        tests = 0
        for i in range(n):
            sid = name[i]
            calls[sid] += 1
            total_ns[sid] += end[i] - start[i]
            self_ns[sid] += end[i] - start[i] - child[i]
            if sid == test_sid and parent[i] >= 0 and name[parent[i]] == prime_sid:
                tests += 1
        out = {}
        for sid, span in enumerate(SPAN_NAMES):
            out[f"{span}.calls"] = calls[sid]
            out[f"{span}.self_ms"] = self_ns[sid] / 1e6
            if span in INCLUSIVE:
                out[f"{span}.total_ms"] = total_ns[sid] / 1e6
        out.update(self.counters)
        out["numtheory.prime_search.tests"] = tests
        for key, (num, den) in RATIOS.items():
            out[key] = out.get(num, 0) / out[den] if out.get(den) else 0.0
        return out

    def write_spans(self, path):
        """One line per span: name, start_ns, end_ns, parent, request."""
        with open(path, "w") as fh:
            fh.write("name\tstart_ns\tend_ns\tparent\trequest\n")
            for i in range(len(self.name)):
                fh.write(
                    f"{SPAN_NAMES[self.name[i]]}\t{self.start[i]}\t{self.end[i]}\t"
                    f"{self.parent[i]}\t{self.request[i]}\n"
                )
