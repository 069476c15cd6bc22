"""Checks on the benchmark itself: its reference arithmetic, its truths,
and that traced counts repeat and land on the layers each workload claims.

    python3 -m pytest -q perfbench/tests
"""

import json
import math
import random
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "perfbench"))
sys.path.insert(0, str(ROOT / "src"))

import reference as R  # noqa: E402
import workloads as W  # noqa: E402
from cyclolrs.lrs import cdm_algorithm1  # noqa: E402


def test_phi_products_give_binomials():
    for n in range(1, 61):
        prod = [1]
        for d in R.divisors_small(n):
            prod = R.poly_mul(prod, list(R.phi(d)))
        assert prod == [-1] + [0] * (n - 1) + [1], n


def test_cyclotomic_product_matches_factorwise_product():
    rng = random.Random(3)
    ks = rng.sample(range(1, 60), 6)
    prod = [1]
    for k in ks:
        prod = R.poly_mul(prod, list(R.phi(k)))
    assert R.cyclotomic_product(sorted(ks)) == prod


@pytest.mark.parametrize(
    "pair, lam, deg_r",
    [((5, 3), 2, 3), ((5, 4), 3, 4), ((7, 4), 2, 3), ((5, 6), 5, 3),
     ((3, 10), 7, 2), ((9, 2), 3, 4), ((7, 3), 2, 3)],
)
def test_verify_truth_matches_cdm_oracle(pair, lam, deg_r):
    f, orders = W.verify_input(random.Random(f"{pair}{lam}"), pair, lam, deg_r)
    assert len(f) - 1 <= 12
    g = math.gcd(*f)  # the oracle wants a content-free input
    assert orders == cdm_algorithm1([c // g for c in f])


def test_near_miss_collisions_are_detected():
    f = list(R.phi(24))
    f[4] += 1
    assert f == list(R.phi(16)) and W.is_some_phi(f)
    rng = random.Random(5)
    assert not any(W.is_some_phi(W._near_miss(rng, 24)) for _ in range(50))


def _traced(workload):
    res = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
    )
    out = json.loads(res.stdout.strip().splitlines()[-1])
    assert out["correct"] and out["failed"] == 0
    return {k: v["value"] for k, v in out["metrics"].items()}


COUNT_SUFFIXES = (".calls", ".candidates", ".batches", "_ratio", "_per_prime",
                  ".offered", ".kept", ".true", ".decided", ".points", ".tests")


@pytest.fixture(scope="module", params=sorted(W.WORKLOADS))
def traced_pair(request):
    return request.param, _traced(request.param), _traced(request.param)


def test_traced_counts_repeat(traced_pair):
    _, first, second = traced_pair
    counts = {k: v for k, v in first.items()
              if k.endswith(COUNT_SUFFIXES) and not k.startswith("trace.")}
    assert counts == {k: second[k] for k in counts}


def _layer_self_ms(metrics):
    out = {}
    for k, v in metrics.items():
        if k.endswith(".self_ms"):
            layer = k.split(".")[0]
            out[layer] = out.get(layer, 0.0) + v
    return out


def test_each_workload_loads_its_layer(traced_pair):
    name, m, _ = traced_pair
    layers = _layer_self_ms(m)
    if name == "lrs_scan":
        assert m["lrs.verify.calls"] == 0
        assert max(layers, key=layers.get) == "modpoly"
    elif name == "lrs_verify":
        # verify_order does its work in poly children, so its inclusive
        # time carries the share; the busiest single span is one of them
        busiest = max((k for k in m if k.endswith(".self_ms")), key=m.get)
        assert busiest.rsplit(".", 1)[0] in (
            "lrs.verify", "poly.gcd_poly", "poly.div_exact", "poly.graeffe")
        assert m["lrs.verify.total_ms"] > 0.5 * sum(layers.values())
    else:
        assert all(m[f"modpoly.{fn}.calls"] == 0 for fn in
                   ("mul_lists_mod", "rem_lists_fast", "gcd_lists_mod", "inv_series_mod"))
