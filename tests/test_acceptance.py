"""End-to-end acceptance checks.

One test per acceptance criterion, each printing a single PASS/FAIL
line (run with -s to see them on success).  Wall-clock budgets are
generous CI-grade bounds, not performance targets.
"""

import random
import time
from fractions import Fraction

from cyclolrs import factors as F
from cyclolrs import poly as P
from cyclolrs.cyclotomic import cyclotomic_product, phi_poly, phi_suffix
from cyclolrs.lrs import (
    cdm_algorithm1,
    lrs_degeneracy_orders,
    lrs_order_candidates,
    preprocess,
)
from cyclolrs.numtheory import divisors, euler_phi, moebius
from cyclolrs.recognize import cyclo_index
from oracles import cdm_algorithm2_first_order, graeffe, inverse_totient_max

SEED = 20260822


def _line(n, ok, detail):
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {n}: {detail}"


def test_criterion_1_cyclotomic_round_trip():
    t0 = time.perf_counter()
    failures = []
    for k in range(1, 3001):
        f = phi_poly(k)
        for method in ("prefix", "eval"):
            v = cyclo_index(f, method=method, verify=True)
            if v.outcome != "cyclotomic" or v.index != k:
                failures.append((k, method))
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed <= 60
    _line(1, ok, f"k <= 3000 both methods, {len(failures)} failures, {elapsed:.1f}s")


def test_criterion_2_non_cyclotomic_rejection():
    accepts = []
    v = cyclo_index([1, 0, 1, 0, 1], verify=True)
    if v.outcome == "cyclotomic":
        accepts.append("product")
    # additive perturbation vanishing at 1, -1, 2 and 1/2, so value
    # filters at those points cannot tell it from the true polynomial
    pert_core = P.mul(P.mul([-1, 0, 1], [-1, 0, 1]), [2, -5, 2])
    ks = [15, 16, 17, 19, 21, 23, 25, 27, 33, 34]
    for k in ks:
        d = euler_phi(k)
        assert d >= 8
        f = P.add(phi_poly(k), [0] * (d // 2 - 3) + pert_core)
        for t in (1, -1, 2):
            assert P.eval_int(f, t) == P.eval_int(phi_poly(k), t)
        for method in ("prefix", "eval"):
            if cyclo_index(f, method=method, verify=True).outcome == "cyclotomic":
                accepts.append((k, method))
    _line(2, not accepts, f"10 adversarial indexes rejected, false accepts {accepts}")


def test_criterion_3_factor_index_recovery_at_scale():
    rng = random.Random(SEED)
    worst = 0.0
    problems = []
    for trial in range(10):
        want = set(rng.sample(range(1, 1001), 50))
        f = cyclotomic_product(sorted(want))
        t0 = time.perf_counter()
        rep = F.find_cyclo_factor_indexes(
            f, rng=random.Random(rng.randrange(2**32)), verify=True
        )
        elapsed = time.perf_counter() - t0
        worst = max(worst, elapsed)
        got = set(rep.verified_low) | {k for k in rep.candidates if rep.verified[k]}
        if got != want:
            problems.append((trial, "recovery", sorted(want ^ got)))
        for k in rep.candidates:
            if not rep.verified[k] and euler_phi(k) > 4:
                problems.append((trial, "high-degree false positive", k))
        if elapsed > 10:
            problems.append((trial, "slow", round(elapsed, 2)))
    ok = not problems
    _line(3, ok, f"10 random 50-products exact, worst case {worst:.2f}s, {problems}")


def test_criterion_4_fixed_divisor_family():
    f = [1]
    for k in range(2, 202):
        f = P.mul(f, P.mul([-1, k], [-k, 1]))
    # a single evaluation point is fooled: low-degree indexes survive
    start = F._initial_candidates(F._run_bound(f))
    first = F.refine_candidates(f, Fraction(2), start)
    one_point_ok = first and all(euler_phi(k) <= 12 for k in first)
    rep = F.find_cyclo_factor_indexes(f, rng=random.Random(SEED), verify=True)
    accepted = list(rep.verified_low) + [k for k in rep.candidates if rep.verified[k]]
    survivors_low = all(euler_phi(k) <= 12 for k in rep.candidates)
    ok = bool(one_point_ok) and not accepted and survivors_low
    _line(
        4,
        ok,
        f"one-point candidates {len(first)} (all low degree), "
        f"final accepts {accepted}",
    )


def test_criterion_5_exact_order_cases():
    cases = [
        ([2, 4, 2, 0, 1], [8]),
        ([3, 0, 0, 6, 6, 3, 1], [18]),
        (cyclotomic_product([3, 5]), [3, 5, 15]),
        ([3, 3, 1], [6]),
        ([-2, 0, 1], [2]),
        ([-3, 0, 1], [2]),
        ([-5, 0, 1], [2]),
        (P.mul([5, 6, 5], [5, 8, 5]), [4]),
        ([5, 6, 5], []),
        ([5, 8, 5], []),
    ]
    bad = []
    for f, want in cases:
        got = lrs_degeneracy_orders(f, rng=SEED, verify=True).verified_orders()
        if want == [4]:
            if 4 not in got:
                bad.append((f, got, want))
        elif got != want:
            bad.append((f, got, want))
    _line(5, not bad, f"{len(cases)} exact-order cases, mismatches {bad}")


def _degenerate_corpus(rng):
    out = []
    for k in (3, 4, 5, 6, 7, 8, 9, 10, 12, 14, 15, 16, 18, 20, 24, 30):
        out.append(phi_poly(k))
    for a, b in [
        (3, 4), (3, 5), (3, 6), (3, 7), (3, 9), (3, 12), (3, 14), (3, 18),
        (4, 5), (4, 6), (4, 7), (4, 9), (4, 12), (5, 6), (5, 8), (5, 10),
        (5, 12), (6, 7), (6, 9), (6, 14), (8, 10), (8, 12), (10, 12),
    ]:
        out.append(P.mul(phi_poly(a), phi_poly(b)))
    for _ in range(8):
        g = [rng.randint(1, 30), rng.randint(-30, 30), rng.randint(1, 30)]
        out.append(P.mul(g, [g[0], -g[1], g[2]]))
    out.append(P.mul([5, 6, 5], [5, 8, 5]))
    out.append(P.mul([7, 2, 7], [7, 11, 7]))
    out.append(P.mul([7, 2, 7], [7, 13, 7]))
    out.append([a * 2**j for j, a in enumerate(phi_poly(5))])
    out.append(P.reverse([2, 4, 2, 0, 1]))
    return out


def test_criterion_6_oracle_equivalence():
    rng = random.Random(SEED)
    corpus = _degenerate_corpus(rng)
    while len(corpus) < 220:
        d = rng.randint(2, 8)
        f = [rng.randint(-1024, 1024) for _ in range(d)] + [rng.randint(1, 1024)]
        if f[0] == 0:
            f[0] = 1
        corpus.append(f)
    compared = 0
    mismatches = []
    for f in corpus:
        core, _ = preprocess(f)
        if P.degree(core) < 2:
            continue
        want = cdm_algorithm1(core)
        got = lrs_degeneracy_orders(
            core, rng=rng.randrange(2**32), verify=True
        ).verified_orders()
        if got != want:
            mismatches.append((core, got, want))
        if want and min(want) >= 3:
            first = cdm_algorithm2_first_order(core)
            if first != min(want):
                mismatches.append((core, "first", first, min(want)))
        compared += 1
    ok = compared >= 200 and not mismatches
    _line(6, ok, f"{compared} polynomials against both oracles, {len(mismatches)} mismatches")


def test_criterion_7_random_nondegeneracy_trend():
    rng = random.Random(SEED)
    times = {}
    leftover = []
    for d in (25, 50, 100):
        f = [rng.randint(-1024, 1024) for _ in range(d)] + [rng.randint(1, 1024)]
        if f[0] == 0:
            f[0] = 1
        t0 = time.perf_counter()
        rep = lrs_degeneracy_orders(f, rng=rng.randrange(2**32), verify=True)
        times[d] = time.perf_counter() - t0
        if rep.verified_orders():
            leftover.append((d, rep.orders))
    monotone = times[25] <= times[50] <= times[100]
    ok = not leftover and times[100] <= 20 and monotone
    _line(
        7,
        ok,
        f"no orders at degree 25/50/100; "
        f"{times[25]:.2f}/{times[50]:.2f}/{times[100]:.2f}s, monotone {monotone}",
    )


def test_criterion_8_candidate_sieve_shrinkage():
    ratios = {}
    for d in (10, 20, 40):
        kept = len(lrs_order_candidates(d).orders)
        naive = inverse_totient_max(d * d - d) - 2  # k ranges over 3..kmax
        ratios[d] = kept / naive
    ok = all(0.25 <= r <= 0.50 for r in ratios.values())
    pretty = {d: round(r, 3) for d, r in ratios.items()}
    _line(8, ok, f"kept/naive ratios {pretty} all within [0.25, 0.50]")


def test_criterion_9_property_spot_checks():
    probs = []
    # moebius and totient against brute force
    for n in range(1, 200):
        if euler_phi(n) != sum(1 for a in range(1, n + 1) if _gcd(a, n) == 1):
            probs.append(("phi", n))
        if sum(moebius(d) for d in divisors(n)) != (1 if n == 1 else 0):
            probs.append(("mu", n))
    # graeffe against the resultant definition, up to the sign lost to
    # positive-leading normalization
    for f, k in [([3, 1, 1], 4), ([5, 6, 5], 5), ([-7, 2, 0, 1], 6)]:
        pts = list(range(P.degree(f) + 1))
        vals = [P.resultant(f, [t] + [0] * (k - 1) + [-1]) for t in pts]
        oracle = P._interpolate_int(pts, vals)
        got = graeffe(f, k)
        if got != oracle and got != P.neg(oracle):
            probs.append(("graeffe", f, k))
    # product over divisors recovers x^k - 1
    for k in range(1, 301):
        prod = [1]
        for d in divisors(k):
            prod = P.mul(prod, phi_poly(d))
        if prod != [-1] + [0] * (k - 1) + [1]:
            probs.append(("product", k))
    # prefix computation matches the full expansion (trailing zeros of
    # the truncation are stripped on both sides)
    for k in (105, 255, 1155, 2310):
        pre = phi_poly(k)[:40]
        while pre and pre[-1] == 0:
            pre.pop()
        if phi_suffix(k, 40) != pre:
            probs.append(("prefix", k))
    # realized degeneracy orders of single cyclotomics
    for k, want in [(9, [3, 9]), (6, [3]), (12, [2, 3, 6]), (20, [2, 5, 10])]:
        got = lrs_degeneracy_orders(phi_poly(k), rng=3).verified_orders()
        if got != want:
            probs.append(("orders", k, got))
    # determinism under a fixed seed
    f = cyclotomic_product([4, 9, 25])
    a = F.find_cyclo_factor_indexes(f, rng=random.Random(8), verify=True)
    b = F.find_cyclo_factor_indexes(f, rng=random.Random(8), verify=True)
    if a != b:
        probs.append("factors determinism")
    if lrs_degeneracy_orders([3, 3, 1], rng=12) != lrs_degeneracy_orders([3, 3, 1], rng=12):
        probs.append("lrs determinism")
    _line(9, not probs, f"module property spot checks, problems {probs}")


def _gcd(a, b):
    while b:
        a, b = b, a % b
    return a
