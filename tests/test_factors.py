import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclolrs import factors
from cyclolrs import poly as P
from cyclolrs.cyclotomic import cyclotomic_product, phi_poly
from cyclolrs.factors import (
    FactorIndexReport,
    divides_exactly,
    find_cyclo_factor_indexes,
    phi_value_num,
    random_rational,
    refine_candidates,
)
from cyclolrs.numtheory import divisors, euler_phi, totient_sieve
from oracles import mul_scalar


def verified_set(report):
    return sorted(k for k, ok in report.verified.items() if ok)


def test_phi_value_num_pinned():
    assert phi_value_num(3, 2, 1) == 7
    assert phi_value_num(4, 2, 1) == 5
    assert phi_value_num(6, 2, 1) == 3
    assert phi_value_num(1, 5, 2) == 3
    # 21st value at 2 carries the shared prime 7: 2359 = 7 * 337
    assert phi_value_num(21, 2, 1) == 2359


@settings(max_examples=50, deadline=None)
@given(st.integers(2, 40), st.integers(1, 9), st.integers(1, 9))
def test_phi_value_num_matches_direct(k, p, q):
    import math

    if math.gcd(p, q) != 1 or p <= q:
        return
    f = phi_poly(k)
    assert phi_value_num(k, p, q) == P.eval_rational_num(f, Fraction(p, q))


def test_refine_pinned_full_trace():
    # product of indexes 3 and 6 at beta = 2
    L = list(range(3, 20))
    assert refine_candidates([1, 0, 1, 0, 1], Fraction(2), L) == [3, 6]


def test_refine_divides_out_evaluation_root():
    f = P.mul([-2, 1], [1, 1, 1])
    assert refine_candidates(f, Fraction(2), list(range(3, 20))) == [3]


def test_refine_x2_plus_1():
    assert refine_candidates([1, 0, 1], Fraction(2), [3, 4, 6]) == [4]


def test_refine_subset_property():
    rng = random.Random(7)
    for _ in range(20):
        ks = rng.sample(range(3, 40), rng.randint(1, 4))
        f = cyclotomic_product(ks)
        L = list(range(3, 60))
        out = refine_candidates(f, Fraction(2), L)
        assert set(out) <= set(L)
        assert out == sorted(out)


def test_refine_keeps_saturation_colliders():
    # the 21st value at 2 shares the prime 7 with the 3rd; stripping 7
    # for index 3 must not erase the witness for 21
    f = cyclotomic_product([3, 21])
    out = refine_candidates(f, Fraction(2), list(range(3, 40)))
    assert 3 in out and 21 in out


def test_find_indexes_full_small_product():
    f = cyclotomic_product([1, 2, 3, 6])
    r = find_cyclo_factor_indexes(f, rng=random.Random(1))
    assert r.verified_low == [1, 2]
    assert verified_set(r) == [3, 6]
    assert r.evaluation_points_used[0] == 2


def test_find_indexes_346_products():
    # 2^6 - 1 has no prime unseen at exponents 2 and 3, so the pass at 2
    # would drop a genuine 6; exact division decides 3, 4 and 6 instead
    f = cyclotomic_product([3, 4, 6])
    r = find_cyclo_factor_indexes(f, rng=random.Random(5))
    assert verified_set(r) == [3, 4, 6]


def test_find_indexes_phi3_alone_drops_6():
    r = find_cyclo_factor_indexes(phi_poly(3), rng=random.Random(9))
    assert verified_set(r) == [3]
    assert all(r.verified[k] for k in r.candidates) or 6 not in verified_set(r)


def test_find_indexes_completeness_random_products():
    rng = random.Random(20260822)
    for trial in range(60):
        ks = sorted(rng.sample(range(3, 61), rng.randint(1, 8)))
        f = cyclotomic_product(ks)
        r = find_cyclo_factor_indexes(f, rng=random.Random(trial))
        assert verified_set(r) == ks, (trial, ks)


def test_find_indexes_with_cofactor_and_multiplicity():
    f = P.mul(cyclotomic_product([5, 8]), [3, 0, 1])  # times x^2 + 3
    f = P.mul(f, phi_poly(5))  # squared factor
    r = find_cyclo_factor_indexes(f, rng=random.Random(3))
    assert verified_set(r) == [5, 8]


def test_find_indexes_fixed_divisor_family():
    f = [1]
    for k in range(2, 22):
        f = P.mul(f, P.mul([-1, k], [-k, 1]))
    r = find_cyclo_factor_indexes(f, rng=random.Random(11))
    # evaluation alone may keep tiny indexes; division refutes them
    assert verified_set(r) == []
    assert all(euler_phi(k) <= 4 for k in r.candidates)
    assert r.verified_low == []


def test_divides_exactly():
    f = cyclotomic_product([7, 9, 12])
    assert divides_exactly(f, 7)
    assert divides_exactly(f, 9)
    assert divides_exactly(f, 12)
    assert not divides_exactly(f, 5)
    assert not divides_exactly(f, 36)


def test_random_rational_contract():
    rng = random.Random(0)
    seq = [Fraction(2)]
    for _ in range(200):
        seq.append(random_rational(rng, seq[-1]))
    pairs = [(b.numerator, b.denominator) for b in seq]
    assert pairs == sorted(pairs)
    assert len(set(pairs)) == len(pairs)
    assert all(b > 1 for b in seq)
    rng2 = random.Random(0)
    seq2 = [Fraction(2)]
    for _ in range(200):
        seq2.append(random_rational(rng2, seq2[-1]))
    assert seq == seq2


def test_random_rational_single_step():
    class OneStep:
        def randrange(self, a, b):
            return 1

    assert random_rational(OneStep(), Fraction(2)) == Fraction(3)
    assert random_rational(OneStep(), Fraction(3)) == Fraction(3, 2)
    assert random_rational(OneStep(), Fraction(3, 2)) == Fraction(4)
    assert random_rational(OneStep(), Fraction(4)) == Fraction(4, 3)


def test_report_invariant():
    with pytest.raises(AssertionError):
        FactorIndexReport([], [6, 3], None, [])


def test_unverified_mode():
    f = cyclotomic_product([3, 4])
    r = find_cyclo_factor_indexes(f, rng=random.Random(2), verify=False)
    assert r.verified is None
    assert set(r.candidates) >= {3, 4}


def test_power_of_x_is_stripped_before_the_sieve():
    # x^1000000 used to sieve totients up to 8*10^6; now it answers at once
    rep = find_cyclo_factor_indexes([0] * 1_000_000 + [1], rng=random.Random(1), verify=True)
    assert rep.verified_low == [] and rep.candidates == [] and rep.verified == {}
    f = [0] * 5 + phi_poly(7)
    rep = find_cyclo_factor_indexes(f, rng=random.Random(2), verify=True)
    assert verified_set(rep) == [7]


def phi_divides(f, k):
    """Oracle: long division of f by the monic Phi_k over the integers."""
    rem = P.canonical(f)
    phi = phi_poly(k)
    while len(rem) >= len(phi):
        c, off = rem[-1], len(rem) - len(phi)
        for j, a in enumerate(phi):
            rem[off + j] -= c * a
        rem = P.canonical(rem)
    return rem == []


def true_indexes(f):
    """Every k with phi(k) <= deg f whose Phi_k divides f (such k stay
    below 8 deg f + 8, as k / phi(k) < 8 here).  Phi_k | f needs
    Phi_k(2) | f(2), which screens most k before the division."""
    d = P.degree(f)
    phi = totient_sieve(8 * d + 8)
    f2 = P.eval_int(f, 2)
    return [
        k
        for k in range(1, 8 * d + 9)
        if phi[k] <= d and f2 % P.eval_int(phi_poly(k), 2) == 0 and phi_divides(f, k)
    ]


def found_indexes(report):
    return report.verified_low + [k for k in report.candidates if report.verified[k]]


def test_indexes_match_exact_division_under_content_sign_x_powers_and_x_r():
    # content, sign and powers of x hide no index, and the indexes of
    # g(x^r) are those k with Phi_{k / gcd(k, r)} | g
    rng = random.Random(20261020)
    for trial in range(150):
        g = cyclotomic_product(rng.sample(range(1, 25), rng.randint(0, 3)))
        if rng.random() < 0.7:
            g = P.mul(g, [rng.randint(-9, 9) for _ in range(rng.randint(1, 4))] + [1])
        if P.degree(g) < 1:
            g = [rng.choice([-3, -1, 2]), 1]
        c = rng.choice([1, 2, -3, 6, -1])
        f = [0] * rng.randint(0, 3) + mul_scalar(P.inflate(g, rng.choice([1, 2, 3, 4, 6])), c)
        want = true_indexes(f)
        rep = find_cyclo_factor_indexes(f, rng=random.Random(trial), verify=True)
        assert found_indexes(rep) == want, (trial, f)
        # unverified, every true index is still listed, and the indexes
        # of degree <= 2 are listed only when true (division decides them)
        rep = find_cyclo_factor_indexes(f, rng=random.Random(trial), verify=False)
        listed = set(rep.verified_low) | set(rep.candidates)
        assert set(want) <= listed, (trial, f)
        assert listed & {1, 2, 3, 4, 6} <= set(want), (trial, f)


def spy_refine(monkeypatch):
    """Record (degree of f, offered candidates) for every evaluation pass."""
    seen = []
    refine = factors.refine_candidates

    def spy(f, beta, L):
        seen.append((P.degree(f), list(L)))
        return refine(f, beta, L)

    monkeypatch.setattr(factors, "refine_candidates", spy)
    return seen


def test_composition_evaluates_only_its_core(monkeypatch):
    # 2 (x^2000 - 1) = 2 g(x^2000) with g = x - 1: the 20 divisors of
    # 2000 come from lifting index 1 of g, and no pass sees degree 2000
    seen = spy_refine(monkeypatch)
    rep = find_cyclo_factor_indexes([-2] + [0] * 1999 + [2], rng=random.Random(1))
    assert found_indexes(rep) == list(divisors(2000))
    assert seen and all(d <= 1 for d, _ in seen)


def test_no_pass_is_offered_the_indexes_of_degree_at_most_2(monkeypatch):
    rng = random.Random(20261021)
    ks = sorted({3, 4, 6} | set(rng.sample(range(5, 40), 6)))
    for want in ([3, 4, 6], ks):
        seen = spy_refine(monkeypatch)
        rep = find_cyclo_factor_indexes(cyclotomic_product(want), rng=random.Random(4))
        assert verified_set(rep) == want
        assert seen and all(euler_phi(k) > 2 for _, L in seen for k in L)
