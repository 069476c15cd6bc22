import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from cyclolrs.numtheory import euler_phi


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
    # 2^6 - 1 has no prime unseen at exponents 2 and 3, so index 6 needs
    # the re-add after the pass at 2
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
    r2 = find_cyclo_factor_indexes(f, rng=random.Random(3), preprocess=True)
    assert verified_set(r2) == [5, 8]


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
