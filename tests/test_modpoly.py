import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclolrs import poly as P
from cyclolrs.cyclotomic import phi_poly
from cyclolrs.lrs import _twist
from cyclolrs.modpoly import (
    _rem_lists,
    ddf_degrees,
    gcd_lists_mod,
    inv_series_mod,
    mul_lists_mod,
    rem_lists_fast,
)
from cyclolrs.numtheory import factorize, primitive_root


def monic(a, p):
    inv = pow(a[-1], -1, p)
    return [c * inv % p for c in a]


def test_gcd_mod_pinned():
    assert gcd_lists_mod([4, 0, 1], [4, 1], 5) == [4, 1]
    assert gcd_lists_mod([1, 0, 1], [2, 0, 1], 5) == [1]
    f = [3, 5, 2]
    assert gcd_lists_mod(f, f, 7) == monic(f, 7)
    assert gcd_lists_mod([], [2], 5) == [1]
    assert gcd_lists_mod([], [], 5) == []


def test_scale_arg_mod_pinned():
    f = [1, 1, 1]
    assert _twist(f, 1, 13) == f
    assert _twist([1, 0, 1], 5, 13) == [1, 0, 12]


@settings(max_examples=60)
@given(st.data())
def test_scale_roundtrip_and_multiplicative(data):
    p = data.draw(st.sampled_from([5, 7, 13, 31]))
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    deg = rng.randint(0, 6)
    f = [rng.randrange(p) for _ in range(deg)] + [rng.randrange(1, p)]
    c1 = rng.randrange(1, p)
    c2 = rng.randrange(1, p)
    assert _twist(_twist(f, c1, p), c2, p) == _twist(f, c1 * c2 % p, p)
    inv = pow(c1, -1, p)
    assert _twist(_twist(f, c1, p), inv, p) == f
    twisted = _twist(f, c1, p)
    assert len(twisted) == len(f) and twisted[-1] != 0


@settings(max_examples=40)
@given(st.data())
def test_gcd_mod_common_factor(data):
    p = data.draw(st.sampled_from([5, 7, 13]))
    rng = random.Random(data.draw(st.integers(0, 10**6)))

    def rand_fp(dmax):
        deg = rng.randint(0, dmax)
        return [rng.randrange(p) for _ in range(deg)] + [rng.randrange(1, p)]

    f, g, h = rand_fp(4), rand_fp(4), rand_fp(3)
    d = gcd_lists_mod(mul_lists_mod(f, h, p), mul_lists_mod(g, h, p), p)
    expected = mul_lists_mod(monic(h, p), gcd_lists_mod(f, g, p), p)
    assert d == monic(expected, p)


def test_degenerate_pair_visible_at_every_primitive_root():
    # product of the 3rd and 5th cyclotomic polynomials: root ratios
    # realize every 15th root of unity, so each primitive root makes
    # the scaled gcd nontrivial
    f = P.mul(phi_poly(3), phi_poly(5))
    p = 31
    fbar = [a % p for a in f]
    assert fbar[-1] != 0
    z = pow(primitive_root(p, 15, factorize(15)), (p - 1) // 15, p)
    for j in range(1, 15):
        if math.gcd(j, 15) != 1:
            continue
        zeta = pow(z, j, p)
        g = gcd_lists_mod(fbar, _twist(fbar, zeta, p), p)
        assert len(g) >= 2, (j, zeta)


def test_gcd_mod_coprime_case():
    # x and x+1 share nothing over any field
    assert gcd_lists_mod([0, 1], [1, 1], 13) == [1]


@settings(max_examples=60)
@given(st.data())
def test_mul_lists_matches_schoolbook(data):
    p = data.draw(st.sampled_from([5, 97, 1_000_003, 2_147_483_647]))
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    a = [rng.randrange(p) for _ in range(rng.randint(1, 9))]
    b = [rng.randrange(p) for _ in range(rng.randint(1, 9))]
    ref = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            ref[i + j] = (ref[i + j] + x * y) % p
    while ref and ref[-1] == 0:
        ref.pop()
    assert mul_lists_mod(a, b, p) == ref
    assert mul_lists_mod(a, [], p) == []


@settings(max_examples=40)
@given(st.data())
def test_inv_series_is_a_series_inverse(data):
    p = 1_000_003
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    e = rng.randint(1, 12)
    f = [rng.randrange(1, p)] + [rng.randrange(p) for _ in range(rng.randint(0, 8))]
    g = inv_series_mod(f, e, p)
    assert len(g) == e
    prod = mul_lists_mod(f, g, p)[:e]
    prod += [0] * (e - len(prod))
    assert prod == [1] + [0] * (e - 1)


def test_inv_series_needs_unit():
    with pytest.raises(ValueError):
        inv_series_mod([0, 1], 4, 7)


@settings(max_examples=60)
@given(st.data())
def test_fast_remainder_matches_elimination(data):
    p = data.draw(st.sampled_from([97, 1_000_003]))
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    df = rng.randint(1, 8)
    f = [rng.randrange(p) for _ in range(df)] + [rng.randrange(1, p)]
    a = [rng.randrange(p) for _ in range(rng.randint(0, 2 * df))] + [
        rng.randrange(1, p)
    ]
    inv = inv_series_mod(f[::-1], df + 1, p)
    assert rem_lists_fast(a, f, inv, p) == _rem_lists(list(a), f, p)


def _factor_degrees_by_trial_division(f, p):
    # strip monic irreducibles of increasing degree: the first divisor of
    # each degree found after all smaller degrees are gone is irreducible
    f = gcd_lists_mod(f, f, p)  # monic copy
    out = []
    e = 1
    while len(f) > 1:
        if 2 * e > len(f) - 1:
            return out + [len(f) - 1]
        for tail in itertools.product(range(p), repeat=e):
            g = list(tail) + [1]
            if not _rem_lists(f, g, p):
                out.append(e)
                f = _exact_quotient(f, g, p)
                break
        else:
            e += 1
    return out


def _exact_quotient(a, g, p):
    # schoolbook division of a by monic g, remainder known to be zero
    a = list(a)
    dg = len(g) - 1
    q = [0] * (len(a) - dg)
    for i in range(len(a) - 1, dg - 1, -1):
        c = a[i]
        q[i - dg] = c
        for j in range(dg + 1):
            a[i - dg + j] = (a[i - dg + j] - c * g[j]) % p
    return q


@pytest.mark.parametrize("p", [5, 7])
def test_ddf_degrees_match_trial_division(p):
    rng = random.Random(p)
    seen = 0
    for _ in range(300):
        n = rng.randint(1, 7)
        f = [rng.randrange(p) for _ in range(n)] + [rng.randrange(1, p)]
        deriv = [j * a % p for j, a in enumerate(f)][1:]
        if len(gcd_lists_mod(f, deriv, p)) > 1:
            continue  # ddf_degrees wants a square-free image
        assert ddf_degrees(f, p) == sorted(_factor_degrees_by_trial_division(f, p)), f
        seen += 1
    assert seen >= 100


def test_ddf_degrees_pinned():
    # x^4 + 1 splits into quadratics mod 3 and into linear factors mod 17;
    # x^5 - x - 1 is irreducible mod 5 (an Artin-Schreier polynomial)
    assert ddf_degrees([1, 0, 0, 0, 1], 3) == [2, 2]
    assert ddf_degrees([1, 0, 0, 0, 1], 17) == [1, 1, 1, 1]
    assert ddf_degrees([-1, -1, 0, 0, 0, 1], 5) == [5]
    # Phi_11 splits into factors of degree ord_11(p)
    for p, e in [(2, 10), (3, 5), (23, 1), (43, 2)]:
        assert ddf_degrees(phi_poly(11), p) == [e] * (10 // e)


def test_mul_lists_low_coefficients():
    p = 1_000_003
    a, b = [3, 0, 5, 7], [2, 9, 1]
    full = mul_lists_mod(a, b, p)
    assert mul_lists_mod(a, b, p, 3) == full[:3]
    assert mul_lists_mod([0, 0, 1], [0, 1], p, 2) == [0, 0]
    assert mul_lists_mod(a, [], p, 2) == [0, 0]
