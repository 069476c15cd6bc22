import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclolrs import poly as P
from cyclolrs.cyclotomic import cyclotomic_product, phi_poly, phi_suffix
from cyclolrs.numtheory import euler_phi, moebius


def test_phi_poly_pinned():
    assert phi_poly(1) == [-1, 1]
    assert phi_poly(2) == [1, 1]
    assert phi_poly(3) == [1, 1, 1]
    assert phi_poly(6) == [1, -1, 1]
    assert phi_poly(9) == [1, 0, 0, 1, 0, 0, 1]
    assert phi_poly(12) == [1, 0, -1, 0, 1]
    # first height-2 coefficient anywhere: x^7 in the 105th polynomial
    assert phi_poly(105)[7] == -2
    with pytest.raises(ValueError):
        phi_poly(0)


def test_phi_poly_returns_fresh_lists():
    a = phi_poly(12)
    a[0] = 99
    assert phi_poly(12) == [1, 0, -1, 0, 1]


def test_phi_poly_degree_is_totient():
    ks = list(range(1, 401)) + list(range(401, 3001, 37))
    ks += [1024, 2048, 2187, 2310, 2999, 3000]
    for k in ks:
        assert P.degree(phi_poly(k)) == euler_phi(k), k


def test_phi_poly_classical_product():
    for k in list(range(1, 151)) + [180, 210, 240, 256, 287, 300]:
        prod = [1]
        for d in range(1, k + 1):
            if k % d == 0:
                prod = P.mul(prod, phi_poly(d))
        assert prod == [-1] + [0] * (k - 1) + [1], k


def test_phi_poly_palindromic_and_constant_term():
    rng = random.Random(17)
    for k in list(range(3, 120)) + [rng.randint(120, 1000) for _ in range(40)]:
        f = phi_poly(k)
        assert P.is_palindromic(f), k
        assert f[0] == 1, k
    assert phi_poly(2)[0] == 1


def test_phi_suffix_pinned():
    assert phi_suffix(15, 4) == [1, -1, 0, 1]
    assert phi_suffix(3, 10) == [1, 1, 1]
    assert phi_suffix(105, 8) == phi_poly(105)[:8]


def test_phi_suffix_matches_truncation():
    rng = random.Random(23)
    squarefree = [k for k in range(3, 301) if moebius(k) != 0]
    squarefree += [
        k for k in (rng.randint(301, 1000) for _ in range(120)) if moebius(k) != 0
    ]
    for k in squarefree:
        full = phi_poly(k)
        for m in (8, 32, 128):
            want = full[:m]
            while want and want[-1] == 0:
                want.pop()
            assert phi_suffix(k, m) == want, (k, m)


def test_cyclotomic_product_pinned():
    assert cyclotomic_product([]) == [1]
    assert cyclotomic_product([1, 2]) == [-1, 0, 1]
    assert cyclotomic_product([3, 6]) == [1, 0, 1, 0, 1]
    assert cyclotomic_product([1]) == [-1, 1]


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(1, 40), min_size=1, max_size=6))
def test_cyclotomic_product_matches_fold(indexes):
    want = [1]
    for k in indexes:
        want = P.mul(want, phi_poly(k))
    assert cyclotomic_product(indexes) == want


def test_cyclotomic_product_large_degree():
    f = cyclotomic_product([997, 991])
    assert P.degree(f) == 996 + 990
    assert f[-1] == 1
    assert f == P.mul(phi_poly(997), phi_poly(991))

