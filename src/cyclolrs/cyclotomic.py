"""Cyclotomic polynomial construction.

Polynomials follow the poly module convention (ascending coefficient
lists).  Every builder here expands a product of binomials (1 - x^d)^e
truncated mod x^m: Phi_k is the product over d | k with e = mu(k/d),
and the signs of x^d - 1 against 1 - x^d cancel for every k > 1.
"""

from functools import lru_cache

from .numtheory import divisors, euler_phi, moebius, radical_int


def _binomial_product(exps, m):
    """The first m coefficients of the product of (1 - x^d)^e over the
    (d, e) pairs, e of either sign."""
    c = [0] * m
    c[0] = 1
    for d, e in exps:
        if d >= m:
            continue
        for _ in range(e):
            for i in range(m - 1, d - 1, -1):
                c[i] -= c[i - d]
        for _ in range(-e):
            for i in range(d, m):
                c[i] += c[i - d]
    return c


@lru_cache(maxsize=4096)
def _phi_squarefree(r):
    return tuple(phi_suffix(r, euler_phi(r) + 1))


def phi_poly(k):
    """The k-th cyclotomic polynomial.

    Built for the square-free radical of k, then carried to k by the
    x -> x^(k/rad) substitution.  Results are memoized; the returned
    list is a fresh copy each call.
    """
    if k < 1:
        raise ValueError("index must be positive")
    if k == 1:
        return [-1, 1]
    r = radical_int(k)
    base = _phi_squarefree(r)
    q = k // r
    if q == 1:
        return list(base)
    out = [0] * ((len(base) - 1) * q + 1)
    for j, a in enumerate(base):
        out[j * q] = a
    return out


def phi_suffix(k, m):
    """First m coefficients of Phi_k for square-free k >= 3, trailing
    zeros dropped.

    Runs the divisor product entirely mod x^m, so divisors >= m never
    enter.
    """
    if k < 2:
        raise ValueError("index must be at least 2")
    c = _binomial_product(((d, moebius(k // d)) for d in divisors(k)), m)
    while c and c[-1] == 0:
        c.pop()
    return c


def cyclotomic_product(indexes):
    """Product of Phi_k over a multiset of indexes, via one exponent
    vector over binomials x^d - 1 so huge products stay cheap."""
    if not indexes:
        return [1]
    exps = {}
    for k in indexes:
        for d in divisors(k):
            mu = moebius(k // d)
            if mu:
                exps[d] = exps.get(d, 0) + mu
    total = sum(euler_phi(k) for k in indexes)
    c = _binomial_product(sorted(exps.items()), total + 1)
    if indexes.count(1) % 2:
        c = [-a for a in c]
    while len(c) > 1 and c[-1] == 0:
        c.pop()
    return c
