"""Independent arithmetic for building benchmark inputs and their truths.

Nothing here imports cyclolrs: the inputs and expected answers of every
workload come from this file, so a defect in the library cannot make its
own answers look right.  Polynomials are ascending coefficient lists, as
in the library.
"""

import math
from fractions import Fraction
from functools import lru_cache


@lru_cache(maxsize=None)
def factor_small(n):
    """Prime factorization of a small positive integer as ((p, e), ...)."""
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
        p += 1
    if n > 1:
        out.append((n, 1))
    return tuple(out)


def divisors_small(n):
    divs = [1]
    for p, e in factor_small(n):
        divs = [d * p**j for d in divs for j in range(e + 1)]
    return sorted(divs)


def mobius_small(n):
    fac = factor_small(n)
    if any(e > 1 for _, e in fac):
        return 0
    return -1 if len(fac) % 2 else 1


def euler_phi_small(n):
    out = n
    for p, _ in factor_small(n):
        out -= out // p
    return out


def totient_table(limit):
    phi = list(range(limit + 1))
    for p in range(2, limit + 1):
        if phi[p] == p:
            for m in range(p, limit + 1, p):
                phi[m] -= phi[m] // p
    return phi


def _times_one_minus_xd(c, d):
    # c * (1 - x^d), truncated to len(c)
    return c[:d] + [a - b for a, b in zip(c[d:], c)]


def _over_one_minus_xd(c, d):
    # c / (1 - x^d) as a power series truncated to len(c): block recurrence
    c = list(c)
    for start in range(d, len(c), d):
        c[start : start + d] = [a + b for a, b in zip(c[start : start + d], c[start - d : start])]
    return c


def binomial_product(exps, degree):
    """prod over d of (1 - x^d)^exps[d], exact when the product is a
    polynomial of the given degree (it is computed as a series)."""
    c = [1] + [0] * degree
    for d, e in sorted(exps.items()):
        if d > degree:
            continue
        for _ in range(e):
            c = _times_one_minus_xd(c, d)
        for _ in range(-e):
            c = _over_one_minus_xd(c, d)
    return c


def _phi_exponents(k, exps):
    for d in divisors_small(k):
        mu = mobius_small(k // d)
        if mu:
            exps[d] = exps.get(d, 0) + mu


@lru_cache(maxsize=None)
def phi(k):
    """Phi_k as a tuple, from prod over d | k of (x^d - 1)^mu(k/d)."""
    if k == 1:
        return (-1, 1)
    exps = {}
    _phi_exponents(k, exps)
    # for k > 1 the mu-sum vanishes, so the (1 - x^d) form has no sign flip
    return tuple(binomial_product(exps, euler_phi_small(k)))


def cyclotomic_product(ks):
    """prod of Phi_k over distinct indexes ks, through one exponent vector
    over the binomials x^d - 1."""
    exps = {}
    for k in ks:
        _phi_exponents(k, exps)
    c = binomial_product(exps, sum(euler_phi_small(k) for k in ks))
    if 1 in ks:  # sum of the mu-exponents is the number of k = 1
        c = [-a for a in c]
    return c


def poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def rem_monic(f, g):
    """Remainder of f by the monic g over the integers, trailing zeros cut."""
    r = list(f)
    dg = len(g) - 1
    while len(r) - 1 >= dg and r:
        c = r[-1]
        off = len(r) - 1 - dg
        if c:
            for j in range(dg):
                r[off + j] -= c * g[j]
        r.pop()
        while r and r[-1] == 0:
            r.pop()
    return r


def eval_int(f, x):
    acc = 0
    for a in reversed(f):
        acc = acc * x + a
    return acc


@lru_cache(maxsize=None)
def phi_at_2(k):
    """Phi_k(2) by the Moebius product of 2^d - 1."""
    num = den = 1
    for d in divisors_small(k):
        mu = mobius_small(k // d)
        if mu == 1:
            num *= (1 << d) - 1
        elif mu == -1:
            den *= (1 << d) - 1
    return num // den


def has_cyclotomic_factor(f):
    """Does some Phi_k divide f?  Only phi(k) <= deg f can, and
    phi(k) >= sqrt(k/2) bounds the indexes to try."""
    d = len(f) - 1
    return any(
        euler_phi_small(k) <= d and not rem_monic(f, phi(k))
        for k in range(1, 2 * d * d + 1)
    )


def root_angles(k):
    """Roots of Phi_k as fractions of a full turn."""
    return [Fraction(i, k) for i in range(k) if math.gcd(i, k) == 1]


def degeneracy_orders(indexes):
    """All k >= 2 such that two distinct roots of prod Phi_a(lam*x) over a
    in indexes have ratio a primitive k-th root of unity.

    The roots are lam^-1 times roots of unity, so each ratio is
    exp(2 pi i (s - t)) for root angles s, t, and its order is the
    denominator of s - t reduced mod 1.
    """
    angles = sorted({t for a in indexes for t in root_angles(a)})
    orders = set()
    for s in angles:
        for t in angles:
            if s != t:
                orders.add(((s - t) % 1).denominator)
    return sorted(orders)
