"""Cyclotomic factor-index detection by rational evaluation.

The driver evaluates f at a handful of rationals beta = p/q > 1 and
keeps the indexes k whose evaluation numerator Phi_k(beta)_num still
divides the accumulated integer N.  By Zsigmondy's theorem p^k - q^k
has a prime factor dividing no p^j - q^j with j < k for every k >= 3
except (p, q, k) = (2, 1, 6); that primitive prime divides Phi_k(beta)_num
and survives the stripping of earlier survivors' primes, so a true
index with phi(k) > 2 outlives every pass, while random points starve
the false ones.  Exact division decides the five indexes with
phi(k) <= 2 (1, 2, 3, 4 and 6) instead: after folding f mod x^k - 1 it
costs almost nothing, the theorem has exceptions at k = 1 and 2 and at
beta = 2 for k = 6, and values as small as Phi_3(beta) and Phi_4(beta)
divide N by chance too often to be starved.  An optional exact trial
division pass settles whatever else survives.

All of this runs on the primitive deflated core g of f = c x^e g(x^r)
only; the indexes of g lift to those of f exactly (poly.lift).
"""

import math
import random
from collections import namedtuple
from fractions import Fraction

from . import poly as P
from .cyclotomic import phi_poly
from .numtheory import divisors, euler_phi, moebius, saturate, totient_ceiling, totient_sieve

_POINT_CAP = 1 << 16


class FactorIndexReport(
    namedtuple(
        "FactorIndexReport", "verified_low candidates verified evaluation_points_used"
    )
):
    """verified_low: subset of [1, 2], established by exact division;
    candidates: surviving indexes >= 3, ascending; verified: index ->
    bool, or None when verification skipped."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        assert self.candidates == sorted(set(self.candidates))
        return self


def phi_value_num(k, p, q):
    """Numerator of Phi_k at p/q, i.e. q^phi(k) * Phi_k(p/q), as the
    exact Moebius quotient of p^d - q^d over the divisors of k."""
    num = 1
    den = 1
    for d in divisors(k):
        mu = moebius(k // d)
        if mu == 1:
            num *= p**d - q**d
        elif mu == -1:
            den *= p**d - q**d
    v, r = divmod(num, den)
    assert r == 0
    return v


def refine_candidates(f, beta, L):
    """One evaluation pass: keep the candidates whose evaluation value
    still divides N = gcd(f(beta)_num, f(1/beta)_num).

    Roots at beta itself are divided out first.  Divisibility is tested
    against the saturation-stripped value so indexes sharing primes
    with earlier survivors are not lost.
    """
    p, q = beta.numerator, beta.denominator
    v1 = P.eval_rational_num(f, beta)
    while v1 == 0 and P.degree(f) >= 1:
        f = P.div_exact(f, [-p, q])
        v1 = P.eval_rational_num(f, beta)
    v2 = P.eval_rational_num(P.reverse(f), beta)
    N = math.gcd(v1, v2)
    d = P.degree(f)
    kept = []
    strip = 1
    for k in sorted(L):
        if N == 1:
            break
        if euler_phi(k) > d:
            continue
        g = math.gcd((pow(p, k, N) - pow(q, k, N)) % N, N)
        if g == 1:
            continue
        t = saturate(phi_value_num(k, p, q), strip)
        if N % t != 0:
            continue
        kept.append(k)
        N = saturate(N, g)
        strip *= g
    return kept


def _lex_successor(p, q):
    # next reduced fraction > 1 in the (numerator, denominator) order
    q += 1
    while True:
        if q >= p:
            p += 1
            q = 1
        if math.gcd(p, q) == 1:
            return p, q
        q += 1


def random_rational(rng, previous):
    """Jump forward a seeded random number of steps in the lexicographic
    enumeration of reduced fractions > 1; never revisits a value."""
    p, q = previous.numerator, previous.denominator
    for _ in range(rng.randrange(1, 64)):
        p, q = _lex_successor(p, q)
    if p > _POINT_CAP:
        raise RuntimeError("evaluation point budget exhausted")
    return Fraction(p, q)


def divides_exactly(f, k):
    """Does Phi_k divide f?  Reduces f mod x^k - 1 by exponent folding
    first, so the expensive division happens below degree k."""
    folded = [0] * k
    for j, a in enumerate(f):
        folded[j % k] += a
    return P._divides(phi_poly(k), folded)


def _initial_candidates(bound):
    # all k with 2 < phi(k) <= bound, sieved up to a proven ceiling
    if bound < 3:
        return []
    limit = totient_ceiling(bound)
    phi = totient_sieve(limit)
    return [k for k in range(1, limit + 1) if 2 < phi[k] <= bound]


def _run_bound(f):
    """Degree of any cyclotomic factor is at most deg f - (r+s+2) when
    some common divisor > 1 spans the r+1 lowest and s+1 highest
    coefficients: reduction mod any of its primes keeps the factor's
    full degree while the runs force degree loss and an x-power shift.

    f must be primitive with f(0) != 0.  Content spans every
    coefficient, and the bound would then go negative."""
    d = P.degree(f)
    g = math.gcd(f[0], f[-1])
    if g == 1:
        return d
    r = 0
    while r + 1 < len(f) and math.gcd(g, f[r + 1]) != 1:
        g = math.gcd(g, f[r + 1])
        r += 1
    s = 0
    while s + 1 < len(f) - r - 1 and math.gcd(g, f[-2 - s]) != 1:
        g = math.gcd(g, f[-2 - s])
        s += 1
    return min(d, d - (r + s + 2))


def find_cyclo_factor_indexes(f, rng=None, verify=True):
    """Locate the indexes of every cyclotomic factor of f.

    Content, sign and powers of x hide no index, and Phi_k divides
    g(x^r) iff Phi_j divides g with j = k / gcd(k, r).  So f is written
    once as c x^e g(x^r), with g primitive and r maximal; only g is
    evaluated and divided, and each index j of g lifts to the indexes
    poly.lift(j, r) of f with the verdict of j.

    The five indexes of degree at most 2 (1, 2, 3, 4 and 6) are decided
    by exact division.  Every other k with phi(k) <= _run_bound(g) is
    refined by one pass at 2, then by seeded random points until one
    leaves the list unchanged.
    """
    f = P.canonical(f)
    if P.degree(f) < 1:
        raise ValueError("input must be non-constant")
    if rng is None:
        rng = random.Random()
    if len(f) - f.count(0) < 2:  # c x^n: no index at all
        return FactorIndexReport([], [], {} if verify else None, [])
    g, r, _ = P.deflate(P.primitive_part(f))
    verdict = {j: True for j in (1, 2, 3, 4, 6) if divides_exactly(g, j)}
    L = _initial_candidates(_run_bound(g))
    points = [Fraction(2)]
    L = refine_candidates(g, points[-1], L)
    while L:
        points.append(random_rational(rng, points[-1]))
        new = refine_candidates(g, points[-1], L)
        if new == L:
            break
        L = new
    for j in L:
        verdict[j] = divides_exactly(g, j) if verify else None
    lifted = {k: ok for j, ok in verdict.items() for k in P.lift(j, r)}
    candidates = sorted(k for k in lifted if k > 2)
    return FactorIndexReport(
        verified_low=sorted(k for k in lifted if k <= 2),
        candidates=candidates,
        verified={k: lifted[k] for k in candidates} if verify else None,
        evaluation_points_used=points,
    )
