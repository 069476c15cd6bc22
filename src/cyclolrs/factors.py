"""Cyclotomic factor-index detection by rational evaluation.

The driver evaluates f at a handful of rationals beta > 1 and keeps the
indexes k whose evaluation numerator Phi_k(beta)_num still divides the
accumulated integer N.  Primitive prime factors of p^k - q^k make true
indexes immortal under this refinement, while random points starve the
false ones.  An optional exact trial division pass settles whatever
survives.

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

# beta values whose index-3/4/6 evaluation numerators all carry a prime
# factor above 10^4, used once when the candidate list first stabilizes
SPECIAL_POINTS = (Fraction(117, 98), Fraction(133, 18), Fraction(169, 6))

_POINT_CAP = 1 << 16


class FactorIndexReport(
    namedtuple(
        "FactorIndexReport", "verified_low candidates verified evaluation_points_used"
    )
):
    """verified_low: subset of [1, 2], established by root test;
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


def _rem_monic(f, g):
    # remainder of f by monic g over the integers
    r = list(f)
    dg = P.degree(g)
    while P.degree(r) >= dg:
        c = r[-1]
        off = len(r) - 1 - dg
        for j in range(dg):
            r[off + j] -= c * g[j]
        r.pop()
        while r and r[-1] == 0:
            r.pop()
    return r


def divides_exactly(f, k):
    """Does Phi_k divide f?  Reduces f mod x^k - 1 by exponent folding
    first, so the expensive division happens below degree k."""
    folded = [0] * k
    for j, a in enumerate(f):
        folded[j % k] += a
    while folded and folded[-1] == 0:
        folded.pop()
    return _rem_monic(folded, phi_poly(k)) == []


def _initial_candidates(bound):
    # all k >= 3 with phi(k) <= bound, sieved up to a proven ceiling
    if bound < 1:
        return []
    limit = totient_ceiling(bound)
    phi = totient_sieve(limit)
    return [k for k in range(3, limit + 1) if phi[k] <= bound]


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

    First evaluation point is always 2; afterwards seeded random points
    refine the list until it stops changing.  The first stabilization
    triggers one extra pass at a point chosen to starve indexes 3, 4
    and 6, which plain points have trouble excluding.  Index 6 gets
    re-added after the initial pass at 2 because 2^6 - 1 carries no
    prime unseen at smaller exponents, so a genuine 6 can vanish there.
    """
    f = P.canonical(f)
    if P.degree(f) < 1:
        raise ValueError("input must be non-constant")
    if rng is None:
        rng = random.Random()
    if len(f) - f.count(0) < 2:  # c x^n: no index at all
        return FactorIndexReport([], [], {} if verify else None, [])
    g, r, _ = P.deflate(P.primitive_part(f))
    low = []
    if P.eval_int(g, 1) == 0:
        low.append(1)
    if P.eval_int(g, -1) == 0:
        low.append(2)
    L = _initial_candidates(_run_bound(g))
    points = []
    beta = Fraction(2)
    had6 = 6 in L
    points.append(beta)
    refined = refine_candidates(g, beta, L)
    if had6 and 6 not in refined:
        refined = sorted(refined + [6])
    L = refined
    special_done = False
    while L:
        beta = random_rational(rng, beta)
        points.append(beta)
        new = refine_candidates(g, beta, L)
        if new == L:
            if special_done:
                break
            special_done = True
            sp = rng.choice(SPECIAL_POINTS)
            points.append(sp)
            new = refine_candidates(g, sp, L)
            if new == L:
                break
        L = new
    # the indexes 1 and 2 of g are exact; every other j waits on division
    verdict = dict.fromkeys(low, True)
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
