"""Cyclotomicity testing and index recovery.

Two complete pipelines sit behind cyclo_index: a truncated-prefix
search over inverse-totient candidates, which keeps a candidate exactly
while its coefficients match the input's, and an evaluate-at-2 method
that reads the index off the multiplicative order of 2 modulo f(2).
Both share the same quick-check cascade, which either decides on the
spot or strips the input to a square-free-index core plus an inflation
exponent.

Verdict tags name the first check that rejected ("Q1" monic, "Q2" odd
degree, "Q3" constant term, "Q4a" subleading coefficient, "Q4b" pure
binomial, "Q4c" deflation shape, "Q4d" inflation arithmetic, and "Q4e"
core/inflation compatibility).
"""

from collections import namedtuple

from . import poly as P
from .cyclotomic import phi_poly, phi_suffix
from .numtheory import (
    euler_phi,
    inverse_totient,
    moebius,
    radical_int,
)

# k/phi(k) stays below 7 for every index whose degree is below this, so
# six extra blocks of d bits are enough for the order search
_EVAL_DEGREE_LIMIT = 36_495_360


class CycloVerdict(
    namedtuple(
        "CycloVerdict", "outcome index method checks_failed", defaults=(None, None, None)
    )
):
    """outcome: "cyclotomic", "not_cyclotomic" or "candidate_unverified";
    method: "prefix" or "eval"."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.outcome == "not_cyclotomic":
            assert self.index is None
        else:
            assert self.index is not None and self.index >= 1
        return self


# either a decided verdict or a core to hand to the index search
QuickChecksOutcome = namedtuple(
    "QuickChecksOutcome", "verdict core inflation", defaults=(None, None, 1)
)


def _not_cyclo(tag):
    return QuickChecksOutcome(
        verdict=CycloVerdict(outcome="not_cyclotomic", checks_failed=tag)
    )


def quick_checks(f):
    """Cheap structural cascade.

    Decides outright where possible; otherwise returns a monic core g
    of even degree with subleading coefficient in {-1, +1} and the
    inflation exponent r such that f = g(x^r).  A core index j then
    lifts to r*j, legal only when every prime of r divides j.
    """
    d = P.degree(f)
    if d < 1:
        raise ValueError("input must be non-constant")
    if f[-1] != 1:
        return _not_cyclo("Q1")
    if d % 2 == 1:
        if f == [-1, 1]:
            return QuickChecksOutcome(verdict=CycloVerdict("cyclotomic", 1))
        if f == [1, 1]:
            return QuickChecksOutcome(verdict=CycloVerdict("cyclotomic", 2))
        return _not_cyclo("Q2")
    if f[0] != 1:
        return _not_cyclo("Q3")
    sub = f[-2]
    if sub not in (-1, 0, 1):
        return _not_cyclo("Q4a")
    if all(c == 0 for c in f[1:-1]):
        # f = x^d + 1, cyclotomic exactly for two-power degree
        if d & (d - 1) == 0:
            return QuickChecksOutcome(verdict=CycloVerdict("cyclotomic", 2 * d))
        return _not_cyclo("Q4b")
    if sub != 0:
        return QuickChecksOutcome(core=list(f), inflation=1)
    g, r, d0 = P.deflate(f)
    assert d0 == 0  # constant term is 1
    if r == 1 or g[-2] == 0:
        # a vanishing subleading coefficient must come from inflation
        return _not_cyclo("Q4c")
    dg = d // r
    if dg % 2 == 1 or dg % euler_phi(radical_int(r)) != 0:
        return _not_cyclo("Q4d")
    return QuickChecksOutcome(core=g, inflation=r)


def _assemble(j, r, verify_ok, method, verified):
    if r > 1 and j % radical_int(r) != 0:
        return CycloVerdict("not_cyclotomic", method=method, checks_failed="Q4e")
    if not verify_ok:
        return CycloVerdict("not_cyclotomic", method=method)
    outcome = "cyclotomic" if verified else "candidate_unverified"
    return CycloVerdict(outcome, r * j, method=method)


def _core_matches_prefix(g, j, m):
    want = g[:m] + [0] * (m - len(g[:m]))
    suf = phi_suffix(j, m)
    have = suf + [0] * (m - len(suf))
    return want == have


def cyclo_index_prefix(f, verify=True):
    """Index search by truncated-coefficient comparison.

    Candidates are the square-free inverse-totient values of the core
    degree whose Moebius value matches the subleading coefficient.
    Survivors of growing prefix comparisons (32, then fourfold steps)
    shrink to at most one; with verify set the sole survivor is checked
    by half-degree prefix plus palindromicity, which pins every
    coefficient of a palindromic polynomial.
    """
    qc = quick_checks(f)
    if qc.verdict is not None:
        return qc.verdict._replace(method="prefix")
    g, r = qc.core, qc.inflation
    dg = P.degree(g)
    target = -g[-2]
    cands = [n for n in inverse_totient(dg) if moebius(n) == target]
    m = 32
    while len(cands) > 1:
        cands = [n for n in cands if _core_matches_prefix(g, n, m)]
        m *= 4
    if not cands:
        return CycloVerdict("not_cyclotomic", method="prefix")
    j = cands[0]
    ok = not verify or (P.is_palindromic(g) and _core_matches_prefix(g, j, dg // 2 + 1))
    return _assemble(j, r, ok, "prefix", verified=verify)


def cyclo_index_eval(f, verify=True):
    """Index search through the multiplicative order of 2 modulo f(2).

    A genuine index-k input has f(2) dividing 2^k - 1, so sliding the
    exponent in d-size blocks must hit a plain power of 2 within six
    steps; the block count and the leftover exponent recover k.  The
    degree-2 polynomial with f(2) = 3 hides its order this way and is
    matched directly instead.
    """
    qc = quick_checks(f)
    if qc.verdict is not None:
        return qc.verdict._replace(method="eval")
    g, r = qc.core, qc.inflation
    dg = P.degree(g)
    if dg >= _EVAL_DEGREE_LIMIT:
        raise ValueError("degree too large for the evaluation method")
    if g == [1, -1, 1]:
        return _assemble(6, r, True, "eval", verified=verify)
    v = P.eval_int(g, 2)
    if not (1 << (dg - 1)) < v < (1 << (dg + 1)):
        return CycloVerdict("not_cyclotomic", method="eval")
    block = pow(2, dg, v)
    a = block
    j = None
    for rp in range(2, 8):
        a = a * block % v
        if a and a & (a - 1) == 0:
            s = a.bit_length() - 1
            k = rp * dg - s
            if k >= 3 and euler_phi(k) == dg:
                j = k
                break
    if j is None:
        return CycloVerdict("not_cyclotomic", method="eval")
    ok = not verify or g == phi_poly(j)
    return _assemble(j, r, ok, "eval", verified=verify)


def cyclo_index(f, method="prefix", verify=True):
    """Front door: route to the chosen pipeline."""
    if method == "prefix":
        return cyclo_index_prefix(f, verify=verify)
    if method == "eval":
        return cyclo_index_eval(f, verify=verify)
    raise ValueError(f"unknown method {method!r}")
