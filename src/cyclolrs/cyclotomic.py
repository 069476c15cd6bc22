"""Cyclotomic polynomial construction and coefficient-height bounds.

Polynomials follow the poly module convention (ascending coefficient
lists).  Heights here are max |a_i|; lookups that fall off the end of a
table return None, meaning no bound is known and callers must assume
coefficients can be arbitrarily large.
"""

from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache

from .numtheory import divisors, euler_phi, factorize, moebius, radical_int


class HeightBoundExceeded(Exception):
    """A truncated-product coefficient exceeded the admissible height."""


@dataclass(frozen=True)
class HeightTable:
    """Step table mapping x to a height bound via the first limit > x.

    thresholds: ascending (limit, bound) pairs, bounds non-decreasing.
    For the builtin table x is a polynomial degree; for a loaded b-file
    x is a prefix length (bound on the first x coefficients of every
    cyclotomic polynomial).
    """

    thresholds: tuple
    source: str = "builtin"

    def __post_init__(self):
        limits = [t[0] for t in self.thresholds]
        if limits != sorted(set(limits)):
            raise ValueError("degree limits must be strictly increasing")
        heights = [t[1] for t in self.thresholds]
        if any(b < a for a, b in zip(heights, heights[1:])):
            raise ValueError("height bounds must be non-decreasing")
        if any(h < 1 for h in heights):
            raise ValueError("height bounds must be positive")

    def lookup(self, x):
        i = bisect_right([t[0] for t in self.thresholds], x)
        if i == len(self.thresholds):
            return None
        return self.thresholds[i][1]


# Max coefficient magnitude of any cyclotomic polynomial of degree below
# the limit.  Extending past degree 8640 needs data we don't carry, so
# larger degrees get no bound.
DEGREE_HEIGHT_TABLE = HeightTable(
    thresholds=(
        (48, 1),
        (240, 2),
        (576, 3),
        (768, 4),
        (1280, 5),
        (1440, 6),
        (3840, 7),
        (5760, 9),
        (8640, 23),
    ),
)


def height_bound_by_degree(d):
    """Bound on the height of any cyclotomic polynomial of degree d,
    or None for degrees past the table."""
    return DEGREE_HEIGHT_TABLE.lookup(d)


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


def phi_suffix(k, m, height_bound=None):
    """First m coefficients of Phi_k for square-free k >= 3.

    Runs the divisor product entirely mod x^m, so divisors >= m never
    enter.  When height_bound is given, any final coefficient beyond it
    raises HeightBoundExceeded; a genuine cyclotomic prefix never
    trips an admissible bound, so the raise doubles as evidence against
    the candidate.
    """
    if k < 2:
        raise ValueError("index must be at least 2")
    c = [0] * m
    c[0] = 1
    for d in divisors(k):
        if d >= m:
            continue
        mu = moebius(k // d)
        if mu == 1:
            for i in range(m - 1, d - 1, -1):
                c[i] -= c[i - d]
        elif mu == -1:
            for i in range(d, m):
                c[i] += c[i - d]
    if height_bound is not None:
        for a in c:
            if abs(a) > height_bound:
                raise HeightBoundExceeded(
                    f"coefficient {a} exceeds bound {height_bound} "
                    f"in prefix of index {k}"
                )
    while c and c[-1] == 0:
        c.pop()
    return c


def outer_coeff_bound(m, n, table=None):
    """Best known bound on the first m coefficients of Phi_n, or None.

    Indexes whose odd prime factors number at most two have height 1,
    and only primes below m can influence the m-prefix, so the same
    rule applies counting just those.  Otherwise the best of a loaded
    prefix table and the degree table is used.
    """
    odd = [p for p, _ in factorize(n) if p != 2]
    if len(odd) <= 2:
        return 1
    if sum(1 for p in odd if p < m) <= 2:
        return 1
    best = None
    if table is not None:
        best = table.lookup(m)
    by_degree = height_bound_by_degree(euler_phi(n))
    if by_degree is not None:
        best = by_degree if best is None else min(best, by_degree)
    return best


def load_bfile(path):
    """Read an OEIS-style b-file of prefix height maxima.

    Lines hold "n a(n)"; '#' starts a comment.  Values are accumulated
    to a running maximum so the table is monotone even if the source
    series dips, and runs of equal bounds collapse to one threshold.
    """
    entries = []
    with open(path, encoding="ascii") as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 2:
                raise ValueError(f"malformed b-file line: {raw!r}")
            entries.append((int(parts[0]), int(parts[1])))
    if not entries:
        raise ValueError("b-file holds no data lines")
    if any(b <= a for (a, _), (b, _) in zip(entries, entries[1:])):
        raise ValueError("b-file indexes must be strictly increasing")
    thresholds = []
    running = 0
    for n, v in entries:
        running = max(running, v)
        if thresholds and thresholds[-1][1] == running:
            thresholds[-1] = (n + 1, running)
        else:
            thresholds.append((n + 1, running))
    return HeightTable(thresholds=tuple(thresholds), source="oeis_bfile")


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
    c = [0] * (total + 1)
    c[0] = 1
    for d, e in sorted(exps.items()):
        if d > total:
            continue
        for _ in range(e):
            for i in range(total, d - 1, -1):
                c[i] -= c[i - d]
        for _ in range(-e):
            for i in range(d, total + 1):
                c[i] += c[i - d]
    if indexes.count(1) % 2:
        c = [-a for a in c]
    while len(c) > 1 and c[-1] == 0:
        c.pop()
    return c
