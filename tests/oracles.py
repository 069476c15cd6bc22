"""Reference oracles shared by several test modules.

None of these is on a pipeline path; the tests cross-check the library
against them.  graeffe and cdm_algorithm2_first_order are the Graeffe
first-order test of Cipu, Diouf and Mignotte (Testing degenerate
polynomials, 2012).
"""

from functools import lru_cache

from cyclolrs import poly as P
from cyclolrs.lrs import _negate_arg
from cyclolrs.numtheory import factorize, totient_ceiling, totient_sieve
from cyclolrs.poly import _interpolate_int, _res_standard, add, canonical, mul, neg, sub


@lru_cache(maxsize=None)
def inverse_totient_max(d):
    """The largest n with phi(n) <= d: an exact totient sieve up to the
    totient_ceiling."""
    bound = totient_ceiling(d)
    phi = totient_sieve(bound)
    return max(n for n in range(1, bound + 1) if phi[n] <= d)


def mul_scalar(f, c: int) -> list[int]:
    if c == 0:
        return []
    return [c * a for a in f]


def _graeffe_prime2(f) -> list[int]:
    fe = f[0::2]
    fo = f[1::2]
    d = len(f) - 1
    out = sub(mul(fe, fe), [0] + mul(fo, fo))
    if d % 2:
        out = neg(out)
    return canonical(out)


def _graeffe_prime3(f) -> list[int]:
    f0 = f[0::3]
    f1 = f[1::3]
    f2 = f[2::3]
    cube = lambda g: mul(g, mul(g, g))
    out = add(cube(f0), [0] + cube(f1))
    out = add(out, [0, 0] + cube(f2))
    out = sub(out, [0] + mul_scalar(mul(f0, mul(f1, f2)), 3))
    return canonical(out)


def _graeffe_prime_generic(f, p) -> list[int]:
    # G_p(f)(t) = lc(f)^p * prod (t - alpha^p): evaluate the resultant of
    # f(y) and t - y^p at deg(f) + 1 points and interpolate.
    d = len(f) - 1
    xs = []
    ys = []
    t = 0
    while len(xs) < d + 1:
        B = [t] + [0] * (p - 1) + [-1]
        xs.append(t)
        ys.append(_res_standard(f, B))
        t = -t if t > 0 else -t + 1
    return _interpolate_int(xs, ys)


def graeffe(f, k: int) -> list[int]:
    """Maps each root to its k-th power; degree is preserved.

    Fast split formulas for the prime steps 2 and 3, a resultant fallback for
    larger primes, composite k by composing prime steps.  The result is
    normalized to a positive leading coefficient.
    """
    f = canonical(f)
    if not f:
        raise ValueError("graeffe of the zero polynomial")
    if k < 1:
        raise ValueError("k must be >= 1")
    out = f
    if k > 1:
        for p, e in factorize(k):
            for _ in range(e):
                if p == 2:
                    out = _graeffe_prime2(out)
                elif p == 3:
                    out = _graeffe_prime3(out)
                else:
                    out = _graeffe_prime_generic(out, p)
    if out and out[-1] < 0:
        out = neg(out)
    return out


def cdm_algorithm2_first_order(f, k_max=None):
    """Reference oracle for the smallest order: walk k = 3, 4, ... and
    return the first whose Graeffe transform is not square-free.

    G_k(f) collapses two roots exactly when some order divides k, so
    with order 2 excluded up front the first hit is the minimum order.
    Composite steps reuse the transform of k over its smallest prime.
    """
    f = P.canonical(f)
    d = P.degree(f)
    if d < 2 or not P.is_squarefree(f):
        raise ValueError("input must be square-free of degree >= 2")
    if P.degree(P.gcd_poly(f, _negate_arg(f))) >= 1:
        raise ValueError("order 2 must be excluded before this scan")
    top = 5 * d * d
    if k_max is not None:
        top = min(top, k_max)
    cache = {1: f}

    def transform(k):
        if k not in cache:
            spf = 2
            while k % spf:
                spf += 1
            cache[k] = graeffe(transform(k // spf), spf)
        return cache[k]

    for k in range(3, top + 1):
        if not P.is_squarefree(transform(k)):
            return k
    return None
