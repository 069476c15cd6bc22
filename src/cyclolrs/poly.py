"""Exact dense arithmetic for univariate integer polynomials.

A polynomial is a plain list of arbitrary-precision ints, index j holding the
coefficient of x^j.  Canonical form has no trailing zeros; the zero polynomial
is the empty list.  Python's integers already give the transparent
fixed-width-to-bignum promotion that dense coefficient work wants.  The one
machine-word lane is gcd_poly: it works from images modulo word primes on the
modpoly kernels and proves its answer by exact division.

Sign conventions, fixed once and tested:
  * gcd_poly, radical_poly, primitive_part return positive leading
    coefficients.
  * resultant(f, g) is lc(g)^deg(f) times the product of f over the roots of
    g, so resultant(x - 2, x - 5) = 3.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import count

from .modpoly import gcd_lists_mod
from .numtheory import crt_symmetric, divisors, word_prime


def canonical(f) -> list[int]:
    f = list(f)
    while f and f[-1] == 0:
        f.pop()
    return f


def degree(f) -> int:
    """Degree, with the zero polynomial at -1."""
    return len(f) - 1


def add(f, g) -> list[int]:
    n = max(len(f), len(g))
    out = [0] * n
    for i, c in enumerate(f):
        out[i] += c
    for i, c in enumerate(g):
        out[i] += c
    return canonical(out)


def neg(f) -> list[int]:
    return [-c for c in f]


def sub(f, g) -> list[int]:
    return add(f, neg(g))


def mul(f, g) -> list[int]:
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] += a * b
    return canonical(out)


def eval_int(f, x: int) -> int:
    acc = 0
    for a in reversed(f):
        acc = acc * x + a
    return acc


def derivative(f) -> list[int]:
    return canonical([j * a for j, a in enumerate(f)][1:])


def content(f) -> int:
    return math.gcd(*f)


def primitive_part(f) -> list[int]:
    f = canonical(f)
    if not f:
        raise ValueError("primitive part of the zero polynomial")
    c = content(f)
    if f[-1] < 0:
        c = -c
    return [a // c for a in f]


def reverse(f) -> list[int]:
    f = canonical(f)
    if not f:
        raise ValueError("reverse of the zero polynomial")
    return canonical(f[::-1])


def is_palindromic(f) -> bool:
    f = canonical(f)
    if not f:
        raise ValueError("palindromicity of the zero polynomial")
    return f == canonical(f[::-1])


def deflate(f) -> tuple[list[int], int, int]:
    """Write f = x^d0 * g(x^r) with r maximal; returns (g, r, d0).

    Monomials (constants included) and zero are rejected since no maximal r
    exists for them.
    """
    f = canonical(f)
    exps = [j for j, c in enumerate(f) if c]
    if len(exps) < 2:
        raise ValueError("deflate needs at least two terms")
    d0 = exps[0]
    r = 0
    for e in exps[1:]:
        r = math.gcd(r, e - d0)
        if r == 1:
            break
    g = f[d0::r]
    return canonical(g), r, d0


def lift(j: int, r: int) -> set[int]:
    """The k with k / gcd(k, r) = j: the orders of the r-th roots of a
    primitive j-th root of unity.  So Phi_k divides g(x^r) iff Phi_j
    divides g, and the lifts of distinct j never meet.  Such a k is
    j e with e = gcd(k, r) a divisor of r, and gcd(j e, r) = e holds
    exactly when gcd(j, r / e) = 1."""
    return {j * e for e in divisors(r) if math.gcd(j, r // e) == 1}


def inflate(f, r: int) -> list[int]:
    """Substitute x^r for x."""
    if r < 1:
        raise ValueError("inflation exponent must be >= 1")
    if r == 1 or not f:
        return canonical(f)
    out = [0] * ((len(f) - 1) * r + 1)
    for j, c in enumerate(f):
        out[j * r] = c
    return canonical(out)


def eval_rational_num(f, beta: Fraction) -> int:
    """The integer q^deg(f) * f(p/q) for beta = p/q in lowest terms.

    Integer Horner: accumulate a*p + coeff * q^(d-j).  The zero polynomial
    evaluates to 0.
    """
    f = canonical(f)
    if not f:
        return 0
    p, q = beta.numerator, beta.denominator
    acc = f[-1]
    qq = 1
    for a in reversed(f[:-1]):
        qq *= q
        acc = acc * p + a * qq
    return acc


def div_exact(f, g) -> list[int]:
    """Quotient f / g when g divides f in Z[x]; raises otherwise."""
    f = canonical(f)
    g = canonical(g)
    if not g:
        raise ZeroDivisionError("division by the zero polynomial")
    if not f:
        return []
    if len(f) < len(g):
        raise ArithmeticError("division not exact: degree too small")
    rem = list(f)
    n = len(g)
    lb = g[-1]
    q = [0] * (len(f) - n + 1)
    for i in reversed(range(len(q))):
        c = rem[i + n - 1]
        if c % lb:
            raise ArithmeticError("division not exact")
        qi = c // lb
        q[i] = qi
        if qi:
            rem[i : i + n] = [a - qi * b for a, b in zip(rem[i : i + n], g)]
    if any(rem):
        raise ArithmeticError("division not exact: nonzero remainder")
    return canonical(q)


def _prem(A, B) -> list[int]:
    # pseudo-remainder: lc(B)^(deg A - deg B + 1) * A  mod  B, all over Z
    da, db = len(A) - 1, len(B) - 1
    lb = B[-1]
    e = da - db + 1
    R = list(A)
    while R and len(R) - 1 >= db:
        la = R[-1]
        r = len(R) - 1
        new = [lb * c for c in R]
        off = r - db
        for i in range(db + 1):
            new[off + i] -= la * B[i]
        new.pop()
        while new and new[-1] == 0:
            new.pop()
        R = new
        e -= 1
    if e > 0 and R:
        s = lb**e
        R = [s * c for c in R]
    return R


def _divides(h, f) -> bool:
    try:
        div_exact(f, h)
    except ArithmeticError:
        return False
    return True


def gcd_poly(f, g) -> list[int]:
    """Primitive positive-leading gcd in Z[x], by a modular algorithm.

    Images of the gcd are taken in F_p[x] for the descending word primes
    p of numtheory.word_prime, skipping any p that divides a leading
    coefficient.  A constant image settles the common case at once: the
    resultant is nonzero mod p.  Otherwise only images of the least
    degree seen are kept.  At a prime whose image has the true degree,
    gamma = gcd(lc A, lc B) times the monic image is the image of
    gamma / lc(G) * G for the true gcd G of the primitive parts A, B,
    so CRT recovers that once the primes' product passes twice
    Mignotte's bound gamma 2^deg A ||A||_2.  The candidate is also
    tried whenever a new prime leaves the reconstruction unchanged.
    Exact division of A and B by its primitive part H is the proof: no
    image has lower degree than the true gcd, so a common divisor of
    that degree is the gcd.
    """
    f = canonical(f)
    g = canonical(g)
    if not f and not g:
        raise ValueError("gcd of two zero polynomials")
    if not f:
        return primitive_part(g)
    if not g:
        return primitive_part(f)
    if len(f) == 1 or len(g) == 1:
        return [1]
    A = None
    images, primes, last = [], [], None
    for p in map(word_prime, count()):
        if f[-1] % p == 0 or g[-1] % p == 0:
            continue
        h = gcd_lists_mod([c % p for c in f], [c % p for c in g], p)
        if len(h) == 1:
            return [1]
        if A is None:
            A, B = primitive_part(f), primitive_part(g)
            gamma = math.gcd(A[-1], B[-1])
            bound = 2 * gamma * min(
                2 ** degree(X) * (math.isqrt(sum(c * c for c in X)) + 1) for X in (A, B)
            )
        if images and len(h) != len(images[0]):
            if len(h) > len(images[0]):
                continue  # unlucky p: the cofactors share a factor mod p
            images, primes, last = [], [], None
        images.append([gamma * c % p for c in h])
        primes.append(p)
        image = crt_symmetric(images, primes)
        if image == last or math.prod(primes) > bound:
            H = primitive_part(image)
            if _divides(H, A) and _divides(H, B):
                return H
        last = image


def radical_poly(f) -> list[int]:
    """Square-free polynomial with the same distinct roots as f."""
    f = canonical(f)
    if not f:
        raise ValueError("radical of the zero polynomial")
    pp = primitive_part(f)
    if len(pp) == 1:
        return [1]
    g = gcd_poly(pp, derivative(pp))
    return div_exact(pp, g)


def is_squarefree(f) -> bool:
    f = canonical(f)
    if not f:
        raise ValueError("square-freeness of the zero polynomial")
    return len(gcd_poly(f, derivative(f))) == 1


def _res_standard(A, B) -> int:
    """res(A, B) = lc(A)^deg(B) * product of B over the roots of A.

    Subresultant PRS with content extraction, so intermediate growth stays
    polynomial in the input size.
    """
    A = canonical(A)
    B = canonical(B)
    if not A or not B:
        raise ValueError("resultant of a zero polynomial")
    s = 1
    if len(A) < len(B):
        if (len(A) - 1) * (len(B) - 1) % 2:
            s = -s
        A, B = B, A
    if len(B) == 1:
        return s * B[0] ** (len(A) - 1)
    ca, cb = abs(content(A)), abs(content(B))
    A = [c // ca for c in A]
    B = [c // cb for c in B]
    t = s * ca ** (len(B) - 1) * cb ** (len(A) - 1)
    g = h = 1
    while True:
        da, db = len(A) - 1, len(B) - 1
        delta = da - db
        if da % 2 and db % 2:
            t = -t
        R = _prem(A, B)
        if not R:
            return 0
        A = B
        B = [c // (g * h**delta) for c in R]
        g = A[-1]
        if delta:
            h = g**delta // h ** (delta - 1)
        if len(B) == 1:
            da = len(A) - 1
            h = B[0] ** da // h ** (da - 1) if da else h
            return t * h


def resultant(f, g) -> int:
    """lc(g)^deg(f) times the product of f over the roots of g."""
    return _res_standard(g, f)


def _interpolate_int(xs, ys) -> list[int]:
    # Newton divided differences over Q, coerced back to Z at the end.
    n = len(xs)
    dd = [Fraction(y) for y in ys]
    for level in range(1, n):
        for i in range(n - 1, level - 1, -1):
            dd[i] = (dd[i] - dd[i - 1]) / (xs[i] - xs[i - level])
    poly = [dd[n - 1]]
    for i in range(n - 2, -1, -1):
        poly = [Fraction(0)] + poly
        for j in range(len(poly) - 1):
            poly[j] -= xs[i] * poly[j + 1]
        poly[0] += dd[i]
    out = []
    for c in poly:
        if c.denominator != 1:
            raise ArithmeticError("interpolation produced a non-integer")
        out.append(c.numerator)
    return canonical(out)


def scale_arg(f, lam: Fraction) -> list[int]:
    """f(lam * x); a lam that produces non-integer coefficients is an error."""
    f = canonical(f)
    u, v = lam.numerator, lam.denominator
    fracs = [Fraction(a * u**j, v**j) for j, a in enumerate(f)]
    if any(c.denominator != 1 for c in fracs):
        raise ValueError("scaling does not preserve integrality")
    return canonical([int(c) for c in fracs])
