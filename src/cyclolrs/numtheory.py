"""Elementary integer number theory: totient, Moebius, primality, inverse
totient, primitive roots, prime search in arithmetic progressions, word
primes and Chinese remaindering, saturation.

Everything here is exact and deterministic. Randomized helpers take an explicit
``random.Random`` handle so callers control reproducibility.
"""

from __future__ import annotations

import math
import operator
import random
from collections.abc import Iterable
from functools import lru_cache

# Deterministic Miller-Rabin witness set, proven complete for n < 3.3e24.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_PROVEN_LIMIT = 3_317_044_064_679_887_385_961_981


def is_prime(n: int) -> bool:
    """Deterministic primality test.

    Below the proven Miller-Rabin witness limit this is exact.  Above it we
    add twenty extra witnesses derived from n itself, which keeps the function
    pure while pushing the error probability far below any practical concern.
    """
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    bases = _MR_BASES
    if n >= _MR_PROVEN_LIMIT:
        extra = random.Random(n)
        bases = bases + tuple(extra.randrange(2, n - 1) for _ in range(20))
    for a in bases:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_brent(n: int, rng: random.Random) -> int:
    # Brent's cycle variant; n must be odd composite, not a prime power issue
    # for callers since they recurse on both parts.
    while True:
        y = rng.randrange(1, n)
        c = rng.randrange(1, n)
        m = 128
        g = r = q = 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += m
            r <<= 1
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g


def trial_factor(n: int, bound: int) -> tuple[dict[int, int], int]:
    """Strip prime factors up to ``bound`` by trial division.

    Returns (exponent dict, remaining cofactor).  The cofactor has no prime
    factor <= bound.
    """
    fac: dict[int, int] = {}
    for p in (2, 3):
        while n % p == 0:
            fac[p] = fac.get(p, 0) + 1
            n //= p
    p = 5
    step = 2
    while p <= bound and p * p <= n:
        while n % p == 0:
            fac[p] = fac.get(p, 0) + 1
            n //= p
        p += step
        step = 6 - step  # alternate 2, 4: the 6k +- 1 wheel
    if 1 < n and (p * p > n):
        # cofactor is prime and may be <= bound; claim it either way only
        # when it is within bound, else leave for the caller
        if n <= bound * bound:
            fac[n] = fac.get(n, 0) + 1
            n = 1
    return fac, n


@lru_cache(maxsize=None)
def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """Full factorization as ((prime, multiplicity), ...) sorted by prime.

    Trial division up to 10^4, then Pollard-Brent rho on the cofactor.  Sized
    for cofactors up to roughly 128 bits, which covers every integer this
    package needs to factor completely.  Cached: one-off n go to _factor_uncached.
    """
    if n < 1:
        raise ValueError("factorize requires n >= 1")
    return _factor_uncached(n)


def _factor_uncached(n: int) -> tuple[tuple[int, int], ...]:
    fac, rest = trial_factor(n, 10_000)
    if rest > 1:
        rng = random.Random(0xF4C702)
        stack = [rest]
        while stack:
            m = stack.pop()
            if is_prime(m):
                fac[m] = fac.get(m, 0) + 1
                continue
            d = _pollard_brent(m, rng)
            stack.append(d)
            stack.append(m // d)
    return tuple(sorted(fac.items()))


@lru_cache(maxsize=None)
def divisors(n: int) -> tuple[int, ...]:
    """All positive divisors of n, ascending."""
    divs = [1]
    for p, e in factorize(n):
        divs = [d * p ** j for d in divs for j in range(e + 1)]
    return tuple(sorted(divs))


@lru_cache(maxsize=None)
def euler_phi(n: int) -> int:
    if n < 1:
        raise ValueError("euler_phi requires n >= 1")
    out = n
    for p, _ in factorize(n):
        out -= out // p
    return out


@lru_cache(maxsize=None)
def moebius(n: int) -> int:
    if n < 1:
        raise ValueError("moebius requires n >= 1")
    fac = factorize(n)
    if any(e > 1 for _, e in fac):
        return 0
    return -1 if len(fac) % 2 else 1


@lru_cache(maxsize=None)
def radical_int(n: int) -> int:
    """Product of the distinct primes dividing n; radical_int(1) = 1."""
    if n < 1:
        raise ValueError("radical_int requires n >= 1")
    out = 1
    for p, _ in factorize(n):
        out *= p
    return out


def totient_sieve(limit: int) -> list[int]:
    """phi(n) for all n <= limit as a list indexed by n."""
    phi = list(range(limit + 1))
    for p in range(2, limit + 1):
        if phi[p] == p:
            for m in range(p, limit + 1, p):
                phi[m] -= phi[m] // p
    return phi


@lru_cache(maxsize=None)
def inverse_totient(d: int) -> tuple[int, ...]:
    """All square-free n with phi(n) = d, ascending.  Empty when d has no
    such preimage.

    Recursive tree search over primes q with (q - 1) | d, ascending so
    every preimage is produced exactly once.
    """
    if d < 1:
        raise ValueError("inverse_totient requires d >= 1")
    if d > 1 and d % 2:
        return ()
    qs = sorted(e + 1 for e in divisors(d) if is_prime(e + 1))

    def rec(rem: int, i: int):
        if rem == 1:
            yield 1
        for j in range(i, len(qs)):
            q = qs[j]
            if rem % (q - 1):
                continue
            for tail in rec(rem // (q - 1), j + 1):
                yield q * tail

    return tuple(sorted(rec(d, 0)))


def totient_ceiling(d: int) -> int:
    """A proven B with phi(n) <= d  =>  n <= B: n has no more primes than
    the longest run of first primes whose p - 1 multiply to at most d,
    and n/phi(n), the product of p/(p - 1) over them, is at most that
    product over the run."""
    if d < 1:
        raise ValueError("totient_ceiling requires d >= 1")
    num = den = 1
    p = 2
    while den * (p - 1) <= d:
        num *= p
        den *= p - 1
        p += 1
        while not is_prime(p):
            p += 1
    return d * num // den


def saturate(n: int, g: int) -> int:
    """Largest divisor of n coprime to g; saturate(0, g) = 0 by convention."""
    if n < 0 or g < 1:
        raise ValueError("saturate requires n >= 0, g >= 1")
    if n == 0:
        return 0
    t = math.gcd(n, g)
    while t > 1:
        n //= t
        t = math.gcd(n, t)
    return n


# Dirichlet guarantees a prime in every progression; the cap only turns
# a bug into an error instead of an endless scan
_PRIME_SEARCH_STEPS = 1_000_000


def find_prime_in_progression(
    k: int, min_value: int = 0, rng: random.Random | None = None
) -> int:
    """A prime p = 1 + k*s with s >= 1 and p > min_value.

    Without an rng the smallest such prime is returned.  With one, the
    starting s is pushed up by a seeded offset and the scan proceeds upward,
    so distinct seeds land on distinct primes while a fixed seed reproduces
    the same choice.
    """
    if k < 2:
        raise ValueError("progression modulus must be >= 2")
    s = max(1, (min_value - 1) // k + 1)
    if rng is not None:
        s += rng.randrange(s + 64)
    for _ in range(_PRIME_SEARCH_STEPS):
        p = 1 + k * s
        if is_prime(p):
            return p
        s += 1
    raise RuntimeError(f"no prime 1 (mod {k}) found within {_PRIME_SEARCH_STEPS} steps")


@lru_cache(maxsize=None)
def word_prime(i: int) -> int:
    """The primes below 2^30 in descending order: word_prime(0) is the
    largest.  Residues mod these primes are single-digit CPython ints.
    Each is searched for on its first use, none at import."""
    if i < 0:
        raise ValueError("word_prime index must be >= 0")
    p = (1 << 30) + 1 if i == 0 else word_prime(i - 1)
    p -= 2
    while not is_prime(p):
        p -= 2
    return p


def crt_symmetric(residues, primes) -> list[int]:
    """Chinese remaindering of vectors into symmetric residues.

    residues[i] holds a vector's entries mod primes[i]; entry j of the
    result is the unique integer c with |c| < M/2, M the product of the
    (distinct) primes, that has residue residues[i][j] mod every
    primes[i].  Each column is one weighted sum, so the loop over the
    primes runs inside the interpreter's own map and sum.
    """
    M = math.prod(primes)
    weights = []
    for p in primes:
        m = M // p
        weights.append(m * pow(m, -1, p))  # 1 mod p, 0 mod the others
    half = M // 2
    out = []
    for col in zip(*residues):
        c = sum(map(operator.mul, col, weights)) % M
        out.append(c - M if c > half else c)
    return out


def primitive_root(p: int, m: int, m_factors: Iterable[tuple[int, int]]) -> int:
    """The smallest generator g of the multiplicative group mod a prime p.

    m must divide p - 1 and m_factors be its factorization as (prime,
    exponent) pairs, so only the cofactor (p - 1) / m is factored.  For
    every k dividing m, g^((p - 1) / k) then has order exactly k.
    """
    if (p - 1) % m:
        raise ValueError(f"{m} does not divide {p} - 1")
    if p == 2:
        return 1
    # a drawn prime's cofactor seldom recurs, so it stays out of the cache
    qs = {q for q, _ in m_factors} | {q for q, _ in _factor_uncached((p - 1) // m)}
    g = 2
    while any(pow(g, (p - 1) // q, p) == 1 for q in qs):
        g += 1
    return g
