"""Reference oracles shared by several test modules."""

from functools import lru_cache

from cyclolrs.numtheory import totient_ceiling, totient_sieve


@lru_cache(maxsize=None)
def inverse_totient_max(d):
    """The largest n with phi(n) <= d: an exact totient sieve up to the
    totient_ceiling."""
    bound = totient_ceiling(d)
    phi = totient_sieve(bound)
    return max(n for n in range(1, bound + 1) if phi[n] <= d)
