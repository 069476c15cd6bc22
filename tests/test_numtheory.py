import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclolrs.numtheory import (
    crt_symmetric,
    divisors,
    euler_phi,
    factorize,
    find_prime_in_progression,
    inverse_totient,
    is_prime,
    moebius,
    primitive_root,
    radical_int,
    saturate,
    totient_sieve,
    word_prime,
)
from oracles import inverse_totient_max


def brute_phi(n):
    # definitional oracle
    return sum(1 for j in range(1, n + 1) if math.gcd(j, n) == 1)


def test_euler_phi_pinned():
    assert euler_phi(1) == 1
    assert euler_phi(12) == 4
    assert euler_phi(9) == 6
    with pytest.raises(ValueError):
        euler_phi(0)


def test_euler_phi_against_bruteforce_sample():
    rng = random.Random(7)
    for n in list(range(1, 501)) + [rng.randrange(501, 10_001) for _ in range(300)]:
        assert euler_phi(n) == brute_phi(n), n


def test_euler_phi_against_sieve_to_1e4():
    phi = totient_sieve(10_000)
    for n in range(1, 10_001):
        assert euler_phi(n) == phi[n], n


def test_moebius_pinned():
    assert moebius(1) == 1
    assert moebius(12) == 0
    assert moebius(30) == -1
    with pytest.raises(ValueError):
        moebius(0)


def test_moebius_divisor_sums_to_1e4():
    # sum of mu over divisors is the unit impulse at n = 1
    lim = 10_000
    sums = [0] * (lim + 1)
    for d in range(1, lim + 1):
        m = moebius(d)
        if m:
            for mult in range(d, lim + 1, d):
                sums[mult] += m
    assert sums[1] == 1
    assert all(s == 0 for s in sums[2:])


def test_radical_pinned():
    assert radical_int(12) == 6
    assert radical_int(1) == 1
    assert radical_int(30) == 30


def test_factorize_reconstructs():
    rng = random.Random(11)
    for _ in range(200):
        n = rng.randrange(1, 10**9)
        fac = factorize(n)
        prod = 1
        for p, e in fac:
            assert is_prime(p)
            prod *= p**e
        assert prod == n
        assert list(fac) == sorted(fac)


def test_factorize_semiprime():
    p, q = 1_000_003, 1_000_033
    assert factorize(p * q) == ((p, 1), (q, 1))


def test_divisors_small():
    assert divisors(12) == (1, 2, 3, 4, 6, 12)
    assert divisors(1) == (1,)


def test_inverse_totient_pinned():
    # square-free preimages only: phi(8) = phi(12) = 4 lists neither
    assert inverse_totient(4) == (5, 10)
    assert inverse_totient(3) == ()
    assert inverse_totient(1) == (1, 2)
    assert inverse_totient(8) == (15, 30)
    assert inverse_totient(12) == (13, 21, 26, 42)
    assert inverse_totient(48) == (65, 105, 130, 210)


def test_inverse_totient_complete_to_500():
    # every square-free preimage listed, none missed below the proven
    # ceiling
    cap = inverse_totient_max(500)
    phi = totient_sieve(cap)
    from collections import defaultdict

    buckets = defaultdict(list)
    for n in range(1, cap + 1):
        if phi[n] <= 500 and moebius(n):
            buckets[phi[n]].append(n)
    for d in range(1, 501):
        assert list(inverse_totient(d)) == buckets.get(d, []), d


def test_inverse_totient_max_pinned():
    assert inverse_totient_max(4) == 12
    assert inverse_totient_max(1) == 2
    assert inverse_totient_max(100) == 420
    assert inverse_totient_max(56) == 210


def test_inverse_totient_max_is_hard_ceiling():
    phi = totient_sieve(5000)
    for d in (1, 2, 6, 10, 40, 100):
        b = inverse_totient_max(d)
        assert phi[b] <= d
        assert all(phi[n] > d for n in range(b + 1, 5001))


def test_is_prime_pinned():
    assert is_prime(57737)
    assert not is_prime(1)
    assert is_prime(641)
    assert not is_prime(0)
    assert is_prime(2) and is_prime(3)
    assert not is_prime(561)  # Carmichael
    assert is_prime(2**61 - 1)
    assert not is_prime(2**67 - 1)


def test_is_prime_against_sieve():
    comp = bytearray(10_000)
    for i in range(2, 100):
        for j in range(i * i, 10_000, i):
            comp[j] = 1
    for n in range(2, 10_000):
        assert is_prime(n) == (not comp[n]), n


def test_find_prime_pinned():
    assert find_prime_in_progression(10, min_value=640) == 641
    assert find_prime_in_progression(2, min_value=2) == 3
    assert find_prime_in_progression(7, min_value=448) == 449


def test_find_prime_randomized_contract():
    for seed in range(6):
        rng = random.Random(seed)
        p = find_prime_in_progression(12, min_value=5000, rng=rng)
        assert is_prime(p)
        assert p % 12 == 1
        assert (p - 1) // 12 >= 64
        assert p > 5000
        again = find_prime_in_progression(12, min_value=5000, rng=random.Random(seed))
        assert again == p


def _small_root_primes():
    # primes p = 1 + m*s below 10^4, up to three for each m in 2..100:
    # the least ones with s >= 1, 10 and 40
    for m in range(2, 101):
        for p in sorted({find_prime_in_progression(m, min_value=c * m) for c in (1, 10, 40)}):
            if p < 10**4:
                yield m, p


def brute_order(z, p):
    x, n = z, 1
    while x != 1:
        x = x * z % p
        n += 1
    return n


def test_primitive_root_pinned():
    g = primitive_root(13, 4, factorize(4))
    assert g == 2 and pow(g, 12 // 4, 13) == 8  # 8 has order 4 mod 13
    assert primitive_root(7, 1, ()) == 3
    with pytest.raises(ValueError):
        primitive_root(13, 5, factorize(5))


def test_primitive_root_generates_the_group_below_1e4():
    seen = 0
    for m, p in _small_root_primes():
        g = primitive_root(p, m, factorize(m))
        assert brute_order(g, p) == p - 1, (m, p)
        assert all(brute_order(h, p) < p - 1 for h in range(2, g)), (m, p)  # the smallest
        for k in divisors(m):
            assert brute_order(pow(g, (p - 1) // k, p), p) == k, (m, p, k)
        seen += 1
    assert seen > 200


def test_primitive_root_gives_exact_orders_at_large_primes():
    # word-size primes as the per-order rounds and the verifier draw,
    # and the lcm of 3..18 as the first candidate group's modulus
    for m in [*range(2, 101), math.lcm(*range(3, 19))]:
        p = find_prime_in_progression(m, min_value=max(1 << 25, 64 * m))
        g = primitive_root(p, m, factorize(m))
        for k in divisors(m):
            z = pow(g, (p - 1) // k, p)
            assert pow(z, k, p) == 1
            assert all(pow(z, k // q, p) != 1 for q, _ in factorize(k)), (m, p, k)


def test_primitive_root_leaves_the_factorize_cache_alone():
    # seeded primes give one-off cofactors (p - 1) / m: caching them would
    # grow the cache by one entry per draw for the life of the process
    m_factors = factorize(12)
    before = factorize.cache_info().currsize
    rng = random.Random(3)
    for _ in range(20):
        p = find_prime_in_progression(12, min_value=1 << 25, rng=rng)
        primitive_root(p, 12, m_factors)
    assert factorize.cache_info().currsize == before


def test_word_primes_descend_through_every_prime_below_2_30():
    assert word_prime(0) == 2**30 - 35
    ps = [word_prime(i) for i in range(12)]
    assert all(is_prime(p) for p in ps)
    for hi, lo in zip(ps, ps[1:]):
        assert not any(is_prime(n) for n in range(lo + 1, hi))
    with pytest.raises(ValueError):
        word_prime(-1)


@settings(max_examples=60)
@given(st.data())
def test_crt_symmetric_recovers_integers_of_small_absolute_value(data):
    primes = data.draw(
        st.lists(st.sampled_from([3, 5, 7, 11, 2**31 - 1, word_prime(0), word_prime(3)]),
                 min_size=1, max_size=5, unique=True)
    )
    M = math.prod(primes)
    values = data.draw(st.lists(st.integers(-(M // 2), M // 2), min_size=1, max_size=6))
    residues = [[v % p for v in values] for p in primes]
    assert crt_symmetric(residues, primes) == values


def test_saturate_pinned():
    assert saturate(21, 7) == 3
    assert saturate(1, 5) == 1
    assert saturate(48, 6) == 1
    assert saturate(0, 3) == 0


@given(st.integers(min_value=1, max_value=10**12), st.integers(min_value=1, max_value=10**6))
def test_saturate_contract(n, g):
    s = saturate(n, g)
    assert n % s == 0
    assert math.gcd(s, g) == 1
    # the removed part is built only from primes of g
    rest = n // s
    t = math.gcd(rest, g)
    while t > 1:
        rest //= t  # peel one factor at a time
        t = math.gcd(rest, math.gcd(rest, g) or 1) if rest > 1 else 1
        t = math.gcd(rest, g)
    assert rest == 1


@settings(max_examples=60)
@given(st.integers(min_value=1, max_value=300))
def test_phi_multiplicative_on_coprime_split(n):
    for d in divisors(n):
        m = n // d
        if math.gcd(d, m) == 1:
            assert euler_phi(n) == euler_phi(d) * euler_phi(m)
