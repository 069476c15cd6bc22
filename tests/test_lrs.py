import itertools
import math
import random
import types
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclolrs import lrs
from cyclolrs import poly as P
from cyclolrs.cli import main
from cyclolrs.cyclotomic import cyclotomic_product, phi_poly
from cyclolrs.lrs import (
    CandidateOrders,
    OrderReport,
    _candidate_batches,
    _galois_certificate,
    _twisted_norm,
    cdm_algorithm1,
    lrs_degeneracy_orders,
    lrs_order_candidates,
    preprocess,
    reduce_coefficients,
    verify_order,
)
from cyclolrs.modpoly import gcd_lists_mod
from cyclolrs.numtheory import (
    divisors,
    euler_phi,
    factorize,
    find_prime_in_progression,
    is_prime,
    moebius,
    totient_sieve,
)
from oracles import cdm_algorithm2_first_order, graeffe, inverse_totient_max


def negate_arg(f):
    return P.canonical([-a if j % 2 else a for j, a in enumerate(f)])


# ---------------------------------------------------------------- reduction


def test_reduce_coefficients_double_pass_pinned():
    # 16x^4+80x^3+300x^2+1000x+3125 shrinks in two passes to
    # x^4+2x^3+3x^2+4x+5 with combined scale 5/2
    g, lam = reduce_coefficients([3125, 1000, 300, 80, 16])
    assert g == [5, 4, 3, 2, 1]
    assert lam == Fraction(5, 2)


def test_reduce_coefficients_identity_when_gcd_one():
    g, lam = reduce_coefficients([7, 3, 1])
    assert g == [7, 3, 1] and lam == 1


def test_reduce_coefficients_preserves_orders():
    f = [3125, 1000, 300, 80, 16]
    g, lam = reduce_coefficients(f)
    # the reduced polynomial is f(lam * x) up to a rational unit
    scaled = P.canonical(
        [a * lam.numerator**j * lam.denominator ** (4 - j) for j, a in enumerate(f)]
    )
    assert P.primitive_part(scaled) == P.primitive_part(g)


def test_reduce_coefficients_rejects():
    with pytest.raises(ValueError):
        reduce_coefficients([5])
    with pytest.raises(ValueError):
        reduce_coefficients([0, 0, 1])
    with pytest.raises(ValueError):
        reduce_coefficients([2, 0, 2])


# ------------------------------------------------------------- candidates


def test_candidates_degree_two():
    assert double_loop_candidates(2)[0] == frozenset({2})
    assert lrs_order_candidates(2).orders == (3, 4, 6)


def test_candidates_degree_three():
    assert double_loop_candidates(3)[0] == frozenset({2, 6})
    assert lrs_order_candidates(3).orders == (3, 4, 6, 7, 9, 14, 18)


def test_candidates_rejects_small_degree():
    with pytest.raises(ValueError):
        lrs_order_candidates(1)


@settings(max_examples=20, deadline=None)
@given(st.integers(2, 14))
def test_candidates_invariants(d):
    c = lrs_order_candidates(d)
    top = d * d - d
    kmax = inverse_totient_max(top)
    sieve = sorted(double_loop_candidates(d)[0])
    for k in c.orders:
        assert 3 <= k <= kmax
        phi = euler_phi(k)
        assert phi <= top
        assert any(v % phi == 0 for v in sieve)


def test_candidates_conjecture_bound_restricts():
    full = lrs_order_candidates(6).orders
    cut = lrs_order_candidates(6, conjecture_bound=True).orders
    assert set(cut) < set(full)
    assert all(euler_phi(k) <= 6 for k in cut)
    assert 15 in full and 15 not in cut  # phi(15) = 8 > 6


def test_candidates_shrinkage_band():
    # the sieve discards half to three quarters of the naive scan range
    for d in (10, 20):
        naive = inverse_totient_max(d * d - d) - 2
        ratio = len(lrs_order_candidates(d).orders) / naive
        assert 0.25 <= ratio <= 0.50, (d, ratio)


def double_loop_candidates(d, conjecture_bound=False):
    """The candidate sieve as a set of even products and a scan of every
    t against its multiples, one at a time."""
    sieve = set()
    for a in range(1, d + 1):
        for b in range(1, a):
            if (a * b) % 2 == 0:
                sieve.add(a * b)
    for a in range(2, d // 2 + 1, 2):
        sieve.add(a * a)
    top = d * d - d
    divides_entry = bytearray(top + 1)
    for t in range(1, top + 1):
        for v in range(t, top + 1, t):
            if v in sieve:
                divides_entry[t] = 1
                break
    cap = d if conjecture_bound else top
    kmax = inverse_totient_max(top)
    phi = totient_sieve(kmax)
    orders = tuple(
        k
        for k in range(3, kmax + 1)
        if phi[k] <= cap and phi[k] <= top and divides_entry[phi[k]]
    )
    return frozenset(sieve), orders


@pytest.mark.parametrize("d", list(range(2, 81)) + [100, 150])
def test_candidates_match_double_loop(d):
    for bound in (False, True):
        c = lrs_order_candidates(d, conjecture_bound=bound)
        assert c.orders == double_loop_candidates(d, bound)[1]


# ------------------------------------------------------------ preprocessing


MODES = ("all_orders", "first_order", "decision_only")


def reports(f, **kw):
    # one report per mode: (orders, log lines, orders implied by deflation)
    out = {}
    for mode in MODES:
        rep = scan(f, mode=mode, **kw)
        out[mode] = (rep.orders, rep.preprocessing_log, rep.implied_by_deflation)
    return out


def test_preprocess_strips_power_of_x():
    f = [0, 0, 0, -2, 0, 1]
    assert preprocess(f) == ([-2, 0, 1], ["stripped x^3"])
    log = ("stripped x^3", "composed in x^2: orders [2] implied")
    assert reports(f) == dict.fromkeys(MODES, (((2, "verified"),), log, (2,)))


def test_preprocess_records_composition_orders():
    f = [1, 0, 0, 0, 1, 0, 0, 0, 1]  # Phi_3 in x^4
    assert preprocess(f) == (f, [])  # normalized only: the scan deflates
    log = ("composed in x^4: orders [2, 4] implied",)
    assert cdm_algorithm1(f) == [2, 3, 4, 6, 12]
    want = tuple((k, "verified") for k in [2, 3, 4, 6, 12])
    assert reports(f) == {
        "all_orders": (want, log, (2, 4)),
        "first_order": (want[:1], log, (2, 4)),
        "decision_only": (want[:1], log, (2, 4)),
    }


def test_preprocess_takes_radical():
    f = P.mul([1, 1, 1], [1, 1, 1])
    assert preprocess(f) == ([1, 1, 1], ["radical taken"])
    three = ((3, "verified"),)
    assert reports(f) == {
        "all_orders": (three, ("radical taken",), ()),
        "first_order": (three, ("radical taken", "cyclotomic factor of index 3: order 3"), ()),
        "decision_only": (three, ("radical taken", "cyclotomic factor of index 3: order 3"), ()),
    }


def test_preprocess_removes_content():
    core, steps = preprocess([6, 12, 18])
    assert core == [1, 2, 3] and steps == ["content 6 removed"]


def test_preprocess_rejects_zero_and_constant():
    with pytest.raises(ValueError):
        preprocess([0])
    with pytest.raises(ValueError):
        preprocess([5])


def test_preprocess_decision_mode_settles_even_polynomial():
    # x^4 + 3x^2 + 1 is a composition in x^2: its order 2 comes from r
    rep = scan([1, 0, 3, 0, 1], mode="decision_only")
    assert rep.orders == ((2, "verified"),)
    assert rep.preprocessing_log == ("composed in x^2: orders [2] implied",)
    assert rep.implied_by_deflation == (2,)


def test_preprocess_decision_mode_settles_on_cyclotomic_factor():
    f = P.mul(phi_poly(5), [3, 1, 1])
    rep = scan(f, mode="decision_only", rng=4)
    assert rep.orders == ((5, "verified"),)
    assert rep.preprocessing_log == ("cyclotomic factor of index 5: order 5",)
    assert rep.implied_by_deflation == ()
    assert scan(f, rng=4).preprocessing_log == ()  # the witness is the least-order modes' only


def test_preprocess_decision_mode_even_index_witness():
    # a degree-10 cyclotomic factor survives the f(-x) check only when
    # its index is twice an odd number; half the index is then an order
    rep = scan(P.mul(phi_poly(22), [3, 1, 1]), mode="decision_only", rng=4)
    assert rep.orders == ((11, "verified"),)
    assert rep.preprocessing_log == ("cyclotomic factor of index 22: order 11",)


def test_preprocess_decision_mode_strips_linear_factors(monkeypatch):
    seen = []
    inner = lrs._batch_survivors

    def watch(core, *args):
        seen.append(core)
        return inner(core, *args)

    monkeypatch.setattr(lrs, "_batch_survivors", watch)
    f = P.mul(P.mul([-3, 1], [7, 5]), [3, 1, 1])
    rep = scan(f, mode="decision_only", rng=4)
    assert rep.orders == () and rep.implied_by_deflation == ()
    assert rep.preprocessing_log == (
        "linear factors removed at [Fraction(3, 1), Fraction(-7, 5)]",
    )
    assert seen and all(core == [3, 1, 1] for core in seen)  # the scan sees the rest


# ------------------------------------------------------------ verification


VERIFY_TABLE = [
    ([1, 1, 1], 3, True),
    ([3, 3, 1], 6, True),
    ([3, 3, 1], 3, False),
    ([-2, 0, 1], 2, True),
    ([1, 0, 1], 4, False),  # i and -i differ by -1, not by a primitive 4th root
    ([1, 0, 1], 2, True),
    ([2, 4, 2, 0, 1], 8, True),
    ([2, 4, 2, 0, 1], 4, False),
    ([2, 4, 2, 0, 1], 2, False),
    ([1, 2, 3, 3, 3, 2, 1], 15, True),
    ([1, -1, 0, 1, -1, 1, 0, -1, 1], 15, True),
]


@pytest.mark.parametrize("f,k,expected", VERIFY_TABLE)
def test_verify_order_table(f, k, expected):
    assert verify_order(f, k) is expected


def test_verify_order_rejects_bad_inputs():
    with pytest.raises(ValueError):
        verify_order([1, 1, 1], 1)
    with pytest.raises(ValueError):
        verify_order([1, 1], 3)
    with pytest.raises(ValueError):
        verify_order([0, 1, 1, 1], 3)
    with pytest.raises(ValueError):
        verify_order(P.mul([1, 1], [1, 1]), 2)


@settings(max_examples=25, deadline=None)
@given(st.integers(3, 30))
def test_verify_order_on_cyclotomic_own_index(k):
    # root ratios of phi_k are k-th roots of unity; a primitive one exists
    # only for odd k, and the order tops out at k/2 for even k
    if k % 2:
        assert verify_order(phi_poly(k), k) is True
    else:
        assert verify_order(phi_poly(k), k) is False
        assert verify_order(phi_poly(k), k // 2) is True


def moebius_graeffe_norm(f, k):
    """prod f(zeta x) over the primitive k-th roots zeta, as the Moebius
    quotient of the inflated Graeffe transforms G_d(f)(x^d), d | k."""
    num, den = [1], [1]
    for d in divisors(k):
        mu = moebius(k // d)
        if mu:
            rd = P.inflate(graeffe(f, d), d)
            num, den = (P.mul(num, rd), den) if mu == 1 else (num, P.mul(den, rd))
    return P.div_exact(num, den)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_twisted_norm_matches_moebius_graeffe_quotient(data):
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    d = data.draw(st.integers(1, 8))
    bound = data.draw(st.sampled_from([2, 30, 1024]))
    f = [rng.randint(-bound, bound) for _ in range(d)]
    f.append(rng.choice((-1, 1)) * rng.randint(1, bound))
    k = data.draw(st.integers(3, 40))
    assert _twisted_norm(f, k) == moebius_graeffe_norm(f, k)


@pytest.mark.parametrize("k", [5, 9, 12, 101])
def test_verify_order_skips_primes_dividing_the_leading_coefficient(k):
    # lc(f) is divisible by the first prime p = 1 (mod k) the verifier
    # would use, so that p must be skipped for refutation and for CRT
    p = find_prime_in_progression(k, min_value=1 << 25)
    assert verify_order([1, 1, p], k) is False
    assert verify_order([1, 0, 3, p], k) is False
    if k < 100:
        scaled = [a * p**j for j, a in enumerate(phi_poly(k))]  # Phi_k(p x)
        assert verify_order(scaled, k if k % 2 else k // 2) is True


# --------------------------------------------------------- per-order test


def order_corpus():
    """Small square-free inputs with known orders: scaled cyclotomics
    times a linear factor, scaled cyclotomic products, g(x) g(-x) h and
    g rev(g) for random g, and random polynomials."""
    rng = random.Random(1414)
    out = []
    for k in (3, 4, 5, 6, 7, 8, 9, 10, 12):
        lin = [rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9)]
        out.append(P.mul(scaled_phi(k, rng.randint(1, 3)), lin))
    for a, b in ((3, 4), (3, 5), (4, 5), (5, 6), (3, 7), (5, 8), (7, 12), (9, 10)):
        lam = rng.randint(1, 3)
        out.append(P.mul(scaled_phi(a, lam), scaled_phi(b, lam)))
    for _ in range(6):
        g = random_poly(rng, rng.randint(1, 3), h=9)
        out.append(P.mul(P.mul(g, negate_arg(g)), random_poly(rng, 2, h=9)))
        out.append(P.mul(g, P.reverse(g)))
    out += [random_poly(rng, rng.randint(2, 8), h=30) for _ in range(8)]
    cores = [preprocess(f)[0] for f in out]
    return [f for f in cores if P.degree(f) >= 2]


def test_true_orders_survive_the_per_order_test():
    corpus = order_corpus()
    assert len(corpus) >= 30
    seen = 0
    for f in corpus:
        for k in cdm_algorithm1(f):
            for seed in range(4):
                assert lrs._modular_test(f, k, f"{seed}:{k}"), (f, k, seed)
            seen += 1
    assert seen >= 30


def primitive_kth_root_by_search(p, k):
    # h^((p - 1) / k) for the first h that gives exact order k
    qs = [q for q, _ in factorize(k)]
    roots = (pow(h, (p - 1) // k, p) for h in range(2, p))
    return next(z for z in roots if all(pow(z, k // q, p) != 1 for q in qs))


def pairwise_modular_test(core, k, seed_key):
    """The per-order test with every twist: at each of the three primes
    _modular_test draws, gcd(f, f(zeta x)) for every primitive k-th root
    zeta up to inversion, any trivial one refuting k.  The reference
    for its one twist per round."""
    rng = random.Random(seed_key)
    for _ in range(3):
        p = next(lrs._primes(core, k, rng))
        fbar = [a % p for a in core]
        zeta = primitive_kth_root_by_search(p, k)
        for j in range(1, k // 2 + 1):
            if math.gcd(j, k) == 1:
                if len(gcd_lists_mod(fbar, lrs._twist(fbar, pow(zeta, j, p), p), p)) == 1:
                    return False
    return True


def test_one_twist_per_round_agrees_with_every_twist():
    verdicts = []
    for i, f in enumerate(order_corpus()):
        for k in range(2, 31):
            key = f"{i}:{k}"
            got = lrs._modular_test(f, k, key)
            assert got == pairwise_modular_test(f, k, key), (f, k)
            verdicts.append(got)
    assert any(verdicts) and not all(verdicts)


# ------------------------------------------------------------ prime stream


def test_ascending_primes_skip_every_divisor_of_the_leading_coefficient():
    for m in (2, 3, 12, 720720):
        first = list(itertools.islice(lrs._primes([1, 1], m), 6))
        assert first == sorted(set(first)) and first[0] > 1 << 25
        assert all(is_prime(p) and p % m == 1 for p in first)
        # an lc built from the stream's own first three primes
        core = [1, 0, math.prod(first[:3])]
        assert list(itertools.islice(lrs._primes(core, m), 3)) == first[3:]


def test_seeded_primes_are_reproducible_independent_draws():
    draws = list(itertools.islice(lrs._primes([1, 1], 12, random.Random(5)), 8))
    assert draws == list(itertools.islice(lrs._primes([1, 1], 12, random.Random(5)), 8))
    assert all(is_prime(p) and p % 12 == 1 and p > 1 << 25 for p in draws)
    assert draws != sorted(draws)  # each draw starts again from 2^25


def test_seeded_draw_landing_on_the_leading_coefficient_moves_above_it():
    p = next(lrs._primes([1, 1], 12, random.Random(5)))
    q = next(lrs._primes([1, 0, 7 * p], 12, random.Random(5)))
    assert q > p and is_prime(q) and q % 12 == 1


def test_leading_coefficient_holding_every_small_prime_1_mod_3(tmp_path):
    # (x^2 + x + 1)(L x^2 + 1), L the product of the primes p = 1 (mod 3)
    # below 12500 (8806 bits): no such p keeps the degree, so the test of
    # order 3 needs a prime beyond them all
    lam = math.prod(p for p in range(7, 12_500, 6) if is_prime(p))
    assert lam.bit_length() == 8806
    f = P.mul([1, 1, 1], [1, 0, lam])
    rep = lrs_degeneracy_orders(f, rng=1, verify=True)
    assert rep.orders == ((2, "verified"), (3, "verified"))
    path = tmp_path / "f.txt"
    path.write_text(" ".join(map(str, f)) + "\n")
    assert main(["lrs", f"@{path}", "--verify"]) == 0


# ------------------------------------------------------------- full scans


def scan(f, **kw):
    kw.setdefault("rng", 7)
    return lrs_degeneracy_orders(f, **kw)


def test_exact_orders_degree_four():
    assert scan([2, 4, 2, 0, 1]).orders == ((8, "verified"),)


def test_exact_orders_degree_six():
    assert scan([3, 0, 0, 6, 6, 3, 1]).orders == ((18, "verified"),)


def test_product_of_two_cyclotomics_carries_composite_order():
    rep = scan(cyclotomic_product([3, 5]))
    assert rep.verified_orders() == [3, 5, 15]


def test_exact_order_six_quadratic():
    assert scan([3, 3, 1]).orders == ((6, "verified"),)


@pytest.mark.parametrize("n", [2, 3, 5])
def test_square_root_polynomials_are_order_two(n):
    assert scan([-n, 0, 1]).orders == ((2, "verified"),)


def test_degenerate_product_of_sound_factors():
    f1, f2 = [5, 6, 5], [5, 8, 5]
    assert scan(f1).orders == ()
    assert scan(f2).orders == ()
    assert scan(P.mul(f1, f2)).verified_orders() == [4]


def test_pair_table_of_unimodular_quadratics():
    g1, g2, g3 = [7, 2, 7], [7, 11, 7], [7, 13, 7]
    for g in (g1, g2, g3):
        assert scan(g).orders == ()
    assert scan(P.mul(g1, g2)).verified_orders() == [3]
    assert scan(P.mul(g1, g3)).verified_orders() == [6]
    assert scan(P.mul(g2, g3)).verified_orders() == [6]


def test_graeffe_images_stay_degenerate_as_a_pair():
    # transforming both factors by the same odd step keeps the product
    # degenerate at the same order
    a = graeffe([5, 6, 5], 5)
    b = graeffe([5, 8, 5], 5)
    assert a == [3125, -474, 3125]
    assert b == [3125, -6232, 3125]
    assert scan(a).orders == () and scan(b).orders == ()
    assert scan(P.mul(a, b)).verified_orders() == [4]


@pytest.mark.parametrize("k", [9, 15, 21, 33])
def test_odd_cyclotomic_orders_are_divisors(k):
    want = sorted(d for d in divisors(k) if d > 1)
    assert scan(phi_poly(k)).verified_orders() == want


@pytest.mark.parametrize("k", [6, 8, 12, 20])
def test_even_cyclotomic_orders_are_half_index_divisors(k):
    want = sorted(d for d in divisors(k // 2) if d > 1)
    assert scan(phi_poly(k)).verified_orders() == want


def test_nondegenerate_quadratic_times_negation_gains_only_order_two():
    for g in ([3, 1, 1], [5, 2, 1], [2, 1, 0, 1]):
        assert scan(g).orders == ()
        f = P.canonical(P.mul(g, negate_arg(g)))
        assert scan(f).verified_orders() == [2]


def test_orders_invariant_under_argument_scaling():
    f = phi_poly(5)
    scaled = [a * 2**j for j, a in enumerate(f)]
    assert scan(scaled).verified_orders() == scan(f).verified_orders() == [5]


def test_orders_invariant_under_reversal():
    f = [2, 4, 2, 0, 1]
    assert scan(P.reverse(f)).verified_orders() == scan(f).verified_orders()


def test_every_verified_order_passes_direct_verification():
    f = cyclotomic_product([3, 5])
    core, _ = preprocess(f)
    for k in scan(f).verified_orders():
        assert verify_order(core, k)


def test_deflation_implied_orders_reported():
    rep = scan([1, 0, 0, 0, 1, 0, 0, 0, 1])  # Phi_3 in x^4
    assert rep.implied_by_deflation == (2, 4)
    assert set(rep.verified_orders()) >= {2, 4}


@pytest.mark.parametrize("d", range(2, 13))
def test_binomials_answer_from_their_deflation(d):
    # a + b x^d deflates to a linear core in x^d, so its orders are the
    # divisors k > 1 of d, which the oracle reads off the full ratio
    # resultant of x^d + 1; every mode answers without a scan
    want = cdm_algorithm1([1] + [0] * (d - 1) + [1])
    rng = random.Random(d)
    for _ in range(3):
        a, b = (rng.choice((-1, 1)) * rng.randint(1, 50) for _ in range(2))
        f = [a] + [0] * (d - 1) + [b]
        c = math.gcd(a, b)
        log = ((f"content {c} removed",) if c > 1 else ()) + (
            f"composed in x^{d}: orders {want} implied",
        )
        for verify in (True, False):
            assert reports(f, verify=verify) == {
                "all_orders": (tuple((k, "verified") for k in want), log, tuple(want)),
                "first_order": (((want[0], "verified"),), log, tuple(want)),
                "decision_only": (((want[0], "verified"),), log, tuple(want)),
            }


@pytest.mark.parametrize(
    "lin, d, c", [([-2, 1], 3, 3), ([1, 2], 5, -3), ([-3, 1], 7, 5), ([5, -1], 3, 2)]
)
def test_binomial_core_left_by_root_stripping(lin, d, c):
    # the least-order modes strip the rational root of the linear factor
    # and scan what is left, x^d + c, as it is: the root ratios of
    # x^d + c are the d-th roots of unity (d is odd: an even d shares
    # x^d + c with f(-x) and settles at 2)
    f = P.mul(lin, [c] + [0] * (d - 1) + [1])
    want = cdm_algorithm1([c] + [0] * (d - 1) + [1])
    root = Fraction(-lin[0], lin[1])
    log = (f"linear factors removed at [{root!r}]",)
    for verify in (True, False):
        for mode in ("first_order", "decision_only"):
            rep = scan(f, verify=verify, mode=mode)
            assert rep.orders == ((want[0], "verified" if verify else "probable"),)
            assert rep.preprocessing_log == log and rep.implied_by_deflation == ()
        assert [k for k, s in scan(f, verify=verify).orders if s != "refuted"] == want


def test_root_strip_leaving_a_composition_scans_it_as_is():
    # (x - 2)(x^3 + 3): the least-order modes strip x = 2 and scan
    # x^3 + 3 without deflating it again
    for mode in ("first_order", "decision_only"):
        rep = scan([-6, 3, 0, -2, 1], mode=mode)
        assert rep.orders == ((3, "verified"),)
        assert rep.preprocessing_log == ("linear factors removed at [Fraction(2, 1)]",)
        assert rep.implied_by_deflation == ()
    rep = scan([-6, 3, 0, -2, 1])  # no strip in all_orders
    assert rep.orders == ((3, "verified"),)
    assert rep.preprocessing_log == () and rep.implied_by_deflation == ()


def test_scaling_runs_on_the_deflated_core_only(monkeypatch):
    # an all_orders or first_order request deflates its core once (the
    # cyclotomic-factor witness deflates inside factors, which is not
    # counted), and only a deflated g of degree >= 2 has its
    # coefficients shrunk
    deflate = P.deflate
    scaled, deflated = [], []

    def watch(module, name, seen):
        inner = getattr(module, name)

        def wrapper(f):
            seen.append(f)
            return inner(f)

        monkeypatch.setattr(module, name, wrapper)

    watch(lrs, "reduce_coefficients", scaled)
    monkeypatch.setattr(lrs, "P", types.SimpleNamespace(**vars(P)))  # lrs's own P only
    watch(lrs.P, "deflate", deflated)
    rng = random.Random(41)
    scalable = [3125, 1000, 300, 80, 16]  # shrinks to x^4 + 2x^3 + 3x^2 + 4x + 5
    corpus = [[-32, 0, 0, 0, 0, 3], [3, 0, 0, 0, 0, 0, 7], P.inflate(scalable, 3)]
    for _ in range(6):
        corpus.append(P.inflate(random_poly(rng, rng.randint(1, 4), h=9), rng.randint(2, 4)))
        corpus.append(random_poly(rng, rng.randint(1, 8)))
    for f in corpus:
        for mode in ("all_orders", "first_order"):
            deflated.clear()
            scan(f, mode=mode)
            assert len(deflated) == 1, (f, mode)
    assert scaled and all(P.degree(g) >= 2 and deflate(g)[1] == 1 for g in scaled)
    rep = scan(P.inflate(scalable, 3))
    assert rep.orders == ((3, "verified"),)
    assert rep.preprocessing_log == (
        "coefficients reduced, lambda 5/2",
        "composed in x^3: orders [3] implied",
    )


def test_random_polynomials_are_typically_nondegenerate():
    rng = random.Random(24601)
    for _ in range(10):
        d = rng.randint(4, 10)
        f = [rng.randint(-512, 512) for _ in range(d)] + [rng.randint(1, 512)]
        if f[0] == 0:
            f[0] = 3
        rep = lrs_degeneracy_orders(f, rng=rng.randrange(2**32))
        assert rep.orders == () or all(s == "refuted" for _, s in rep.orders)


# ----------------------------------------------------------------- modes


def test_first_order_stops_at_smallest():
    rep = scan(cyclotomic_product([3, 5]), mode="first_order")
    assert rep.orders == ((3, "verified"),)
    assert rep.mode == "first_order"


def test_decision_only_settles_via_composition():
    rep = scan([-2, 0, 1], mode="decision_only")
    assert rep.orders == ((2, "verified"),)


def test_decision_only_settles_via_cyclotomic_factor():
    rep = scan(P.mul(phi_poly(7), [3, 1, 1]), mode="decision_only")
    assert rep.orders == ((7, "verified"),)


def test_decision_only_empty_for_plain_polynomial():
    assert scan([3, 1, 1], mode="decision_only").orders == ()


# ------------------------------------------------------ least-order start


def least_order_corpus():
    """Inputs of degree <= 12: cyclotomic products times a random factor,
    random factors times linear ones, compositions g(x^r) and
    g(x) g(-x) h(x)."""
    rng = random.Random(1923)
    small = [k for k in range(3, 31) if euler_phi(k) <= 8]
    out = []
    for _ in range(16):
        ks = rng.sample(small, 2)
        while sum(euler_phi(k) for k in ks) > 8:
            ks.pop()
        out.append(P.mul(cyclotomic_product(ks), random_poly(rng, rng.randint(1, 4), h=20)))
    for _ in range(16):
        f = random_poly(rng, rng.randint(2, 6), h=20)
        for _ in range(rng.randint(1, 3)):
            f = P.mul(f, [rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 5)])
        out.append(f)
    for _ in range(12):
        out.append(P.inflate(random_poly(rng, rng.randint(1, 4), h=20), rng.randint(2, 3)))
    for _ in range(12):
        g = random_poly(rng, rng.randint(1, 3), h=20)
        out.append(P.mul(P.mul(g, negate_arg(g)), random_poly(rng, rng.randint(1, 4), h=20)))
    return out


def test_least_order_modes_agree_with_oracle():
    # first_order is the least order, decision_only one of the orders,
    # whichever of the least prime of r, order 2, the witness, the strip
    # and the scan settles it
    rng = random.Random(1924)
    for f in least_order_corpus():
        core, _ = preprocess(f)
        assert 2 <= P.degree(core) <= 12
        want = cdm_algorithm1(core)
        seed = rng.randrange(2**32)
        for verify in (True, False):
            first, decided = (
                [k for k, s in scan(f, rng=seed, verify=verify, mode=mode).orders if s != "refuted"]
                for mode in ("first_order", "decision_only")
            )
            assert first == want[:1], (f, verify)
            assert len(decided) == len(want[:1]) and set(decided) <= set(want), (f, verify)


def test_first_order_scans_only_below_its_witness(monkeypatch):
    # Phi_23 r: the witness gives 23, so no candidate from 23 up is
    # verified, where a plain scan would verify 23 itself
    asked = []
    inner = lrs.verify_order

    def spy(f, k):
        asked.append(k)
        return inner(f, k)

    monkeypatch.setattr(lrs, "verify_order", spy)
    f = P.mul(phi_poly(23), random_poly(random.Random(23), 4, h=1024))
    rep = scan(f, mode="first_order")
    assert rep.orders == ((23, "verified"),)
    assert rep.preprocessing_log == ("cyclotomic factor of index 23: order 23",)
    assert all(k < 23 for k in asked), asked


def test_order_two_between_rational_roots_comes_before_the_strip():
    # (x - 2)(x + 2) h: the roots 2 and -2 carry order 2, which the strip
    # would remove
    f = P.mul([-4, 0, 1], random_poly(random.Random(2), 4))
    for mode in ("first_order", "decision_only"):
        rep = scan(f, mode=mode)
        assert rep.orders == ((2, "verified"),)
        assert rep.preprocessing_log == ("common factor with f(-x): order 2",)


def unfiltered_root_strip(f, budget=512):
    # _strip_rational_roots without the f(1), f(-1) divisibility filter
    removed = []
    while P.degree(f) >= 2:
        a0, ad = abs(f[0]), abs(f[-1])
        if a0 > 10**12 or ad > 10**12:
            break
        nums, dens = divisors(a0), divisors(ad)
        if len(nums) * len(dens) > budget:
            break
        candidates = (Fraction(s * a, q) for q in dens for a in nums if math.gcd(a, q) == 1
                      for s in (1, -1))
        root = next((x for x in candidates if P.eval_rational_num(f, x) == 0), None)
        if root is None:
            break
        f = P.div_exact(f, [-root.numerator, root.denominator])
        removed.append(root)
    return f, removed


def test_root_strip_filter_keeps_every_rational_root():
    # roots at 1 and -1 make a divisor q -+ b zero, and f(1) or f(-1) zero
    rng = random.Random(1812)
    stripped = 0
    for _ in range(150):
        f = random_poly(rng, rng.randint(1, 5), h=30)
        for _ in range(rng.randint(0, 4)):
            q = rng.randint(1, 4)
            f = P.mul(f, [-rng.choice((-1, 1)) * rng.randint(1, 2 * q), q])
        want = unfiltered_root_strip(f)
        assert lrs._strip_rational_roots(f) == want, f
        stripped += len(want[1])
    assert stripped > 100


def test_unverified_scan_reports_probable():
    rep = scan([2, 4, 2, 0, 1], verify=False)
    assert rep.orders == ((8, "probable"),)


def test_conjecture_bound_recorded_and_applied():
    rep = scan(cyclotomic_product([3, 5]), conjecture_bound=True)
    assert rep.conjecture_bound_used
    assert rep.verified_orders() == [3, 5]  # 15 lies beyond the degree bound


def test_invalid_mode_rejected():
    with pytest.raises(ValueError):
        lrs_degeneracy_orders([1, 1, 1], mode="everything")


def test_scan_deterministic_for_fixed_seed():
    f = [3, 0, 0, 6, 6, 3, 1]
    assert scan(f, rng=99) == scan(f, rng=99)


def test_report_shape():
    rep = scan([2, 4, 2, 0, 1])
    assert isinstance(rep, OrderReport)
    assert rep.mode == "all_orders"
    assert not rep.conjecture_bound_used
    assert [k for k, s in rep.orders if s != "refuted"] == [8]


# --------------------------------------------------------------- oracles


def test_cdm1_pinned_small_cases():
    assert cdm_algorithm1([1, 1, 1]) == [3]
    assert cdm_algorithm1([2, 4, 2, 0, 1]) == [8]
    assert cdm_algorithm1([3, 1, 0, 0, 1]) == []
    assert cdm_algorithm1([1, 2, 3, 3, 3, 2, 1]) == [3, 5, 15]


def test_cdm1_degree_cap():
    with pytest.raises(ValueError):
        cdm_algorithm1([1] * 15)
    assert cdm_algorithm1([1] * 15, cap=20) == sorted(
        d for d in divisors(15) if d > 1
    )


def test_cdm1_rejects_unprepared_input():
    with pytest.raises(ValueError):
        cdm_algorithm1([0, 1, 1, 1])
    with pytest.raises(ValueError):
        cdm_algorithm1(P.mul([1, 1], [1, 1]))


def test_cdm2_pinned_cases():
    assert cdm_algorithm2_first_order([3, 3, 1]) == 6
    assert cdm_algorithm2_first_order([1, 1, 1]) == 3
    assert cdm_algorithm2_first_order([3, 1, 1]) is None


def test_cdm2_respects_k_max():
    assert cdm_algorithm2_first_order([3, 3, 1], k_max=5) is None


def test_cdm2_requires_order_two_excluded():
    with pytest.raises(ValueError):
        cdm_algorithm2_first_order([-2, 0, 1])


def test_oracle_agreement_on_random_corpus():
    rng = random.Random(630)
    seen_degenerate = 0
    for _ in range(25):
        d = rng.randint(2, 6)
        f = [rng.randint(-40, 40) for _ in range(d)] + [rng.randint(1, 40)]
        f = P.canonical(f)
        core, _ = preprocess(f) if f[0] else preprocess([1] + f[1:])
        if P.degree(core) < 2:
            continue
        want = cdm_algorithm1(core)
        got = lrs_degeneracy_orders(core, rng=rng.randrange(2**32)).verified_orders()
        assert got == want, (core, got, want)
        seen_degenerate += bool(want)
    # seeded draws include at least one degenerate hit
    f = P.mul([1, 1, 1], [3, 1, 1])
    assert lrs_degeneracy_orders(f, rng=1).verified_orders() == cdm_algorithm1(f)


def test_cdm2_agrees_with_minimum_order():
    for f in ([1, 1, 1], [3, 3, 1], P.mul([7, 2, 7], [7, 11, 7])):
        rep = lrs_degeneracy_orders(f, rng=5)
        smallest = rep.verified_orders()[0]
        assert cdm_algorithm2_first_order(f) == smallest


def composition_corpus():
    """g(x^r) for r = 2..4 up to degree 12: random g, scaled cyclotomics
    times a linear factor, and degenerate pairs
    (a0 + a1 x + a2 x^2)(a0 - a1 x + a2 x^2)."""
    rng = random.Random(1729)
    out = []
    for r in (2, 3, 4):
        top = 12 // r
        for _ in range(14):
            out.append(P.inflate(random_poly(rng, rng.randint(1, top), h=20), r))
        for k in (3, 4, 5, 6, 8, 10, 12):
            if euler_phi(k) < top:
                lin = [rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9)]
                out.append(P.inflate(P.mul(scaled_phi(k, rng.randint(1, 3)), lin), r))
        if 4 * r <= 12:
            for _ in range(3):
                a0, a1, a2 = (rng.randint(1, 9) for _ in range(3))
                out.append(P.inflate(P.mul([a0, a1, a2], [a0, -a1, a2]), r))
    return out


def test_compositions_agree_with_oracle():
    # only the deflated core g is scanned; its orders lift to those of g(x^r)
    rng = random.Random(1730)
    for f in composition_corpus():
        core, _ = preprocess(f)
        want = cdm_algorithm1(core)
        seed = rng.randrange(2**32)
        assert scan(f, rng=seed).verified_orders() == want, f
        assert scan(f, rng=seed, mode="first_order").verified_orders() == want[:1], f
        got = scan(f, rng=seed, mode="decision_only").verified_orders()
        assert bool(got) == bool(want) and set(got) <= set(want), f


def test_first_order_of_g_between_18_and_the_least_prime_of_r():
    # Phi_19 has the single order 19, which lifts to 19 and 437 under
    # x^23; 19 < 23 is the first order, which its cyclotomic-factor
    # witness gives both least-order modes
    f = P.inflate(phi_poly(19), 23)
    assert scan(f, mode="first_order").orders == ((19, "verified"),)
    assert scan(f, mode="decision_only").orders == ((19, "verified"),)
    assert scan(f).verified_orders() == [19, 23, 437]
    # Phi_19(2x) is no cyclotomic factor, so first_order finds 19 past
    # the first group, and decision_only answers the least prime of r
    f = P.inflate(P.mul(scaled_phi(19, 2), [3, 1, 1]), 23)
    assert scan(f, mode="first_order").orders == ((19, "verified"),)
    assert scan(f, mode="decision_only").orders == ((23, "verified"),)
    # an order-free g leaves the least prime of r, with or without the
    # Galois certificate ending the scan of g
    g = random_poly(random.Random(19), 10, h=50)
    assert scan(g).orders == ()
    assert scan(P.inflate(g, 23), mode="first_order").orders == ((23, "verified"),)
    assert scan(P.inflate(g, 23)).orders == ((23, "verified"),)


def test_compositions_scan_only_their_deflation(monkeypatch):
    seen = []

    def watch(name, degree):
        inner = getattr(lrs, name)

        def wrapper(*args, **kwargs):
            seen.append(degree(args[0]))
            return inner(*args, **kwargs)

        monkeypatch.setattr(lrs, name, wrapper)

    watch("_batch_survivors", P.degree)
    watch("_galois_certificate", P.degree)
    watch("lrs_order_candidates", int)
    g = random_poly(random.Random(7), 50, h=1024)
    assert scan(P.inflate(g, 2), rng=1).orders == ((2, "verified"),)
    assert seen and max(seen) <= 50


# ------------------------------------------------------ Galois certificate


def certified(rep):
    return any(step.startswith("Galois group contains A_") for step in rep.preprocessing_log)


def random_poly(rng, d, h=50):
    f = [rng.randint(-h, h) for _ in range(d)] + [rng.randint(1, h)]
    if f[0] == 0:
        f[0] = 1
    return f


def scaled_phi(k, lam):
    return [c * lam**j for j, c in enumerate(phi_poly(k))]


def uncertifiable_corpus():
    """Inputs whose Galois group cannot contain A_d: orders outside
    {2, 3, 4, 6}, compositions g(x^r), cyclotomic products and plain
    reducible products, all of degree >= 8 and content-free."""
    rng = random.Random(808)
    out = []
    for (a, b), lam in [((5, 7), 2), ((7, 12), 3), ((11, 3), 5), ((9, 10), 7), ((5, 8), 3)]:
        r = random_poly(rng, rng.randint(4, 8))
        out.append(P.primitive_part(P.mul(P.mul(scaled_phi(a, lam), scaled_phi(b, lam)), r)))
    for r in (2, 3):
        out.append(P.inflate(random_poly(rng, 5), r))
    out += [phi_poly(15), phi_poly(21), cyclotomic_product([3, 5, 7]), cyclotomic_product([5, 16])]
    for da, db in [(4, 4), (1, 8), (3, 9), (2, 10)]:
        out.append(P.mul(random_poly(rng, da), random_poly(rng, db)))
    return [P.primitive_part(P.radical_poly(f)) for f in out]


def test_certificate_never_granted_without_a_full_galois_group():
    for f in uncertifiable_corpus():
        assert P.degree(f) >= 8
        assert _galois_certificate(f, "certificate-test", 64) is None, f


def test_scan_does_not_certify_degenerate_or_reducible_inputs():
    rng = random.Random(9)
    for f in uncertifiable_corpus()[:9]:
        for mode in ("all_orders", "first_order", "decision_only"):
            rep = scan(f, rng=rng.randrange(2**32), mode=mode)
            assert not certified(rep), (f, mode)


def test_certified_scans_agree_with_oracle_at_low_degree():
    rng = random.Random(2024)
    took = 0
    total = 12
    for i in range(total):
        core, _ = preprocess(random_poly(rng, 8 + i % 5))
        rep = scan(core, rng=rng.randrange(2**32))
        assert rep.verified_orders() == cdm_algorithm1(core), core
        took += certified(rep)
    assert 2 * took >= total


def test_certificate_log_line_is_deterministic():
    f = random_poly(random.Random(4), 30, h=1024)
    a, b = scan(f, rng=17), scan(f, rng=17)
    assert a == b and certified(a) and a.orders == ()


def test_certified_scan_builds_no_sieve(monkeypatch):
    def no_sieve(*args, **kwargs):
        raise AssertionError("the sieve was built")

    monkeypatch.setattr(lrs, "lrs_order_candidates", no_sieve)
    f = random_poly(random.Random(4), 30, h=1024)
    assert certified(scan(f, rng=17))


def test_first_batch_is_the_sieve_up_to_18():
    for d in range(8, 201):
        for bound in (False, True):
            head = next(_candidate_batches(d, bound))[2]
            assert head == [k for k in lrs_order_candidates(d, bound).orders if k <= 18]


def orders_above_18_corpus():
    rng = random.Random(1918)
    return [
        (P.mul(scaled_phi(19, 2), random_poly(rng, 20, h=1024)), 19),
        (P.mul(scaled_phi(23, 3), random_poly(rng, 20, h=1024)), 23),
    ]


@pytest.mark.parametrize("mode", ["all_orders", "first_order", "decision_only"])
def test_orders_above_18_are_found_and_never_certified(mode):
    for f, k in orders_above_18_corpus():
        rep = scan(f, mode=mode)
        assert rep.verified_orders() == [k] and not certified(rep), (k, mode)


def test_certificate_skipped_on_order_two_and_anti_palindromic_cores(monkeypatch):
    def no_certificate(*args, **kwargs):
        raise AssertionError("the certificate ran")

    monkeypatch.setattr(lrs, "_galois_certificate", no_certificate)
    rng = random.Random(1919)
    g, h = random_poly(rng, 5, h=1024), random_poly(rng, 4, h=1024)
    half = [rng.randint(-1024, 1024) for _ in range(5)] + [rng.randint(1, 1024)]
    order_two = P.mul(P.mul(g, negate_arg(g)), h)
    for f in (order_two, half + [-a for a in half[::-1]], half + [0] + [-a for a in half[::-1]]):
        assert P.degree(f) >= 8
        for mode in ("all_orders", "first_order", "decision_only"):
            assert not certified(scan(f, mode=mode)), (f, mode)
