import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclolrs import poly as P
from cyclolrs.numtheory import divisors, word_prime
from oracles import graeffe


# --- independent oracles -------------------------------------------------

def sylvester_resultant(A, B):
    """res(A, B) = lc(A)^deg(B) * prod B(alpha) over roots alpha of A,
    via the Sylvester determinant with exact fraction Gaussian elimination."""
    m, n = len(A) - 1, len(B) - 1
    if m == 0:
        return A[0] ** n
    if n == 0:
        return B[0] ** m
    size = m + n
    rows = []
    for i in range(n):  # n rows of A's coefficients
        row = [Fraction(0)] * size
        for j, c in enumerate(reversed(A)):
            row[i + j] = Fraction(c)
        rows.append(row)
    for i in range(m):  # m rows of B's coefficients
        row = [Fraction(0)] * size
        for j, c in enumerate(reversed(B)):
            row[i + j] = Fraction(c)
        rows.append(row)
    det = Fraction(1)
    for col in range(size):
        piv = next((r for r in range(col, size) if rows[r][col]), None)
        if piv is None:
            return 0
        if piv != col:
            rows[col], rows[piv] = rows[piv], rows[col]
            det = -det
        det *= rows[col][col]
        inv = 1 / rows[col][col]
        for r in range(col + 1, size):
            if rows[r][col]:
                factor = rows[r][col] * inv
                for c in range(col, size):
                    rows[r][c] -= factor * rows[col][c]
    assert det.denominator == 1
    return det.numerator


def resultant_y_scaled(f, m):
    """res_y(f(xy), y^m - 1) as a polynomial in x.

    Equals the product of f(x*zeta) over all m-th roots of unity zeta, so
    it is the inflated Graeffe transform G_m(f)(x^m) up to sign.  Built by
    evaluation at deg(f)*m + 1 integer points and exact interpolation.
    """
    f = P.canonical(f)
    d = len(f) - 1
    A = [-1] + [0] * (m - 1) + [1]  # y^m - 1
    xs = []
    ys = []
    t = 0
    while len(xs) < d * m + 1:
        ft = P.canonical([a * t**j for j, a in enumerate(f)])
        xs.append(t)
        ys.append(P._res_standard(A, ft) if ft else 0)
        t = -t if t > 0 else -t + 1
    return P._interpolate_int(xs, ys)


def prs_gcd(f, g):
    """Primitive positive-leading gcd by the primitive PRS: repeated
    pseudo-remainders, each reduced to its primitive part."""
    f, g = P.canonical(f), P.canonical(g)
    if not f:
        return P.primitive_part(g)
    if not g:
        return P.primitive_part(f)
    A, B = P.primitive_part(f), P.primitive_part(g)
    if len(A) < len(B):
        A, B = B, A
    while B:
        R = P._prem(A, B)
        A, B = B, (P.primitive_part(R) if R else [])
    return P.neg(A) if A[-1] < 0 else A


def rand_poly(rng, deg, bound=20, monic=False):
    f = [rng.randint(-bound, bound) for _ in range(deg)]
    f.append(1 if monic else rng.choice([c for c in range(-bound, bound + 1) if c]))
    return f


# --- basic arithmetic ----------------------------------------------------

def test_canonical_and_degree():
    assert P.canonical([1, 2, 0, 0]) == [1, 2]
    assert P.degree([]) == -1
    assert P.degree([4]) == 0


@given(st.lists(st.integers(-50, 50), max_size=8), st.lists(st.integers(-50, 50), max_size=8))
def test_add_sub_roundtrip(f, g):
    assert P.sub(P.add(f, g), g) == P.canonical(f)


@given(
    st.lists(st.integers(-20, 20), max_size=6),
    st.lists(st.integers(-20, 20), max_size=6),
    st.integers(-30, 30),
)
def test_mul_agrees_with_evaluation(f, g, x):
    assert P.eval_int(P.mul(f, g), x) == P.eval_int(f, x) * P.eval_int(g, x)


def test_content_primitive_pinned():
    assert P.content([2, 4, 6]) == 2
    assert P.primitive_part([2, 4, 6]) == [1, 2, 3]
    assert P.primitive_part([-1, 1]) == [-1, 1]
    assert P.primitive_part([0, -3]) == [0, 1]
    with pytest.raises(ValueError):
        P.primitive_part([])


def test_gcd_pinned():
    assert P.gcd_poly([-1, 0, 1], [-1, 1]) == [-1, 1]
    # x^4 + x^2 + 1 and x^2 + x + 1 share the latter
    assert P.gcd_poly([1, 0, 1, 0, 1], [1, 1, 1]) == [1, 1, 1]
    assert P.gcd_poly([1, 0, 1], [-1, 0, 1]) == [1]


@settings(max_examples=40)
@given(st.data())
def test_gcd_divides_both_and_scales(data):
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    f = rand_poly(rng, rng.randint(1, 4), 8)
    g = rand_poly(rng, rng.randint(1, 4), 8)
    h = rand_poly(rng, rng.randint(0, 3), 8)
    d = P.gcd_poly(f, g)
    assert P.div_exact(P.canonical(f), d) is not None
    assert P.div_exact(P.canonical(g), d) is not None
    dh = P.gcd_poly(P.mul(f, h), P.mul(g, h))
    expected = P.mul(d, P.primitive_part(h))
    if expected[-1] < 0:
        expected = P.neg(expected)
    assert dh == expected


def test_radical_pinned():
    assert P.radical_poly([1, -2, 1]) == [-1, 1]  # (x-1)^2
    f = P.mul(P.mul([-2, 1], P.mul([-2, 1], [-2, 1])), [1, 1])
    assert P.radical_poly(f) == P.mul([-2, 1], [1, 1])
    assert P.radical_poly([1, 1, 1]) == [1, 1, 1]


@settings(max_examples=30)
@given(st.data())
def test_radical_properties(data):
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    f = rand_poly(rng, rng.randint(1, 3), 6)
    k = rng.randint(1, 3)
    fk = [1]
    for _ in range(k):
        fk = P.mul(fk, f)
    r = P.radical_poly(fk)
    assert P.is_squarefree(r)
    assert r == P.radical_poly(f)


def test_reverse_palindromic_pinned():
    assert P.reverse([1, 3, 2]) == [2, 3, 1]
    assert P.is_palindromic([1, 0, 1, 0, 1])
    assert not P.is_palindromic([-2, 1])
    assert P.reverse(P.reverse([2, 3, 1])) == [2, 3, 1]


def test_deflate_pinned():
    assert P.deflate([1, 0, 1, 0, 1]) == ([1, 1, 1], 2, 0)
    assert P.deflate([1, 0, 0, 1, 0, 0, 1]) == ([1, 1, 1], 3, 0)
    # x^5 + x^3 = x^3 * (x^2 + 1): after the x^3 strip the gap gcd is 2,
    # so the base keeping f = x^d0 * g(x^r) is g = x + 1
    assert P.deflate([0, 0, 0, 1, 0, 1]) == ([1, 1], 2, 3)
    with pytest.raises(ValueError):
        P.deflate([0, 0, 5])


@settings(max_examples=50)
@given(st.data())
def test_deflate_reinflates(data):
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    f = P.canonical(rand_poly(rng, rng.randint(1, 9), 5))
    if len([c for c in f if c]) < 2:
        return
    g, r, d0 = P.deflate(f)
    assert [0] * d0 + P.inflate(g, r) == f


def test_lift_matches_root_orders():
    # oracle: the orders j r / gcd(1 + j t, j r), 0 <= t < r, of the r-th
    # roots of exp(2 pi i / j), one gcd per root
    for j in range(1, 61):
        for r in range(1, 121):
            want = {j * r // math.gcd(1 + j * t, j * r) for t in range(r)}
            assert P.lift(j, r) == want, (j, r)
    assert P.lift(1, 2**25) == set(divisors(2**25))


def test_eval_rational_num_pinned():
    assert P.eval_rational_num([1, 0, 1], Fraction(3, 2)) == 13
    assert P.eval_rational_num([-1, 1], Fraction(2)) == 1
    assert P.eval_rational_num([1, 0, 1, 0, 1], Fraction(2)) == 21
    # reversal computes the beta^(-1) numerator of a palindromic input
    assert P.eval_rational_num(P.reverse([1, 0, 1, 0, 1]), Fraction(2)) == 21
    assert P.eval_rational_num([], Fraction(5, 3)) == 0


@settings(max_examples=60)
@given(st.data())
def test_eval_rational_num_matches_fractions(data):
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    f = P.canonical(rand_poly(rng, rng.randint(0, 5), 30))
    p = rng.randint(1, 40)
    q = rng.randint(1, 40)
    g = math.gcd(p, q)
    beta = Fraction(p // g, q // g)
    d = P.degree(f)
    direct = sum(Fraction(a) * beta**j for j, a in enumerate(f))
    assert P.eval_rational_num(f, beta) == direct * beta.denominator**d


def test_eval_rational_integer_point_is_plain_eval():
    rng = random.Random(3)
    for _ in range(40):
        f = P.canonical(rand_poly(rng, rng.randint(0, 6), 50))
        x = rng.randint(1, 9)
        assert P.eval_rational_num(f, Fraction(x)) == P.eval_int(f, x)


def test_graeffe_pinned():
    assert graeffe([-2, 1], 3) == [-8, 1]
    assert graeffe([-2, 0, 1], 2) == [4, -4, 1]
    assert graeffe([1, 1, 1], 3) == [1, -2, 1]  # (x-1)^2


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_graeffe_matches_resultant_oracle(data):
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    f = rand_poly(rng, rng.randint(1, 6), 6)
    k = data.draw(st.integers(1, 6))
    # res_y(f(y), x - y^k) = lc^k prod (x - alpha^k), up to the sign that
    # the positive-leading normalization discards
    d = len(f) - 1
    pts = list(range(d + 1))
    vals = [sylvester_resultant(f, [t] + [0] * (k - 1) + [-1]) for t in pts]
    oracle = P._interpolate_int(pts, vals)
    got = graeffe(f, k)
    assert got == oracle or got == P.neg(oracle)


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_graeffe_composes(data):
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    f = rand_poly(rng, rng.randint(1, 5), 5)
    a = data.draw(st.integers(1, 5))
    b = data.draw(st.integers(1, 5))
    assert graeffe(f, a * b) == graeffe(graeffe(f, b), a)


def test_graeffe_degree_and_monic_preserved():
    rng = random.Random(9)
    for _ in range(25):
        f = rand_poly(rng, rng.randint(1, 6), 10, monic=True)
        k = rng.randint(1, 8)
        g = graeffe(f, k)
        assert P.degree(g) == P.degree(f)
        assert g[-1] == 1


def test_resultant_pinned():
    assert P.resultant([-2, 1], [-5, 1]) == 3
    assert P.resultant([-5, 1], [-2, 1]) == -3


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_resultant_matches_sylvester(data):
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    f = rand_poly(rng, rng.randint(0, 5), 9)
    g = rand_poly(rng, rng.randint(0, 5), 9)
    assert P.resultant(f, g) == sylvester_resultant(g, f)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_resultant_multiplicative(data):
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    f = rand_poly(rng, rng.randint(1, 4), 7)
    g1 = rand_poly(rng, rng.randint(1, 3), 7)
    g2 = rand_poly(rng, rng.randint(1, 3), 7)
    assert P.resultant(f, P.mul(g1, g2)) == P.resultant(f, g1) * P.resultant(f, g2)


def test_resultant_y_scaled_cube_roots():
    # for f = x^2 + x + 1 the scaled resultant against y^3 - 1 has repeated
    # factors: the root ratios include all cube roots of unity
    R = resultant_y_scaled([1, 1, 1], 3)
    assert not P.is_squarefree(R)
    # and it is a polynomial in x^3
    assert all(c == 0 for j, c in enumerate(R) if j % 3)


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_resultant_y_scaled_is_inflated_graeffe(data):
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    f = rand_poly(rng, rng.randint(1, 4), 5)
    m = data.draw(st.integers(1, 4))
    R = resultant_y_scaled(f, m)
    G = P.inflate(graeffe(f, m), m)
    assert R == G or R == P.neg(G)


def test_is_squarefree():
    assert not P.is_squarefree([1, -2, 1])
    assert P.is_squarefree([1, 1, 1])
    assert P.is_squarefree([7])


# the first primes of gcd_poly's sequence, which skips a prime dividing
# either leading coefficient
W0, W1, W2, W3 = (word_prime(i) for i in range(4))


@pytest.mark.parametrize("lc", [1, W0, 5 * W0, W0 * W1])
def test_coprime_fast_path_with_blocked_primes(lc):
    # with lc 1 the first image settles coprimality; W0 moves it to the
    # second prime, W0 * W1 to the third
    f = [3, 1, lc]
    g = [7, 2, 1, lc]
    assert P.gcd_poly(f, g) == [1]
    h = [W2 + 4, 1]
    fh, gh = P.mul(h, f), P.mul(h, g)
    assert P.gcd_poly(fh, gh) == h
    assert P.is_squarefree(fh)
    assert not P.is_squarefree(P.mul(fh, h))


def test_gcd_skips_every_blocked_word_prime():
    lc = W0 * W1 * W2 * W3
    f, g = [3, 1, lc], [7, 2, 1, lc]
    assert P.gcd_poly(f, g) == [1]
    assert P.is_squarefree(f)
    h = [-W3, 0, 1]
    assert P.gcd_poly(P.mul(f, h), P.mul(g, h)) == h
    assert not P.is_squarefree(P.mul(P.mul(f, h), h))


@pytest.mark.parametrize("unlucky", [0, 1])
def test_gcd_survives_an_unlucky_prime(unlucky):
    # the cofactors x + 1 and x + 1 + W share a root mod W only, so the
    # image at W has one degree too many: first (images restart at the
    # next prime) or second (that image is skipped)
    w = word_prime(unlucky)
    h = [2**40 + 7, -3, 5]
    f, g = P.mul(h, [1, 1]), P.mul(h, [1 + w, 1])
    assert P.gcd_poly(f, g) == h
    assert P.gcd_poly([1, 1], [1 + w, 1]) == [1]


def wide_poly(rng, deg, bound):
    # rand_poly for large bounds: the leading coefficient is drawn directly
    f = [rng.randint(-bound, bound) for _ in range(deg)]
    return f + [rng.choice((-1, 1)) * rng.randint(1, bound)]


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_gcd_matches_prs_oracle(data):
    # shared factors (or a shared constant, giving content), constant and
    # non-monic inputs, and leading coefficients divisible by the first
    # 0 to 3 word primes
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    bound = data.draw(st.sampled_from([3, 50, 10**12]))
    block = math.prod(word_prime(i) for i in range(data.draw(st.integers(0, 3))))
    common = wide_poly(rng, rng.randint(0, 4), bound)
    common = common if data.draw(st.booleans()) else [rng.choice([-6, -1, 1, 4])]
    a = wide_poly(rng, rng.randint(0, 5), bound)
    b = wide_poly(rng, rng.randint(0, 5), bound)
    a[-1] *= block
    b[-1] *= block
    f, g = P.mul(common, a), P.mul(common, b)
    assert P.gcd_poly(f, g) == prs_gcd(f, g)
    assert P.is_squarefree(f) == (len(prs_gcd(f, P.derivative(f))) == 1)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_gcd_of_repeated_factors_matches_prs_oracle(data):
    # several primes and a trial division are needed when the gcd has
    # large coefficients, as for a square part with a 40-bit root
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    h = wide_poly(rng, rng.randint(1, 3), 2**40)
    f = P.mul(P.mul(h, h), wide_poly(rng, rng.randint(0, 4), 2**20))
    assert P.gcd_poly(f, P.derivative(f)) == prs_gcd(f, P.derivative(f))
    assert not P.is_squarefree(f)
    assert P.radical_poly(f) == P.div_exact(
        P.primitive_part(f), prs_gcd(f, P.derivative(f))
    )


def test_scale_arg_pinned():
    f = [3125, 1000, 300, 80, 16]
    assert P.scale_arg(f, Fraction(1, 2)) == [3125, 500, 75, 10, 1]
    with pytest.raises(ValueError):
        P.scale_arg([1, 1], Fraction(1, 2))


def test_div_exact_errors():
    with pytest.raises(ArithmeticError):
        P.div_exact([1, 0, 1], [1, 1])
    assert P.div_exact([-1, 0, 1], [1, 1]) == [-1, 1]
