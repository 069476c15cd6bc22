"""Dense polynomial kernels over a word-size prime field.

Plain ascending coefficient lists of residues in [0, p), the same
convention as the poly module, with the zero polynomial as the empty
list; nothing here checks that p is prime.  Products pack coefficients
into one big integer so that they ride on CPython's native multiply;
the remainder, series inverse, gcd and the distinct-degree
factorization behind the order scanner's Galois certificate are built
from them.
"""

import sys
from array import array


def _strip(c):
    while c and c[-1] == 0:
        c.pop()
    return c


def _rem_lists(a, b, p):
    # a mod b in F_p[x], both ascending lists, b nonzero
    a = list(a)
    db = len(b) - 1
    if db == 0:
        return []
    inv = pow(b[-1], -1, p)
    bl = list(b[:db])
    for i in range(len(a) - 1, db - 1, -1):
        c = a[i]
        if c:
            q = c * inv % p
            off = i - db
            a[off:i] = [(x - q * y) % p for x, y in zip(a[off:i], bl)]
            a[i] = 0
    return _strip(a)


# slots of at most 8 bytes are widened to 8, which array("Q") packs and
# unpacks at C speed on a little-endian machine
_WORD_SLOTS = sys.byteorder == "little"


def _slot_width(terms, p):
    # bytes per packed slot holding a sum of `terms` products of residues
    w = ((terms * (p - 1) * (p - 1)).bit_length() + 7) // 8
    return 8 if w <= 8 and _WORD_SLOTS else w


def _pack(a, w):
    if w == 8 and _WORD_SLOTS:
        return int.from_bytes(array("Q", a).tobytes(), "little")
    return int.from_bytes(b"".join(v.to_bytes(w, "little") for v in a), "little")


def _unpack(x, w, n, p):
    # the n lowest w-byte slots of x, each reduced mod p
    raw = (x & ((1 << 8 * w * n) - 1)).to_bytes(w * n, "little")
    if w == 8 and _WORD_SLOTS:
        return [v % p for v in array("Q", raw)]
    return [int.from_bytes(raw[i * w : (i + 1) * w], "little") % p for i in range(n)]


def mul_lists_mod(a, b, p, low=None):
    """Product of two ascending coefficient lists in F_p[x].

    Kronecker substitution: both factors are packed into integers with
    enough room per slot that convolution entries cannot overlap, so a
    single native multiply does all the coefficient work.  With low set,
    only the low lowest coefficients are unpacked, and they come back
    zero-padded to exactly that length.
    """
    n = len(a) + len(b) - 1 if low is None else low
    if not a or not b:
        return [] if low is None else [0] * low
    w = _slot_width(min(len(a), len(b)), p)
    out = _unpack(_pack(a, w) * _pack(b, w), w, n, p)
    return _strip(out) if low is None else out


def inv_series_mod(f, e, p):
    """Inverse of f as a power series mod x^e, by Newton doubling."""
    if not f or f[0] == 0:
        raise ValueError("series inverse needs a unit constant term")
    g = [pow(f[0], -1, p)]
    t = 1
    while t < e:
        t = min(2 * t, e)
        h = [(-v) % p for v in mul_lists_mod(f[:t], g, p, t)]
        h[0] = (h[0] + 2) % p
        g = mul_lists_mod(g, h, p, t)
    return g + [0] * (e - len(g))  # top zeros are significant here


def rem_lists_fast(a, f, inv_rev_f, p):
    """a mod f given the series inverse of the reversal of f.

    Division by reversal: the quotient is read off rev(a)*inv_rev_f,
    so two packed multiplies replace the elimination loop.  The inverse
    must be precomputed to at least deg(a) - deg(f) + 1 terms.
    """
    a = _strip(list(a))
    df = len(f) - 1
    if len(a) <= df:
        return a
    e = len(a) - df
    if len(inv_rev_f) < e:
        raise ValueError("series inverse too short for this dividend")
    qr = mul_lists_mod(a[::-1][:e], inv_rev_f[:e], p, e)
    fq = mul_lists_mod(f, qr[::-1], p, df)
    return _strip([(x - y) % p for x, y in zip(a, fq)])


def gcd_lists_mod(a, b, p):
    """Monic gcd of two ascending coefficient lists in F_p[x]."""
    a, b = _strip(list(a)), _strip(list(b))
    while b:
        a, b = b, _rem_lists(a, b, p)
    if a and a[-1] != 1:
        inv = pow(a[-1], -1, p)
        a = [c * inv % p for c in a]
    return a


def _quo_lists_exact(a, b, p):
    # a / b for b | a, by reversal: the quotient is rev(a) / rev(b) mod x^e
    e = len(a) - len(b) + 1
    return mul_lists_mod(a[::-1][:e], inv_series_mod(b[::-1], e, p), p, e)[::-1]


def _mulx_mod(a, f, p):
    # x*a mod a monic f, for deg a < deg f: a shift and one elimination
    if len(a) < len(f) - 1:
        return [0] + a
    top = a[-1]
    return _strip([(b - top * c) % p for b, c in zip([0] + a, f)])


def _matvec(h, rows, w, n, p):
    # sum of h[j] * rows[j] over packed rows with n slots of w bytes
    return _strip(_unpack(sum(c * r for c, r in zip(h, rows) if c), w, n, p))


# degrees whose h - x are multiplied together before one gcd with g
_DDF_BLOCK = 8


def ddf_degrees(f, p):
    """Degrees of the irreducible factors of f in F_p[x], ascending.

    f must be square-free mod p with p not dividing its leading
    coefficient; the degrees are then the cycle type of Frobenius on
    the roots.  Distinct-degree factorization: with h = x^(p^i) mod f,
    gcd(g, h - x) collects the factors of degree i from g, the part
    still unfactored, and once deg g < 2(i+1) what is left of g is
    irreducible.  The Frobenius matrix holds x^(jp) mod f for
    j < deg f, packed row by row, so h -> h^p is one packed
    matrix-vector product; its rows come from the matrix of
    multiplication by x^p, whose rows cost one shift each.  The h - x
    of a block of degrees are multiplied together mod f and share one
    gcd with g, which is split degree by degree only when nontrivial.
    """
    f = _strip([a % p for a in f])
    n = len(f) - 1
    if n < 1:
        raise ValueError("need a polynomial of positive degree mod p")
    if n == 1:
        return [1]
    inv = pow(f[-1], -1, p)
    f = [a * inv % p for a in f]
    inv_rev = inv_series_mod(f[::-1], n, p)
    xp = [0, 1]
    for bit in bin(p)[3:]:
        xp = rem_lists_fast(mul_lists_mod(xp, xp, p), f, inv_rev, p)
        if bit == "1":
            xp = _mulx_mod(xp, f, p)
    w = _slot_width(n, p)
    times_xp = []
    row = xp
    for _ in range(n):
        times_xp.append(_pack(row, w))
        row = _mulx_mod(row, f, p)
    frob = [1]
    row = [1]
    for _ in range(1, n):
        row = _matvec(row, times_xp, w, n, p)
        frob.append(_pack(row, w))
    degrees = []
    g = f
    h = [0, 1]
    i = 0
    while 2 * (i + 1) < len(g):
        block = []
        acc = [1]
        while len(block) < _DDF_BLOCK and 2 * (i + 1) < len(g):
            i += 1
            h = _matvec(h, frob, w, n, p)
            t = h + [0] * (2 - len(h))
            t[1] = (t[1] - 1) % p
            t = _strip(t)
            block.append((i, t))
            acc = rem_lists_fast(mul_lists_mod(acc, t, p), f, inv_rev, p)
        c = gcd_lists_mod(g, acc, p)
        if len(c) == 1:
            continue
        g = _quo_lists_exact(g, c, p)
        for j, t in block:
            cj = gcd_lists_mod(t, c, p)
            if len(cj) > 1:
                degrees += [j] * ((len(cj) - 1) // j)
                c = _quo_lists_exact(c, cj, p)
    if len(g) > 1:
        degrees.append(len(g) - 1)
    return degrees
