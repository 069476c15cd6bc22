"""Detection of repeated-ratio root structure: which k admit two distinct
roots alpha, beta of f with alpha/beta a primitive k-th root of unity.

The scanner asks one question modulo primes p = 1 (mod m): does f share
a factor with the product of its twists f(zeta_k x), one per candidate k
dividing m (_twists_share_factor)?  An order k makes every primitive
k-th root a root ratio, since Galois conjugation carries one to all, so
at any prime that keeps the degree each such twist shares a factor with
f, and a trivial gcd rules out every k of the round.  One round screens
a whole candidate group (_batch_survivors), three rounds retest each
survivor alone (_modular_test), and one twist at one prime usually
refutes a false order in verify_order.  Surviving orders are only
probable until verify_order settles them: the twisted norm T_k(x), the
product of f(zeta x) over the primitive k-th roots zeta, is rebuilt in
Z[x] by CRT from its images modulo primes p = 1 (mod k) under a
Landau-Mignotte bound, and a nontrivial gcd with f proves the order.
Every prime of every modular test, the certificate's included, comes
from one rule (_primes): p = 1 (mod m) above 2^25, not dividing the
leading coefficient.
One classical resultant-based detector, cdm_algorithm1, stays here as a
slow reference oracle.

preprocess only normalizes f.  The scan then writes its core once as
g(x^r), r maximal, shrinks the coefficients of g by a rational scaling,
and scans g alone: the orders of g(x^r) are the divisors k > 1 of r and
the lifts of the orders of g (poly.lift).  The least-order modes scan g
only below the bound that _least_order_start finds.

The scan tests every candidate up to 18 first, and a Galois certificate
then usually ends it before the rest of the sieve is even built.  An
order k puts Q(zeta_k), of degree phi(k), inside the splitting field,
and a Galois group containing A_d (d >= 5) has abelian quotients of
order at most 2, so only k in {2, 3, 4, 6} can remain.  Factorization
patterns mod primes are Frobenius cycle types (Dedekind); patterns with
no common proper subset sum prove irreducibility, and a prime cycle
length q with d/2 < q <= d - 3 then forces A_d into the group (Jordan).
"""

import math
import random
from collections import namedtuple
from fractions import Fraction

from . import factors
from . import poly as P
from .modpoly import (
    ddf_degrees,
    gcd_lists_mod,
    inv_series_mod,
    mul_lists_mod,
    rem_lists_fast,
)
from .numtheory import (
    crt_symmetric,
    divisors,
    euler_phi,
    factorize,
    find_prime_in_progression,
    is_prime,
    primitive_root,
    totient_ceiling,
    totient_sieve,
    trial_factor,
)

_MODES = ("all_orders", "first_order", "decision_only")
_STATUSES = ("probable", "verified", "refuted")

# fixed stream for the factor-index subcall inside the first oracle, so the
# oracle itself is a deterministic function of its input
_ORACLE_SEED = 271828


# orders: ascending k >= 3 whose totient divides a sieve entry
CandidateOrders = namedtuple("CandidateOrders", "orders")


class OrderReport(
    namedtuple(
        "OrderReport",
        "orders preprocessing_log mode conjecture_bound_used implied_by_deflation",
        defaults=((),),
    )
):
    """orders: ascending (k, status) pairs."""

    __slots__ = ()

    def verified_orders(self):
        return [k for k, s in self.orders if s == "verified"]


def _negate_arg(f):
    return P.canonical([-a if j % 2 else a for j, a in enumerate(f)])


def _has_order_2(f):
    # a root a with -a also a root is a common root of f(x) and f(-x)
    return P.degree(P.gcd_poly(f, _negate_arg(f))) >= 1


def _multiplicity(p, n):
    n = abs(n)
    m = 0
    while n and n % p == 0:
        n //= p
        m += 1
    return m


def lrs_order_candidates(d, conjecture_bound=False):
    """Orders worth testing for a square-free polynomial of degree d.

    Any admissible k needs phi(k) to divide a product of the degrees of
    two factors sharing the ratio pair, and that product is even; the
    equal-degree case contributes the even squares up to d/2.  With
    conjecture_bound the list is additionally cut at phi(k) <= d, which
    is safe for the minimal order only if the conjectured bound holds.
    """
    if d < 2:
        raise ValueError("degree must be >= 2")
    top = d * d - d
    in_sieve = bytearray(top + 1)
    for a in range(2, d + 1):
        step = a if a % 2 == 0 else 2 * a  # a * b even, 0 < b < a
        in_sieve[step : a * a : step] = b"\1" * len(range(step, a * a, step))
    for a in range(2, d // 2 + 1, 2):
        in_sieve[a * a] = 1
    divides_entry = bytearray(top + 1)
    for t in range(1, top + 1):
        divides_entry[t] = 1 in in_sieve[t::t]
    cap = d if conjecture_bound else top
    limit = totient_ceiling(cap)  # phi(k) <= cap forces k <= limit
    phi = totient_sieve(limit)
    orders = tuple(k for k in range(3, limit + 1) if phi[k] <= cap and divides_entry[phi[k]])
    assert list(orders) == sorted(set(orders)) and all(k >= 3 for k in orders)
    return CandidateOrders(orders=orders)


def _reduce_once(f):
    # one scaling pass: x -> x / p^m whenever p^(jm) divides every a_j, j >= 1
    g = math.gcd(*f[1:])
    if g == 1:
        return list(f), Fraction(1)
    lam = Fraction(1)
    found, _ = trial_factor(g, 1_000_000)  # an unfactored cofactor is ignored
    for p in found:
        m = min(_multiplicity(p, a) // j for j, a in enumerate(f[1:], 1) if a)
        lam /= p**m
    if lam == 1:
        return list(f), Fraction(1)
    return P.scale_arg(f, lam), lam


def reduce_coefficients(f):
    """Shrink coefficients by a rational substitution x -> lam*x, keeping
    the set of degeneracy orders intact.

    The scaling pass runs once forward and once on the reversal, since
    each direction only ever divides primes out of one end.  The scan
    applies it once, to its deflated core g when deg g >= 2.
    """
    f = P.canonical(f)
    if P.degree(f) < 1 or f[0] == 0:
        raise ValueError("input must be non-constant with nonzero trailing term")
    if P.content(f) != 1:
        raise ValueError("input must be content-free")
    f1, lam1 = _reduce_once(f)
    f2, lam2 = _reduce_once(P.reverse(f1))
    return P.reverse(f2), lam1 / lam2


def _strip_rational_roots(f, budget=512):
    # budgeted: factoring the end coefficients must be cheap or we skip.  A root
    # b/q needs q - b | f(1) and q + b | f(-1); a zero divisor passes as 1
    removed = []
    while P.degree(f) >= 2:
        a0, ad = abs(f[0]), abs(f[-1])
        if a0 > 10**12 or ad > 10**12:
            break
        nums, dens = divisors(a0), divisors(ad)
        if len(nums) * len(dens) > budget:
            break
        at1, at_minus1 = P.eval_int(f, 1), P.eval_int(f, -1)
        candidates = (Fraction(b, q) for q in dens for a in nums if math.gcd(a, q) == 1
                      for b in (a, -a) if at1 % ((q - b) or 1) == at_minus1 % ((q + b) or 1) == 0)
        root = next((x for x in candidates if P.eval_rational_num(f, x) == 0), None)
        if root is None:
            break
        f = P.div_exact(f, [-root.numerator, root.denominator])
        removed.append(root)
    return f, removed


def preprocess(f):
    """Normalize f before order detection: strip the power of x, the
    content and sign, and repeated factors, none of which changes the
    orders.  Returns (core, steps), steps the log lines of what was done.

    Everything else happens once, in lrs_degeneracy_orders: deflation,
    coefficient scaling and the least-order start.
    """
    f = P.canonical(f)
    if P.degree(f) < 1:
        raise ValueError("input must be non-constant")
    steps = []
    d0 = 0
    while f[d0] == 0:
        d0 += 1
    if d0:
        f = f[d0:]
        steps.append(f"stripped x^{d0}")
    if P.degree(f) < 1:
        return P.primitive_part(f), steps
    c = P.content(f)
    if c != 1 or f[-1] < 0:
        f = P.primitive_part(f)
        if c != 1:
            steps.append(f"content {c} removed")
    if not P.is_squarefree(f):
        f = P.radical_poly(f)
        steps.append("radical taken")
    return f, steps


def _least_order_start(g, best, steps, rng):
    """Lower best, the least order known or None, on a deflated core g
    of degree >= 2 without order 2, and strip its linear factors.  The
    least odd prime q of the index w of a cyclotomic factor is an order,
    as Phi_w has roots zeta_w^a and zeta_w^(a+w/q) (w is no power of 2:
    with 4 | w, Phi_w has order 2).  A rational root a pairs with zeta a
    only through a^phi(k) Phi_k(x/a), k >= 3 without order 2, whose own
    roots stay and carry an order <= k.  Returns (best, stripped g)."""
    rep = factors.find_cyclo_factor_indexes(g, rng=rng, verify=True)
    witnesses = [(factorize(w // (w & -w))[0][0], w) for w in rep.candidates if rep.verified[w]]
    if witnesses and (best is None or min(witnesses)[0] < best[0]):
        q, w = min(witnesses)
        best = (q, "verified")
        steps.append(f"cyclotomic factor of index {w}: order {q}")
    g, removed = _strip_rational_roots(g)
    if removed:
        steps.append(f"linear factors removed at {removed}")
    return best, g


def verify_order(f, k):
    """Exact check that some pair of roots of f has ratio a primitive
    k-th root of unity.

    The twisted norm T_k(x), the product of f(zeta x) over the
    primitive k-th roots zeta, vanishes at a root of f precisely when
    that root has a partner k steps of rotation away, so a nontrivial
    gcd(f, T_k) is the verdict.  One twisted-gcd round at the first
    ascending prime of _primes(f, k) usually refutes k first: were k an
    order, f(zeta x) would share a factor with f in F_p[x] for every
    primitive k-th root zeta mod p (see the module docstring), so a
    trivial gcd for one of them rules k out.  Otherwise T_k is built
    exactly (_twisted_norm) and gcd_poly decides.  Order 2 shortcuts to
    gcd(f(x), f(-x)).
    """
    f = P.canonical(f)
    if k < 2:
        raise ValueError("orders start at 2")
    if P.degree(f) < 2 or f[0] == 0:
        raise ValueError("input must have degree >= 2 and a nonzero trailing term")
    if not P.is_squarefree(f):
        raise ValueError("input must be square-free")
    if k == 2:
        return _has_order_2(f)
    if not _twisted_round(f, k, factorize(k), (k,), None):
        return False
    return P.degree(P.gcd_poly(f, _twisted_norm(f, k))) >= 1


def _twisted_norm(f, k):
    """T_k(x) = prod f(zeta x) over the primitive k-th roots of unity
    zeta, in Z[x], for k >= 3.

    Its image mod each ascending prime of _primes(f, k) is the product
    of the twists f(z^j x) over j coprime to k, z = g^((p - 1) / k) for a
    generator g mod p, multiplied by a product tree.  CRT combines images
    until the primes' product passes twice the coefficient bound
    C(n, n/2) ||f||_2^phi(k), n the degree of T_k:
    M(T_k) = M(f)^phi(k) <= ||f||_2^phi(k) (Landau), and each
    coefficient is at most C(n, i) M(T_k).
    """
    phi = euler_phi(k)
    n = P.degree(f) * phi
    bound = 2 * math.comb(n, n // 2) * (math.isqrt(sum(a * a for a in f)) + 1) ** phi
    coprime = [j for j in range(1, k) if math.gcd(j, k) == 1]
    fk = factorize(k)
    images, primes, modulus = [], [], 1
    for p in _primes(f, k):
        fbar = [a % p for a in f]
        z = pow(primitive_root(p, k, fk), (p - 1) // k, p)
        level = [_twist(fbar, pow(z, j, p), p) for j in coprime]
        while len(level) > 1:  # an odd one out moves up unpaired
            pairs = zip(level[::2], level[1::2])
            level = [mul_lists_mod(a, b, p) for a, b in pairs] + level[len(level) & ~1 :]
        images.append(level[0])
        primes.append(p)
        modulus *= p
        if modulus > bound:
            return crt_symmetric(images, primes)


# Candidate groups share one prime whenever their lcm stays below this, so
# a single gcd can reject the whole group; primes stay comfortably word-size.
_BATCH_LCM_LIMIT = 10**8


def _batch_partition(ks):
    """Split the ascending candidate list into groups with a small lcm,
    yielded one at a time.

    Greedy sweep: each group absorbs every pending k that keeps the
    running lcm under the limit.  An lcm only grows, so a k passed over
    can never divide the group's final modulus, and one sweep per group
    is complete.  Group minima strictly increase.  Every k <= 18 lands
    in the first group, since lcm(3..18) is below the limit.
    """
    pending = list(ks)
    while pending:
        m = 1
        fac = {}
        group = []
        rest = []
        for k in pending:
            merged = math.lcm(m, k)
            if merged <= _BATCH_LCM_LIMIT:
                m = merged
                group.append(k)
                for q, e in factorize(k):
                    if fac.get(q, 0) < e:
                        fac[q] = e
            else:
                rest.append(k)
        yield m, fac, group
        pending = rest


def _candidate_batches(d, conjecture_bound):
    """The scan's candidate groups, ascending by their minima.

    The first group is every candidate k <= 18 and stands alone; the
    rest of the sieve follows in _batch_partition groups.  The sieve is
    built only when a second group is asked for, since from degree 8 on
    the first group is every such k with phi(k) under the cap: phi(k)
    <= 16 there, and each even number up to 16 is a sieve entry.
    """
    if d < 8:  # a small sieve may leave out small k, and costs nothing
        head = [k for k in lrs_order_candidates(d, conjecture_bound).orders if k <= 18]
    else:
        cap = d if conjecture_bound else d * d - d
        head = [k for k in range(3, 19) if euler_phi(k) <= cap]
    yield from _batch_partition(head)
    rest = lrs_order_candidates(d, conjecture_bound).orders  # built only when asked for
    yield from _batch_partition([k for k in rest if k > 18])


def _batch_survivors(core, batch, seed_key):
    """One twisted-gcd round (_twisted_round) over a whole candidate
    group: every member divides the modulus m, so one prime serves them
    all, and a trivial gcd rejects the entire group.  Whatever survives
    is retested order by order."""
    m, fac, group = batch
    shared = _twisted_round(core, m, fac.items(), group, random.Random(seed_key))
    return list(group) if shared else []


def _modular_test(core, k, seed_key):
    """Three twisted-gcd rounds (_twisted_round) for one candidate order,
    each at its own prime from one seeded stream.  One-sided: an order
    the input carries survives every round, so one trivial gcd refutes
    k outright."""
    rng = random.Random(seed_key)
    fk = factorize(k)
    return all(_twisted_round(core, k, fk, (k,), rng) for _ in range(3))


def _twisted_round(core, m, m_factors, ks, rng):
    """Take the next prime p of _primes(core, m, rng), a seeded draw or,
    without rng, the first ascending one, and test whether core shares a
    factor mod p with its twists core(zeta x), one per k in ks, zeta of
    order k.  Every k must divide m, whose factorization m_factors
    yields the generator the roots come from.  Sound for one twist per
    k: an order k of core keeps a common factor with every primitive
    k-th root twist (see the module docstring)."""
    p = next(_primes(core, m, rng))
    g = primitive_root(p, m, m_factors)
    return _twists_share_factor([a % p for a in core], [pow(g, (p - 1) // k, p) for k in ks], p)


def _twists_share_factor(fbar, zetas, p):
    """Whether fbar shares a factor with the product of its twists
    fbar(zeta x) over zetas, in F_p[x].  The twists keep the degree of
    fbar, so a single one goes straight to the gcd; a longer product is
    reduced mod fbar as it grows, and one vanishing on the way settles
    it."""
    acc = _twist(fbar, zetas[0], p)
    if len(zetas) > 1:
        inv_rev = inv_series_mod(fbar[::-1], len(fbar), p)
        for zeta in zetas[1:]:
            acc = rem_lists_fast(mul_lists_mod(acc, _twist(fbar, zeta, p), p), fbar, inv_rev, p)
            if not acc:
                return True
    return len(gcd_lists_mod(fbar, acc, p)) > 1


def _twist(fbar, zeta, p):
    out = []
    power = 1
    for a in fbar:
        out.append(a * power % p)
        power = power * zeta % p
    return out


def _primes(core, m, rng=None):
    """The primes of every modular test: p = 1 (mod m) above 2^25 that do
    not divide the leading coefficient of core.  Reduction mod p then
    keeps the degree and F_p holds the m-th roots of unity, all that the
    one-sided twisted-gcd filter needs.  Near 2^25, where every small m
    draws, residues stay single-digit ints and packed products below
    degree 4000 fit modpoly's 8-byte slots.  Without rng the primes
    ascend, as CRT needs distinct ones; with rng each is an independent
    seeded draw.  A prime dividing the leading coefficient moves the
    search above it, so every draw ends."""
    floor = p = 1 << 25
    while True:
        p = find_prime_in_progression(m, min_value=p, rng=rng)
        if core[-1] % p:
            yield p
            if rng is not None:
                p = floor


def _galois_certificate(core, seed_key, budget):
    """Try to prove that the Galois group of core contains A_d.

    Dedekind: at a prime p not dividing the leading coefficient where
    core stays square-free, the factor degrees mod p are the cycle type
    of a Frobenius element.  A proper factor over Q of degree m would
    make m a subset sum of every such cycle type, so an empty
    intersection of the subset-sum sets proves irreducibility.  Jordan:
    a transitive group holding a cycle of prime length q with
    d/2 < q <= d - 3 is primitive and contains A_d (a cycle type with
    such a q has a power that is a q-cycle).  Returns the number of
    cycle types used, or None once budget primes are drawn, or half of
    them without proving irreducibility.  The primes are seeded draws
    of _primes(core, 2) from an isolated substream.
    """
    d = P.degree(core)
    jordan = {q for q in range(d // 2 + 1, d - 2) if is_prime(q)}
    if not jordan:
        return None  # d < 8
    common = (1 << d) - 2  # subset sums 1..d-1 shared by every cycle type
    cycle = False
    used = 0
    for drawn, p in zip(range(1, budget + 1), _primes(core, 2, random.Random(seed_key))):
        fbar = [a % p for a in core]
        if len(gcd_lists_mod(fbar, [j * a % p for j, a in enumerate(fbar)][1:], p)) > 1:
            continue  # p divides the discriminant
        sums = 1
        for e in ddf_degrees(fbar, p):
            sums |= sums << e
            cycle = cycle or e in jordan
        common &= sums
        used += 1
        if not common:
            if cycle:
                return used
        elif 2 * drawn >= budget:
            return None  # probably reducible
    return None


def _certificate_budget(d):
    """Primes the certificate may draw, a deterministic function of the
    degree.  When it fails, the scan goes on through the candidates
    above 18, about 1.4 d^2 of them.  Measured from degree 12 to 100,
    those cost as much as 1.4 d certificate primes or more, so above
    degree 50 a failed attempt adds at most about half the scan it
    tried to save.  For a generic input a cycle type holds a Jordan
    prime with chance 0.15 or more, so the floor of 32 misses one only
    about once in a thousand inputs; below degree 50 that floor can
    cost more than the scan."""
    return max(32, 7 * d // 10)


def _report(found, steps, implied, mode, conjecture_bound):
    orders = tuple(sorted(found))
    assert mode in _MODES
    assert all(k >= 2 and s in _STATUSES for k, s in orders)
    return OrderReport(orders, tuple(steps), mode, conjecture_bound, implied)


def lrs_degeneracy_orders(f, rng=None, verify=True, mode="all_orders", conjecture_bound=False):
    """Detect every order k >= 2 for which two distinct roots of f differ
    by a primitive k-th root of unity.

    The preprocessed core is written once as g(x^r) with r maximal, the
    coefficients of g are shrunk when deg g >= 2 (reduce_coefficients),
    and only g is scanned.  Candidates come from the totient sieve for
    deg g; each is screened by three rounds of modular twisted-gcd tests
    and, when verify is set, settled exactly.  first_order and
    decision_only bound the least order by the least prime of r, order 2
    and _least_order_start.  decision_only answers with a bound found;
    first_order, and decision_only without one, scan the stripped g
    below it for the smallest confirmed order.  Every candidate up to 18
    is tested first; a Galois
    certificate may then end the scan before the sieve is built: see
    _galois_certificate.  Each order of g lifts with its status
    (poly.lift), and the divisors k > 1 of r are verified.  Results are
    deterministic for a fixed seed: every candidate draws its primes
    from an isolated substream, so the outcome is independent of scan
    order.
    """
    if mode not in _MODES:
        raise ValueError(f"unknown mode {mode!r}")
    if isinstance(rng, random.Random):
        master = rng.getrandbits(64)
    elif rng is None:
        master = random.Random().getrandbits(64)
    else:
        master = int(rng)
    core, steps = preprocess(f)
    if P.degree(core) < 1:  # a monomial input, which deflate rejects
        return _report([], steps, (), mode, conjecture_bound)
    g, r, _ = P.deflate(core)
    if P.degree(g) >= 2:
        scaled, lam = reduce_coefficients(g)
        if scaled != g:
            g = P.primitive_part(scaled)
            steps.append(f"coefficients reduced, lambda {lam}")
    implied = tuple(k for k in divisors(r) if k > 1)
    if implied:
        steps.append(f"composed in x^{r}: orders {list(implied)} implied")
    d = P.degree(g)

    # first_order / decision_only stop at the first confirmed order, best.
    # The least prime p of r is an order, and an order j < p of g lifts
    # to j and multiples of j, so best starts at p and needs no lift.
    best = None
    if r > 1 and mode != "all_orders":
        best = (factorize(r)[0][0], "verified")
    found = []
    if d >= 2 and (best is None or best[0] > 2) and _has_order_2(g):
        steps.append("common factor with f(-x): order 2")
        found.append((2, "verified"))
        if mode != "all_orders":
            return _report(found, steps, implied, mode, conjecture_bound)
    if mode != "all_orders" and d >= 2 and (best is None or best[0] > 2):
        best, g = _least_order_start(g, best, steps, random.Random(master))
        d = P.degree(g)
    if mode == "decision_only" and best is not None:
        return _report([best], steps, implied, mode, conjecture_bound)

    # group minima increase: a group that starts at best or later is moot
    batches = _candidate_batches(d, conjecture_bound) if d >= 2 else ()
    for i, batch in enumerate(batches):
        group = batch[2]
        if best is not None and group[0] >= best[0]:
            break
        kept = []
        for k in sorted(_batch_survivors(g, batch, f"{master}:batch:{group[0]}")):
            if best is not None and k >= best[0]:
                break
            if not _modular_test(g, k, f"{master}:{k}"):
                continue
            kept.append(k)
            if not verify:
                status = "probable"
            else:
                status = "verified" if verify_order(g, k) else "refuted"
            if mode != "all_orders" and status != "refuted":
                best = (k, status)
                break
            found.append((k, status))
        if i > 0:
            continue
        if best is not None and best[0] <= 18:
            break  # every later group starts above 18
        # the first group holds 3, 4 and 6, the only orders >= 3 that a
        # certified input can carry (see the module docstring).  A g the
        # certificate cannot serve is skipped: the roots of a palindromic
        # one pair up as a, 1/a, a block system; one with a root at 1 or
        # -1 (every anti-palindromic g) is reducible; and an irreducible
        # g sharing a root with g(-x) is +-g(-x), so even or divisible by x
        if (
            set(kept) <= {3, 4, 6}
            and (2, "verified") not in found
            and P.eval_int(g, 1)
            and P.eval_int(g, -1)
            and not P.is_palindromic(g)
        ):
            used = _galois_certificate(g, f"{master}:galois", _certificate_budget(d))
            if used is not None:
                steps.append(
                    f"Galois group contains A_{d} (cycle types at {used} primes): "
                    "no order above 6"
                )
                break
    if best is not None:
        found = [(k, s) for k, s in found if k < best[0]] + [best]
        return _report(found, steps, implied, mode, conjecture_bound)
    # an order j of g, or j = 1 for the pairs over one root of g, gives
    # the orders P.lift(j, r) of g(x^r); lifts never meet
    lifted = [(k, s) for j, s in [(1, "verified"), *found] for k in P.lift(j, r) - {1}]
    return _report(lifted, steps, implied, mode, conjecture_bound)


def cdm_algorithm1(f, cap=12):
    """Reference oracle: expand the full ratio resultant and read the
    complete order set off its cyclotomic factors.

    res_y(f(y), f(xy)) has the root ratios of f as roots; after the
    exact removal of (x-1)^deg(f) the orders are exactly the cyclotomic
    indexes >= 2 dividing what remains.  Quadratic degree growth makes
    this practical only for small inputs, hence the cap.
    """
    f = P.canonical(f)
    d = P.degree(f)
    if d < 2:
        raise ValueError("degree must be >= 2")
    if d > cap:
        raise ValueError(f"oracle capped at degree {cap}")
    if f[0] == 0 or P.content(f) != 1 or not P.is_squarefree(f):
        raise ValueError("input must be content-free, square-free, nonzero at 0")
    xs = []
    ys = []
    t = 1
    while len(xs) < d * d + 1:
        ft = P.canonical([a * t**j for j, a in enumerate(f)])
        xs.append(t)
        ys.append(P.resultant(ft, f))
        t = -t if t > 0 else -t + 1  # never 0: f(0*y) would drop degree
    ratio_poly = P._interpolate_int(xs, ys)
    step = [-1, 1]
    for _ in range(d):
        ratio_poly = P.div_exact(ratio_poly, step)
    ratio_poly = P.primitive_part(ratio_poly)
    rep = factors.find_cyclo_factor_indexes(
        ratio_poly, rng=random.Random(_ORACLE_SEED), verify=True
    )
    orders = [2] if 2 in rep.verified_low else []
    orders += [k for k in rep.candidates if rep.verified.get(k)]
    return sorted(orders)
