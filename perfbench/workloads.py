"""The four seeded workloads: their inputs, their truths and the answer
checks.  Imports nothing from cyclolrs (see reference.py).

Each workload is a sequence of rounds.  A round is a fixed mix of request
kinds, so every round costs about the same and a run that stops at a
round boundary sees the same mix whatever its length.  The pool holds
pool_rounds rounds of distinct inputs; a run that needs more rounds
cycles through the pool again.
"""

import random

import reference as R

# lrs_verify round: one input per slot, each requested in every mode.
# Every lcm has a prime factor >= 5, so verify_order takes the generic
# Graeffe step.  Each slot fixes lambda and deg r, so rounds cost alike,
# and five slots put the median request inside one cost class.
VERIFY_SLOTS = (  # ((a, b), lam, deg r); total degree 30..32
    ((5, 7), 2, 20),
    ((7, 12), 3, 20),
    ((11, 3), 5, 20),
    ((9, 10), 7, 20),
    ((5, 8), 3, 24),
)
LRS_MODES = ("all_orders", "first_order", "decision_only")


def _random_poly(rng, degree):
    f = [rng.randint(-1024, 1024) for _ in range(degree)]
    f.append(rng.choice((-1, 1)) * rng.randint(1, 1024))
    if f[0] == 0:
        f[0] = 1
    return f


def _seed(rng):
    return rng.randrange(2**32)


# ----------------------------------------------------------- lrs_scan


def lrs_scan_round(rng, *_):
    out = []
    for d in (50, 75, 100):
        f = _random_poly(rng, d)
        req = {"f": f, "mode": "all_orders", "rng": _seed(rng)}
        out.append((req, {"orders": []}))
    return out


# --------------------------------------------------------- lrs_verify


def verify_input(rng, indexes, lam, deg_r):
    """Phi_a(lam x) * Phi_b(lam x) * r(x) and its order set.

    r is drawn until lam^deg r(x/lam) has no cyclotomic factor, so no
    root of r is a root of unity over lam and r shares no order with the
    cyclotomic part.  Orders among the roots of r alone are assumed
    absent: a random r has none with probability ~1, and one would show
    as a wrong answer, never as a silent pass.
    """
    while True:
        r = _random_poly(rng, deg_r)
        if not R.has_cyclotomic_factor([c * lam ** (deg_r - j) for j, c in enumerate(r)]):
            break
    f = r
    for k in indexes:
        f = R.poly_mul(f, [c * lam**j for j, c in enumerate(R.phi(k))])
    return f, R.degeneracy_orders(indexes)


def lrs_verify_round(rng, *_):
    out = []
    for pair, lam, deg_r in VERIFY_SLOTS:
        f, orders = verify_input(rng, pair, lam, deg_r)
        for mode in LRS_MODES:
            req = {"f": f, "mode": mode, "rng": _seed(rng)}
            out.append((req, {"orders": orders}))
    return out


def check_lrs(req, truth, ans):
    """Verified orders must be exactly the truth (all_orders), its
    minimum (first_order) or one member of it (decision_only); any
    other order the scan lists must carry status refuted."""
    if not isinstance(ans, list):
        return False
    orders = truth["orders"]
    verified = [k for k, s in ans if s == "verified"]
    if any(s not in ("verified", "refuted") for _, s in ans):
        return False
    if any(k in orders for k, s in ans if s == "refuted"):
        return False
    mode = req["mode"]
    if mode == "all_orders":
        return verified == orders
    if not orders:
        return verified == []
    if mode == "first_order":
        return verified == [orders[0]]
    return len(verified) == 1 and verified[0] in orders


# --------------------------------------------------- factors_products


def factors_round(rng, *_):
    """Plain and cofactor products, each with verify on and off.  Index
    sets are redrawn until the degree lies in 14000..17000, the range of
    acceptance criterion 3."""
    out = []
    for cofactor, verify in ((False, True), (True, False), (False, False), (True, True)):
        while True:
            ks = sorted(rng.sample(range(1, 1001), 50))
            if 14000 <= sum(R.euler_phi_small(k) for k in ks) <= 17000:
                break
        f = R.cyclotomic_product(ks)
        if cofactor:
            while True:
                r = _random_poly(rng, 20)
                if not R.has_cyclotomic_factor(r):
                    break
            f = R.poly_mul(r, f)
        req = {"f": f, "verify": verify, "rng": _seed(rng)}
        out.append((req, {"indexes": ks}))
    return out


def check_factors(req, truth, ans):
    """Verified indexes equal the drawn set; without verification every
    drawn index must still be a candidate."""
    if not isinstance(ans, dict):
        return False
    want = set(truth["indexes"])
    low = set(ans["low"])
    if req["verify"]:
        return low | set(ans["verified"]) == want
    return want <= low | set(ans["candidates"])


# -------------------------------------------------------- index_batch


_INDEX_MAX = 3000


def _indexes_by_degree():
    # every j with phi(j) <= 2998 is below 15000, as j/phi(j) < 5 there
    phi = R.totient_table(5 * _INDEX_MAX)
    by_degree = {}
    for j in range(3, len(phi)):
        by_degree.setdefault(phi[j], []).append(j)
    return by_degree


_BY_DEGREE = _indexes_by_degree()


def is_some_phi(f):
    """Is f equal to Phi_j for some j >= 3?  Compared at x = 2 first."""
    v = R.eval_int(f, 2)
    return any(
        R.phi_at_2(j) == v and list(R.phi(j)) == f for j in _BY_DEGREE.get(len(f) - 1, ())
    )


def _near_miss(rng, k):
    """Phi_k with one non-leading coefficient moved by +-1, redrawn when
    the result is itself some Phi_j (Phi_24 + x^4 is Phi_16)."""
    base = R.phi(k)
    while True:
        f = list(base)
        f[rng.randrange(len(f) - 1)] += rng.choice((-1, 1))
        if not is_some_phi(f):
            return f


def index_round(rng, i, rounds):
    """Draw j of the pool takes k from the j-th of equal strata of
    3..3000, so every seed's pool spans the index range alike and the
    slowest requests, which set the tail, do not hinge on the draw."""
    out = []
    kinds = ((False, "prefix"), (True, "eval"), (False, "eval"), (True, "prefix"))
    n = len(kinds) * rounds
    span = _INDEX_MAX - 2
    for m, (near, method) in enumerate(kinds):
        j = len(kinds) * i + m
        k = 3 + (j * span + rng.randrange(span)) // n
        if near:
            f, truth = _near_miss(rng, k), {"outcome": "not_cyclotomic", "index": None}
        else:
            f, truth = list(R.phi(k)), {"outcome": "cyclotomic", "index": k}
        out.append(({"f": f, "method": method}, truth))
    return out


def check_index(req, truth, ans):
    return ans == [truth["outcome"], truth["index"]]


# ----------------------------------------------------------- registry


class Workload:
    def __init__(self, name, make_round, check, pool_rounds, trace_rounds, tail_pct,
                 time_slots):
        self.name = name
        self.make_round = make_round
        self.check = check
        self.pool_rounds = pool_rounds  # distinct rounds generated per seed
        self.trace_rounds = trace_rounds  # fixed length of a traced run
        self.tail_pct = tail_pct  # see README: fixed per workload
        # preallocated time samples, well above a run's request count at
        # the seed code's speed, so worker memory is flat in throughput
        self.time_slots = time_slots

    def pool(self, seed):
        """(requests, truths, round size), a deterministic function of
        the seed."""
        rng = random.Random(f"{self.name}:{seed}")
        reqs, truths = [], []
        for i in range(self.pool_rounds):
            rnd = self.make_round(rng, i, self.pool_rounds)
            reqs.extend(q for q, _ in rnd)
            truths.extend(t for _, t in rnd)
        return reqs, truths, len(rnd)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("lrs_scan", lrs_scan_round, check_lrs, 8, 1, 100, 10_000),
        Workload("lrs_verify", lrs_verify_round, check_lrs, 8, 1, 75, 10_000),
        Workload("factors_products", factors_round, check_factors, 8, 2, 75, 10_000),
        Workload("index_batch", index_round, check_index, 500, 500, 99, 4_000_000),
    )
}
