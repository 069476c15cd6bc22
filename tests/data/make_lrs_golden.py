"""Write tests/data/lrs_golden.json: lrs results to replay in test_lrs_golden.

Each entry holds an input, a seed, and for every mode the order list
(with verify on) and the preprocessing log.  The replay test demands the
same verified orders from the current code, so regenerate this file only
from a commit whose results are trusted:

    PYTHONPATH=src python tests/data/make_lrs_golden.py
"""

import json
import random
from pathlib import Path

from cyclolrs import poly as P
from cyclolrs.cyclotomic import phi_poly
from cyclolrs.lrs import lrs_degeneracy_orders

OUT = Path(__file__).resolve().parent / "lrs_golden.json"
MODES = ("all_orders", "first_order", "decision_only")

# the five (index pair, lambda) shapes of the lrs_verify benchmark workload
VERIFY_SHAPES = (((5, 7), 2), ((7, 12), 3), ((11, 3), 5), ((9, 10), 7), ((5, 8), 3))


def random_poly(rng, d, h=1024):
    f = [rng.randint(-h, h) for _ in range(d)] + [rng.randint(1, h)]
    if f[0] == 0:
        f[0] = 1
    return f


def negate_arg(f):
    return [-a if j % 2 else a for j, a in enumerate(f)]


def scaled_phi(k, lam):
    return [c * lam**j for j, c in enumerate(phi_poly(k))]


def corpus():
    """(name, f) pairs, the same on every call."""
    rng = random.Random(20261019)
    out = []
    for d in (8, 11, 14, 18, 23, 30):
        out.append((f"random degree {d}", random_poly(rng, d)))
    for (a, b), lam in VERIFY_SHAPES:
        f = P.mul(P.mul(scaled_phi(a, lam), scaled_phi(b, lam)), random_poly(rng, 4))
        out.append((f"Phi_{a}({lam}x) Phi_{b}({lam}x) r, deg r 4", f))
    for r, d in ((2, 7), (3, 5)):
        out.append((f"g(x^{r}), deg g {d}", P.inflate(random_poly(rng, d), r)))
    g, h = random_poly(rng, 9), random_poly(rng, 4)
    half = [rng.randint(-64, 64) for _ in range(6)]
    out.append(("palindromic degree 12", half + [rng.randint(1, 64)] + half[::-1]))
    out.append(("anti-palindromic degree 11", half + [-a for a in half[::-1]]))
    out.append(("anti-palindromic degree 12", half + [0] + [-a for a in half[::-1]]))
    out.append(("g(x) g(-x) h(x), deg g 5, deg h 4", P.mul(P.mul(g[:6], negate_arg(g[:6])), h)))
    out.append(("g(x) reverse(g(x)), deg g 9", P.mul(g, P.reverse(g))))
    out.append(("Phi_19(2x) r, deg r 6", P.mul(scaled_phi(19, 2), random_poly(rng, 6))))
    return out


def main():
    rng = random.Random(31337)
    entries = []
    for name, f in corpus():
        seed = rng.randrange(2**32)
        runs = {}
        for mode in MODES:
            rep = lrs_degeneracy_orders(f, rng=seed, verify=True, mode=mode)
            runs[mode] = {
                "orders": [list(o) for o in rep.orders],
                "preprocessing_log": list(rep.preprocessing_log),
            }
        entries.append({"name": name, "f": P.canonical(f), "seed": seed, "runs": runs})
    OUT.write_text(json.dumps(entries, indent=1) + "\n")


if __name__ == "__main__":
    main()
