"""Command-line front end.

Subcommands cover the three algorithm families: ``index`` decides
whether a polynomial is cyclotomic and names the index, ``factors``
locates the indexes of all cyclotomic factors, ``lrs`` finds the
degeneracy orders of the associated linear recurrence.  ``bench`` runs
small timing scenarios over generated inputs.

Polynomials arrive as an inline expression ("x^4+2*x^2+4*x+2"), an
ascending coefficient list ("2,4,2,0,1" or "2 4 2 0 1"), or a file
reference ("@poly.txt").  Reports print as text or as JSON with a
stable key order, so identical invocations give byte-identical output.
"""

import argparse
import json
import os
import random
import re
import sys
import time

from . import poly as P
from .cyclotomic import cyclotomic_product, phi_poly
from .factors import find_cyclo_factor_indexes
from .lrs import lrs_degeneracy_orders
from .numtheory import divisors
from .recognize import cyclo_index

_LRS_MODES = {"all": "all_orders", "first": "first_order", "decide": "decision_only"}


class PolySyntaxError(ValueError):
    def __init__(self, message, pos):
        super().__init__(f"{message} (column {pos + 1})")
        self.pos = pos


# ------------------------------------------------------------------ parsing

_TOKEN = re.compile(r"\s*(?:(\d+)|(x)|([+\-*^()])|(\S))")


def _tokenize(text):
    out = []
    i = 0
    while i < len(text):
        m = _TOKEN.match(text, i)
        if m is None:
            break
        num, var, op, bad = m.groups()
        if bad is not None:
            raise PolySyntaxError(f"unexpected character {bad!r}", m.start(4))
        if num is not None:
            out.append(("int", int(num), m.start(1)))
        elif var is not None:
            out.append(("x", None, m.start(2)))
        else:
            out.append((op, None, m.start(3)))
        i = m.end()
    out.append(("end", None, len(text)))
    return out


# largest degree, and largest coefficient bound in bits, that one power
# may reach: x^33554432+1 (degree 2^25) answers in 10.3 s, x^10000000+1
# in 3.0 s and x^200000+1 in 0.22 s (Python 3.11.7, 2 cores), while a
# larger exponent runs out of memory or time before any command sees the
# polynomial
_POWER_LIMIT = 2**25


class _Parser:
    """Recursive descent over: expr = term ((+|-) term)*;
    term = signed (* signed)*; signed = - signed | power;
    power = atom (^ uint)*; atom = int | x | ( expr ).
    """

    def __init__(self, text):
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def take(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expr(self):
        f = self.term()
        while self.peek()[0] in "+-":
            op, _, _ = self.take()
            g = self.term()
            f = P.add(f, g) if op == "+" else P.sub(f, g)
        return f

    def term(self):
        f = self.signed()
        while self.peek()[0] == "*":
            self.take()
            f = P.mul(f, self.signed())
        return f

    def signed(self):
        if self.peek()[0] == "-":
            self.take()
            return P.neg(self.signed())
        return self.power()

    def power(self):
        f = self.atom()
        while self.peek()[0] == "^":
            self.take()
            kind, val, at = self.take()
            if kind != "int":
                raise PolySyntaxError("exponent must be a nonnegative integer", at)
            norm = sum(map(abs, f))
            bits = (norm - 1).bit_length() if norm > 1 else 0  # |f^e| <= norm^e
            if max(P.degree(f), bits) * val > _POWER_LIMIT:
                raise PolySyntaxError(f"power too large: exponent {val}", at)
            f = _pow(f, val)
        return f

    def atom(self):
        kind, val, at = self.take()
        if kind == "int":
            return [val]
        if kind == "x":
            return [0, 1]
        if kind == "(":
            f = self.expr()
            kind, _, at = self.take()
            if kind != ")":
                raise PolySyntaxError("expected ')'", at)
            return f
        raise PolySyntaxError("expected a number, x or '('", at)


def _pow(f, e):
    out = [1]
    sq = f
    while e:
        if e & 1:
            out = P.mul(out, sq)
        e >>= 1
        if e:
            sq = P.mul(sq, sq)
    return out


def parse_poly(text):
    """Parse an expression in x into an ascending coefficient list."""
    parser = _Parser(text)
    f = parser.expr()
    kind, _, at = parser.peek()
    if kind != "end":
        raise PolySyntaxError("trailing input", at)
    return P.canonical(f)


_INT_LIST = re.compile(r"[+-]?\d+(?:[,\s]+[+-]?\d+)*\Z")


def _poly_from_text(text):
    text = text.strip()
    if not text:
        raise ValueError("empty polynomial input")
    if _INT_LIST.match(text):
        return P.canonical([int(t) for t in re.split(r"[,\s]+", text)])
    return parse_poly(text)


def read_poly_file(path):
    """One polynomial per file: an expression or an ascending
    coefficient list, '#' to end of line is a comment."""
    with open(path, encoding="utf-8") as fh:
        lines = [ln.split("#", 1)[0].strip() for ln in fh]
    lines = [ln for ln in lines if ln]
    if len(lines) != 1:
        raise ValueError(f"{path}: expected exactly one polynomial, found {len(lines)}")
    return _poly_from_text(lines[0])


def poly_from_arg(arg):
    if arg.startswith("@"):
        return read_poly_file(arg[1:])
    return _poly_from_text(arg)


# ---------------------------------------------------------------- reporting


def _emit(args, degree, result, elapsed, preprocessing, text_lines):
    if args.format == "json":
        payload = {
            "input_degree": degree,
            "command": args.command,
            "seed": args.seed,
            "result": result,
            "timings_ms": {"total": round(elapsed * 1000, 3)} if args.timings else None,
            "preprocessing_log": preprocessing,
        }
        print(json.dumps(payload, indent=2))
    else:
        for line in text_lines:
            print(line)
        if args.timings:
            print(f"time: {elapsed * 1000:.1f} ms")


def cmd_cyclo_index(f, args):
    t0 = time.perf_counter()
    v = cyclo_index(f, method=args.method, verify=not args.no_verify)
    elapsed = time.perf_counter() - t0
    result = {
        "cyclotomic": v.outcome == "cyclotomic",
        "index": v.index,
        "outcome": v.outcome,
        "method": v.method,
        "checks_failed": v.checks_failed,
    }
    if v.outcome == "cyclotomic":
        text = [f"cyclotomic: index {v.index} (method {v.method})"]
    elif v.outcome == "candidate_unverified":
        text = [f"candidate index {v.index} (method {v.method}, unverified)"]
    else:
        text = [f"not cyclotomic (failed: {v.checks_failed})"]
    return result, elapsed, None, text


def cmd_cyclo_factors(f, args):
    t0 = time.perf_counter()
    rep = find_cyclo_factor_indexes(f, rng=random.Random(args.seed), verify=args.verify)
    elapsed = time.perf_counter() - t0
    verified = None
    if rep.verified is not None:
        verified = {str(k): rep.verified[k] for k in sorted(rep.verified)}
    result = {
        "verified_low": list(rep.verified_low),
        "candidates": list(rep.candidates),
        "verified": verified,
        "evaluation_points_used": [str(b) for b in rep.evaluation_points_used],
    }
    text = [
        "verified low indexes: " + (" ".join(map(str, rep.verified_low)) or "none"),
        "candidate indexes: " + (" ".join(map(str, rep.candidates)) or "none"),
    ]
    if verified is not None:
        kept = [k for k in rep.candidates if rep.verified[k]]
        text.append("verified indexes: " + (" ".join(map(str, kept)) or "none"))
    return result, elapsed, None, text


def cmd_lrs_orders(f, args):
    t0 = time.perf_counter()
    rep = lrs_degeneracy_orders(
        f,
        rng=args.seed,
        verify=args.verify,
        mode=_LRS_MODES[args.mode],
        conjecture_bound=args.conjecture_bound,
    )
    elapsed = time.perf_counter() - t0
    result = {
        "orders": [{"k": k, "status": s} for k, s in rep.orders],
        "implied_by_deflation": list(rep.implied_by_deflation),
        "mode": rep.mode,
        "conjecture_bound_used": rep.conjecture_bound_used,
    }
    text = [f"# {step}" for step in rep.preprocessing_log]
    if rep.orders:
        text += [f"order {k}: {s}" for k, s in rep.orders]
    else:
        text.append("no degeneracy orders")
    return result, elapsed, list(rep.preprocessing_log), text


# ------------------------------------------------------------------- bench


def _timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return out, (time.perf_counter() - t0) * 1000


def bench_index(seed):
    rng = random.Random(seed)
    ks = [105, 255, 1155, 2310, 3003, rng.randrange(1000, 3000)]
    rows = []
    for k in ks:
        f = phi_poly(k)
        for method in ("prefix", "eval"):
            v, ms = _timed(lambda: cyclo_index(f, method=method))
            ok = v.outcome == "cyclotomic" and v.index == k
            rows.append(
                {
                    "case": f"phi_{k}_{method}",
                    "degree": P.degree(f),
                    "ms": round(ms, 2),
                    "summary": f"index {v.index} {'ok' if ok else 'WRONG'}",
                }
            )
    return rows


def _factors_row(case, f, want, rng):
    rep, ms = _timed(lambda: find_cyclo_factor_indexes(f, rng=rng))
    got = set(rep.verified_low) | {k for k in rep.candidates if rep.verified[k]}
    missed = len(set(want) - got)
    return {
        "case": case,
        "degree": P.degree(f),
        "ms": round(ms, 2),
        "summary": f"recovered {len(set(want) & got)}/{len(want)}, "
        f"missed {missed}, extras {len(got - set(want))}",
        "missed": missed,
    }


def bench_factors(seed):
    rng = random.Random(seed)
    rows = []
    for trial in range(3):
        want = sorted(rng.sample(range(1, 501), 30))
        f = cyclotomic_product(want)
        rows.append(
            _factors_row(f"product_{trial}", f, want, random.Random(rng.randrange(2**32)))
        )
    # content and x^r structure: 2 x^2000 - 2, whose core is x - 1
    f = [-2] + [0] * 1999 + [2]
    rows.append(_factors_row("content_x2000_minus_1", f, divisors(2000), random.Random(seed)))
    return rows


def bench_lrs(seed):
    rng = random.Random(seed)
    cases = [("degenerate_quartic", [2, 4, 2, 0, 1]), ("phi3_phi5", cyclotomic_product([3, 5]))]
    for d in (25, 50, 50):
        f = [rng.randint(-1024, 1024) for _ in range(d)] + [rng.randint(1, 1024)]
        if f[0] == 0:
            f[0] = 1
        cases.append((f"random_deg_{d}", f))
    cases[-1] = ("composed_deg_100", P.inflate(cases[-1][1], 2))  # the third draw in x^2
    rows = []
    for name, f in cases:
        rep, ms = _timed(
            lambda: lrs_degeneracy_orders(f, rng=rng.randrange(2**32), verify=True)
        )
        rows.append(
            {
                "case": name,
                "degree": P.degree(f),
                "ms": round(ms, 2),
                "summary": "orders " + str(rep.verified_orders()),
            }
        )
    return rows


_SCENARIOS = {"index": bench_index, "factors": bench_factors, "lrs": bench_lrs}


def cmd_bench(args):
    scenario = args.scenario
    names = list(_SCENARIOS) if scenario == "all" else [scenario]
    rows = []
    t0 = time.perf_counter()
    for name in names:
        rows.extend(_SCENARIOS[name](args.seed))
    elapsed = time.perf_counter() - t0
    text = [f"{'case':24} {'deg':>6} {'ms':>10}  summary"]
    for r in rows:
        text.append(f"{r['case']:24} {r['degree']:>6} {r['ms']:>10.2f}  {r['summary']}")
    return {"scenario": scenario, "cases": rows}, elapsed, None, text


# -------------------------------------------------------------------- main

_COMMANDS = {"index": cmd_cyclo_index, "factors": cmd_cyclo_factors, "lrs": cmd_lrs_orders}


def build_parser():
    ap = argparse.ArgumentParser(
        prog="cyclo",
        description="cyclotomic recognition, factor indexes and recurrence "
        "degeneracy orders for integer polynomials",
    )
    ap.add_argument("--format", choices=("text", "json"), default="text")
    ap.add_argument("--timings", action="store_true", help="include wall time")
    ap.set_defaults(seed=0, verify=False, mode="all", conjecture_bound=False)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("index", help="is the polynomial cyclotomic, and which one")
    p.add_argument("poly")
    p.add_argument("--method", choices=("prefix", "eval"), default="prefix")
    p.add_argument("--no-verify", action="store_true")

    p = sub.add_parser("factors", help="indexes of all cyclotomic factors")
    p.add_argument("poly")
    p.add_argument("--verify", action="store_true")
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("lrs", help="degeneracy orders of the recurrence")
    p.add_argument("poly")
    p.add_argument("--mode", choices=("all", "first", "decide"), default="all")
    p.add_argument("--verify", action="store_true")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--conjecture-bound", action="store_true")

    p = sub.add_parser("bench", help="timing scenarios over generated inputs")
    p.add_argument("scenario", choices=("index", "factors", "lrs", "all"))
    p.add_argument("--seed", type=int, default=0)
    return ap


def main(argv=None):
    # argparse reads "-x^2-1" or "-3,4" as an option, but not with a
    # leading space, which poly_from_arg strips again
    argv = sys.argv[1:] if argv is None else argv
    argv = [" " + a if re.match(r"-[\d\sx(]", a) else a for a in argv]
    args = build_parser().parse_args(argv)
    try:
        if args.command == "bench":
            result, elapsed, prep, text = cmd_bench(args)
            degree = None
        else:
            f = poly_from_arg(args.poly)
            result, elapsed, prep, text = _COMMANDS[args.command](f, args)
            degree = P.degree(f)
    except (ValueError, OSError, RuntimeError, ArithmeticError) as exc:
        print(f"cyclo: error: {exc}", file=sys.stderr)
        return 2
    try:
        _emit(args, degree, result, elapsed, prep, text)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed the pipe, as `| head` does: point stdout at
        # devnull so that the flush at exit fails no second time (the
        # SIGPIPE note of Python's signal module docs)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 0


if __name__ == "__main__":
    sys.exit(main())
