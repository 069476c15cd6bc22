import io
import json
import os
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cyclolrs import cli
from cyclolrs.cli import (
    PolySyntaxError,
    main,
    parse_poly,
    poly_from_arg,
    read_poly_file,
)


# ----------------------------------------------------------------- parsing


def test_parse_poly_pinned():
    assert parse_poly("x^4+2*x^2+4*x+2") == [2, 4, 2, 0, 1]
    assert parse_poly("(x^2+x+1)*(x^2-x+1)") == [1, 0, 1, 0, 1]
    assert parse_poly("0") == []  # canonical zero polynomial


def test_parse_poly_precedence():
    # ^ before unary minus before * before +
    assert parse_poly("-x^2") == [0, 0, -1]
    assert parse_poly("3*-x") == [0, -3]
    assert parse_poly("2*x+1*x^2") == [0, 2, 1]
    assert parse_poly("-(x+1)^2") == [-1, -2, -1]


def test_parse_poly_whitespace_and_constants():
    assert parse_poly("  x ^ 3 - 7 ") == [-7, 0, 0, 1]
    assert parse_poly("(2)*(3)") == [6]
    assert parse_poly("x^0") == [1]


def test_parse_poly_syntax_errors_carry_position():
    with pytest.raises(PolySyntaxError) as e:
        parse_poly("x^-2")
    assert "column 3" in str(e.value)
    with pytest.raises(PolySyntaxError):
        parse_poly("x+")
    with pytest.raises(PolySyntaxError):
        parse_poly("x y")
    with pytest.raises(PolySyntaxError):
        parse_poly("(x+1")
    with pytest.raises(PolySyntaxError):
        parse_poly("x$1")


def format_poly(f):
    """Descending-power form that parse_poly should read back verbatim."""
    f = cli.P.canonical(f)
    if not f:
        return "0"
    parts = []
    for j in range(len(f) - 1, -1, -1):
        a = f[j]
        if a == 0:
            continue
        sign = "-" if a < 0 else ("+" if parts else "")
        mag = abs(a)
        if j == 0:
            body = str(mag)
        else:
            xp = "x" if j == 1 else f"x^{j}"
            body = xp if mag == 1 else f"{mag}*{xp}"
        parts.append(sign + body)
    return "".join(parts)


def test_format_poly_pinned():
    assert format_poly([2, 4, 2, 0, 1]) == "x^4+2*x^2+4*x+2"
    assert format_poly([-2, 0, 1]) == "x^2-2"
    assert format_poly([0, -1]) == "-x"
    assert format_poly([0]) == "0"
    assert format_poly([5]) == "5"
    assert format_poly([1, 1]) == "x+1"


@settings(max_examples=120, deadline=None)
@given(st.lists(st.integers(-999, 999), min_size=1, max_size=9))
def test_format_parse_round_trip(coeffs):
    f = cli.P.canonical(coeffs)
    assert parse_poly(format_poly(f)) == f


def test_inline_coefficient_lists():
    assert poly_from_arg("2,4,2,0,1") == [2, 4, 2, 0, 1]
    assert poly_from_arg("2 4 2 0 1") == [2, 4, 2, 0, 1]
    assert poly_from_arg("-7, 0, 1") == [-7, 0, 1]


def test_poly_files(tmp_path):
    p = tmp_path / "coeffs.txt"
    p.write_text("# a quartic\n2 4 2 0 1\n")
    assert read_poly_file(p) == [2, 4, 2, 0, 1]
    q = tmp_path / "expr.txt"
    q.write_text("(x^2+x+1)*(x^2-x+1)  # product form\n")
    assert read_poly_file(q) == [1, 0, 1, 0, 1]
    bad = tmp_path / "two.txt"
    bad.write_text("x+1\nx+2\n")
    with pytest.raises(ValueError):
        read_poly_file(bad)
    empty = tmp_path / "empty.txt"
    empty.write_text("# nothing here\n")
    with pytest.raises(ValueError):
        read_poly_file(empty)


# -------------------------------------------------------------- subcommands


def run_json(capsys, argv):
    code = main(["--format", "json"] + argv)
    out = capsys.readouterr().out
    return code, json.loads(out), out


def test_index_identifies_cyclotomic(capsys):
    code, doc, _ = run_json(capsys, ["index", "x^6+x^3+1"])
    assert code == 0
    assert doc["result"]["cyclotomic"] is True
    assert doc["result"]["index"] == 9
    assert doc["input_degree"] == 6
    assert doc["command"] == "index"


def test_index_negative_is_exit_zero(capsys):
    code, doc, _ = run_json(capsys, ["index", "x^2+x+2"])
    assert code == 0
    assert doc["result"]["cyclotomic"] is False
    assert doc["result"]["index"] is None


def test_index_eval_method(capsys):
    code, doc, _ = run_json(capsys, ["index", "x^6+x^3+1", "--method", "eval"])
    assert code == 0
    assert doc["result"]["index"] == 9
    assert doc["result"]["method"] == "eval"


def test_index_no_verify_reports_candidate(capsys):
    code, doc, _ = run_json(capsys, ["index", "x^6+x^3+1", "--no-verify"])
    assert code == 0
    assert doc["result"]["outcome"] == "candidate_unverified"
    assert doc["result"]["index"] == 9


def test_lrs_verified_orders(capsys):
    code, doc, _ = run_json(capsys, ["lrs", "x^4+2*x^2+4*x+2", "--verify"])
    assert code == 0
    assert doc["result"]["orders"] == [{"k": 8, "status": "verified"}]
    assert doc["seed"] == 0
    assert doc["timings_ms"] is None
    assert isinstance(doc["preprocessing_log"], list)


def test_lrs_modes_and_flags(capsys):
    code, doc, _ = run_json(
        capsys,
        ["lrs", "(x^2+x+1)*(x^4+x^3+x^2+x+1)", "--verify", "--mode", "first"],
    )
    assert code == 0
    assert doc["result"]["orders"] == [{"k": 3, "status": "verified"}]
    assert doc["result"]["mode"] == "first_order"


def test_lrs_conjecture_bound_flag(capsys):
    code, doc, _ = run_json(
        capsys,
        ["lrs", "(x^2+x+1)*(x^4+x^3+x^2+x+1)", "--verify", "--conjecture-bound"],
    )
    assert code == 0
    ks = [o["k"] for o in doc["result"]["orders"] if o["status"] == "verified"]
    assert ks == [3, 5]
    assert doc["result"]["conjecture_bound_used"] is True


def test_factors_ground_truth(capsys):
    code, doc, _ = run_json(
        capsys, ["factors", "(x^2+x+1)*(x^2-x+1)", "--verify", "--seed", "4"]
    )
    assert code == 0
    kept = [int(k) for k, ok in doc["result"]["verified"].items() if ok]
    assert kept == [3, 6]


def test_factors_finds_indexes_under_content(capsys):
    for poly, k in [("2*x^2+2*x+2", 3), ("2*x^4+2", 8), ("3*(x^4+x^3+x^2+x+1)*(x-2)", 5)]:
        code, doc, _ = run_json(capsys, ["factors", poly, "--verify"])
        assert code == 0
        assert [int(j) for j, ok in doc["result"]["verified"].items() if ok] == [k]


def test_factors_has_no_preprocess_flag(capsys):
    with pytest.raises(SystemExit) as e:
        main(["factors", "x^2+x+1", "--preprocess"])
    assert e.value.code == 2
    capsys.readouterr()


def test_factors_without_verify_leaves_candidates(capsys):
    code, doc, _ = run_json(capsys, ["factors", "x^2+x+1", "--seed", "4"])
    assert code == 0
    assert doc["result"]["verified"] is None
    assert 3 in doc["result"]["candidates"]


def test_text_output_lrs(capsys):
    code = main(["lrs", "x^4+2*x^2+4*x+2", "--verify"])
    assert code == 0
    assert "order 8: verified" in capsys.readouterr().out
    assert main(["lrs", "x^3"]) == 0  # a monomial leaves a constant core
    assert capsys.readouterr().out == "# stripped x^3\nno degeneracy orders\n"


def test_timings_flag_fills_field(capsys):
    _, doc, _ = run_json(capsys, ["--timings", "lrs", "x^2+3*x+3", "--verify"])
    assert doc["timings_ms"] is not None and doc["timings_ms"]["total"] >= 0


def test_json_output_is_byte_identical(capsys):
    argv = ["--format", "json", "lrs", "x^6+3*x^5+6*x^4+6*x^3+3", "--verify", "--seed", "7"]
    code = main(argv)
    first = capsys.readouterr().out
    assert code == 0
    main(argv)
    assert capsys.readouterr().out == first


def test_leading_minus_sign_is_a_polynomial_not_an_option(capsys):
    for command, poly, opts in [("index", "-x^2-1", []), ("lrs", "-3,4", []),
                                ("lrs", "-(x^4+1)", ["--verify"])]:
        code, doc, out = run_json(capsys, [command, poly, *opts])
        assert code == 0 and doc["command"] == command
        assert run_json(capsys, [command, *opts, "--", poly])[2] == out
    _, doc, _ = run_json(capsys, ["lrs", "-x^2+2", "--mode", "first", "--seed", "-3"])
    assert doc["seed"] == -3 and doc["result"]["orders"] == [{"k": 2, "status": "verified"}]
    for argv in (["-h"], ["lrs", "-h"], ["index", "--help"]):
        with pytest.raises(SystemExit) as e:
            main(argv)
        assert e.value.code == 0 and "usage: cyclo" in capsys.readouterr().out


def test_bench_factors_reports_no_misses(capsys):
    code, doc, _ = run_json(capsys, ["bench", "factors", "--seed", "6"])
    assert code == 0
    rows = doc["result"]["cases"]
    assert [r["case"] for r in rows] == [
        "product_0", "product_1", "product_2", "content_x2000_minus_1"
    ]
    assert all(r["missed"] == 0 for r in rows)
    assert all(r["ms"] >= 0 and r["degree"] > 0 for r in rows)


def test_bench_timings_measure_the_scenarios(capsys):
    code, doc, _ = run_json(capsys, ["--timings", "bench", "index", "--seed", "1"])
    assert code == 0 and doc["timings_ms"]["total"] > 0


def test_bench_rejects_unknown_scenario():
    with pytest.raises(SystemExit) as e:
        main(["bench", "everything"])
    assert e.value.code == 2


# -------------------------------------------------------------- bad input


def test_parse_error_exits_two(capsys):
    assert main(["index", "x^^2"]) == 2
    assert "error" in capsys.readouterr().err


def test_zero_polynomial_rejected_downstream(capsys):
    assert main(["index", "0"]) == 2
    assert main(["lrs", "0"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "command, target, exc",
    [
        (["factors", "x^2+x+1"], "find_cyclo_factor_indexes",
         RuntimeError("evaluation point budget exhausted")),
        (["lrs", "x^2+3*x+3"], "lrs_degeneracy_orders", ZeroDivisionError("modulus")),
    ],
)
def test_library_failures_exit_two_without_traceback(monkeypatch, capsys, command, target, exc):
    def boom(*args, **kwargs):
        raise exc

    monkeypatch.setattr(cli, target, boom)
    assert main(command) == 2
    err = capsys.readouterr().err
    assert err.startswith("cyclo: error: ") and str(exc) in err
    assert "Traceback" not in err


def test_closed_pipe_exits_zero_without_traceback():
    # the reader is gone before anything is written, as when `| head`
    # exits early: the write fails with EPIPE
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.Popen(
        [sys.executable, "-m", "cyclolrs.cli", "--format", "json", "lrs", "x^4+2*x^2+4*x+2"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert proc.returncode == 0
    assert err == b""


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # every command and every fresh worker pays for what importing the CLI
    # adds to a bare interpreter's modules; dataclasses pulls in inspect,
    # ast, dis and tokenize for a handful of record classes
    code = (
        "import sys; before = set(sys.modules); sys.path.insert(0, sys.argv[1]); "
        "import cyclolrs.cli; print(*sorted(set(sys.modules) - before))"
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    res = subprocess.run(
        [sys.executable, "-I", "-c", code, src], capture_output=True, text=True, timeout=120
    )
    added = set(res.stdout.split())
    assert res.returncode == 0 and "cyclolrs.cli" in added, res.stderr
    assert not added & {"dataclasses", "inspect"}, sorted(added)


def test_missing_file_exits_two(capsys):
    assert main(["factors", "@/no/such/file.txt"]) == 2
    assert "error" in capsys.readouterr().err


# ------------------------------------------------------------ fuzzed contract

_FUZZ_COMMANDS = (
    ["index"],
    ["index", "--method", "eval"],
    ["factors"],
    ["factors", "--verify"],
    *(["lrs", "--mode", m, *v] for m in ("all", "first", "decide") for v in ([], ["--verify"])),
)


@st.composite
def _expressions(draw, depth=2):
    """Signed monomials combined by +, - and * under nested parentheses."""
    if depth == 0 or draw(st.booleans()):
        sign = draw(st.sampled_from(("", "-")))
        c, e = draw(st.integers(0, 9)), draw(st.integers(0, 6))
        forms = (f"{c}*x^{e}", f"x^{e}", f"{c}", "x")
        return sign + draw(st.sampled_from(forms))
    left, right = draw(_expressions(depth - 1)), draw(_expressions(depth - 1))
    op = draw(st.sampled_from("+-*"))
    text = f"({left}){op}{right}" if draw(st.booleans()) else f"{left}{op}({right})"
    return f"({text})" if draw(st.booleans()) else text


@st.composite
def _coefficient_lists(draw):
    """Ascending lists with low-order zeros (powers of x), high-order
    zeros, all zeros or a single constant."""
    body = draw(st.lists(st.integers(-50, 50), max_size=9))
    low, high = draw(st.integers(0, 2)), draw(st.integers(0, 2))
    sep = draw(st.sampled_from((",", " ")))
    return sep.join(map(str, [0] * low + body + [0] * high)) or "0"


def _run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _check_contract(command, poly):
    argv = ["--format", "json", *command, poly]
    code, out, err = _run_cli(argv)
    assert code in (0, 2), (argv, code, err)
    assert "Traceback" not in err
    if code == 0:
        assert json.loads(out)["command"] == command[0]
    else:
        assert out == "" and err.startswith("cyclo: error: ")
    assert _run_cli(argv) == (code, out, err)


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(_FUZZ_COMMANDS), _expressions())
def test_fuzzed_expressions_keep_the_exit_contract(command, text):
    f = parse_poly(text)
    assume(len(f) <= 11 and all(abs(a) <= 50 for a in f))
    _check_contract(command, text)


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(_FUZZ_COMMANDS), _coefficient_lists())
def test_fuzzed_coefficient_lists_keep_the_exit_contract(command, text):
    _check_contract(command, text)


@pytest.mark.parametrize("poly", ["x^10000000000+1", "2^99999999999*x+1", "x^3000000000-1"])
def test_huge_power_exits_two_at_once(poly):
    # degree 10^10, or a 10^11-bit coefficient, would exhaust memory or
    # run for hours before any command saw the polynomial
    for command in (["index"], ["lrs"]):
        start = time.perf_counter()
        code, out, err = _run_cli([*command, poly])
        assert time.perf_counter() - start < 1
        assert code == 2 and out == ""
        assert err.startswith("cyclo: error: ") and "Traceback" not in err


def test_power_limit_keeps_large_sparse_powers():
    assert parse_poly("x^200000-1") == [-1] + [0] * 199999 + [1]
    assert parse_poly("(-1)^100000000000") == [1]
    assert parse_poly("2^30000*x") == [0, 2**30000]
    with pytest.raises(PolySyntaxError):
        parse_poly("3^33554432")
