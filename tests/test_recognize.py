import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclolrs import poly as P
from cyclolrs.cyclotomic import phi_poly
from cyclolrs.numtheory import euler_phi, moebius
from cyclolrs.recognize import (
    CycloVerdict,
    cyclo_index,
    cyclo_index_eval,
    cyclo_index_prefix,
    quick_checks,
)


def perturbed(k):
    """Index-k polynomial plus a palindromic bump vanishing at 1, -1, 2."""
    f = phi_poly(k)
    d = P.degree(f)
    bump = P.mul(P.mul([-1, 0, 1], [-1, 0, 1]), [2, -5, 2])
    return P.add(f, [0] * (d // 2 - 3) + bump)


def test_quick_checks_short_circuits():
    assert quick_checks([1, 1, 0, 1]).verdict.checks_failed == "Q2"
    assert quick_checks([-1, 1]).verdict.index == 1
    assert quick_checks([1, 1]).verdict.index == 2
    assert quick_checks([1, 0, 0, 0, 0, 0, 0, 0, 1]).verdict.index == 16
    assert quick_checks([1, 0, 0, 0, 0, 0, 1]).verdict.checks_failed == "Q4b"
    assert quick_checks([2, 1, 1]).verdict.checks_failed == "Q3"
    assert quick_checks([1, 1, 2]).verdict.checks_failed == "Q1"
    assert quick_checks([1, 2, 1]).verdict.checks_failed == "Q4a"
    with pytest.raises(ValueError):
        quick_checks([5])


def test_quick_checks_deflation_routing():
    r = quick_checks([1, 0, 1, 0, 1])
    assert r.verdict is None and r.core == [1, 1, 1] and r.inflation == 2
    # x^6 + x^2 + 1 deflates to odd degree: impossible
    assert quick_checks([1, 0, 1, 0, 0, 0, 1]).verdict.checks_failed == "Q4c"
    # subleading zero without any inflation structure
    assert quick_checks([1, 1, 0, 0, 1, 0, 1]).verdict.checks_failed == "Q4c"


def test_prefix_pinned_verdicts():
    v = cyclo_index_prefix(phi_poly(15))
    assert (v.outcome, v.index, v.method) == ("cyclotomic", 15, "prefix")
    v = cyclo_index_prefix([1, 0, 0, 1, 0, 0, 1])
    assert (v.outcome, v.index) == ("cyclotomic", 9)
    v = cyclo_index_prefix([1, 0, 1, 0, 1])
    assert v.outcome == "not_cyclotomic" and v.checks_failed == "Q4e"
    v = cyclo_index_prefix(phi_poly(105))
    assert (v.outcome, v.index) == ("cyclotomic", 105)


def test_eval_pinned_verdicts():
    v = cyclo_index_eval(phi_poly(7))
    assert (v.outcome, v.index, v.method) == ("cyclotomic", 7, "eval")
    v = cyclo_index_eval([2, 3, 0, 1, 0, 0, 1])
    assert v.outcome == "not_cyclotomic"
    v = cyclo_index_eval([1, 0, 0, 0, 1])
    assert (v.outcome, v.index) == ("cyclotomic", 8)
    v = cyclo_index_eval([1, -1, 1])
    assert (v.outcome, v.index) == ("cyclotomic", 6)
    v = cyclo_index_eval(phi_poly(12))
    assert (v.outcome, v.index) == ("cyclotomic", 12)
    v = cyclo_index_eval(phi_poly(10))
    assert (v.outcome, v.index) == ("cyclotomic", 10)


def test_center_coefficient_is_checked():
    # agrees with the index-5 polynomial on a half-degree prefix and is
    # palindromic; only the middle coefficient differs
    fake = [1, 1, 2, 1, 1]
    assert cyclo_index_prefix(fake).outcome == "not_cyclotomic"
    assert cyclo_index_eval(fake).outcome == "not_cyclotomic"


def test_palindromic_height_three_perturbation_rejected():
    # Phi_105 with its first height-2 coefficient and that one's mirror
    # set to 3: palindromic, and every quick check passes
    f = phi_poly(105)
    f[7] = f[48 - 7] = 3
    assert P.is_palindromic(f) and quick_checks(f).verdict is None
    for verify in (True, False):
        assert cyclo_index_prefix(f, verify=verify).outcome == "not_cyclotomic"
        assert cyclo_index_eval(f, verify=verify).outcome == "not_cyclotomic"


def test_completeness_small_indexes():
    for k in range(1, 301):
        f = phi_poly(k)
        vp = cyclo_index_prefix(f)
        ve = cyclo_index_eval(f)
        assert (vp.outcome, vp.index) == ("cyclotomic", k), k
        assert (ve.outcome, ve.index) == ("cyclotomic", k), k


def test_non_square_free_routing():
    for k in (4, 8, 9, 12, 16, 18, 25, 27, 36, 49, 50, 100, 121, 128, 243,
              500, 675, 1024, 1372, 2000):
        v = cyclo_index_prefix(phi_poly(k))
        assert (v.outcome, v.index) == ("cyclotomic", k), k


def test_adversarial_family_rejected_when_verified():
    for k in (15, 16, 20, 21, 24, 33, 35, 36, 40, 45):
        f = perturbed(k)
        assert cyclo_index_prefix(f, verify=True).outcome == "not_cyclotomic", k
        assert cyclo_index_eval(f, verify=True).outcome == "not_cyclotomic", k


def test_adversarial_family_fools_unverified_eval():
    # the bump vanishes at 2, so the order search sees the genuine value
    # and only the final reconstruction can tell the difference
    v = cyclo_index_eval(perturbed(35), verify=False)
    assert (v.outcome, v.index) == ("candidate_unverified", 35)


def test_unverified_mode_reports_candidates():
    v = cyclo_index_prefix(phi_poly(21), verify=False)
    assert (v.outcome, v.index) == ("candidate_unverified", 21)
    v = cyclo_index_eval(phi_poly(21), verify=False)
    assert (v.outcome, v.index) == ("candidate_unverified", 21)
    # quick-check decisions stay fully decided even without verification
    v = cyclo_index_prefix([1, 0, 0, 0, 1], verify=False)
    assert v.outcome == "cyclotomic"


def test_cyclo_index_dispatch():
    assert cyclo_index(phi_poly(20), method="prefix").index == 20
    assert cyclo_index(phi_poly(20), method="eval").index == 20
    with pytest.raises(ValueError):
        cyclo_index(phi_poly(20), method="newton")


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_methods_agree_on_random_palindromics(data):
    rng = random.Random(data.draw(st.integers(0, 10**9)))
    half = rng.randint(1, 30)
    left = [1] + [rng.randint(-2, 2) for _ in range(half)]
    f = left[:-1] + [left[-1]] + list(reversed(left[:-1]))
    f = list(reversed(f))  # monic by construction, degree 2*half
    vp = cyclo_index_prefix(f)
    ve = cyclo_index_eval(f)
    assert (vp.outcome, vp.index) == (ve.outcome, ve.index), f


def test_verdict_invariants():
    with pytest.raises(AssertionError):
        CycloVerdict("not_cyclotomic", index=5)
    with pytest.raises(AssertionError):
        CycloVerdict("cyclotomic")
