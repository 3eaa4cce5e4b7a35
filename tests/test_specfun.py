"""Tests for the sections of the exponential and the Mittag-Leffler
series."""

import json
import math
import pathlib
import sys
import threading
import time
import warnings
from collections import OrderedDict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fraclode import (
    DomainError,
    MLParams,
    NonConvergenceError,
    mittag_leffler,
)
from fraclode import specfun
from fraclode.specfun import SECTION_TOL, exp_section
from ml_reference import per_point_ml, per_point_outcome, series_term

FIXTURE = json.loads(
    (pathlib.Path(__file__).parent / "fixtures" / "closed_form_reference.json").read_text()
)


# ---------------------------------------------------------------- exp_section


def test_exp_section_against_roots_of_unity():
    # H_{m,j}(x) = (1/m) sum_l w_l^(-j) exp(w_l x), w_l = exp(2 pi i l / m).
    x = np.array([-6.0, -2.0, -1e-3, 0.0, 0.5, 2.0, 6.0])
    for m in (3, 7, 199):
        w = np.exp(2j * np.pi * np.arange(m) / m)
        for j in sorted({0, 1, m - 1}):
            ref = (w ** (-j) * np.exp(np.outer(x, w))).sum(axis=1).real / m
            assert np.max(np.abs(exp_section(x, m, j) - ref)) <= 1e-13 * math.exp(6.0)


def test_exp_section_large_positive_arguments():
    # Past |x| ~ 50 the terms x^k / k! still grow for k < x; the section is
    # compared, relatively, with a fixed 1000-term sum of x^k / k! over
    # k = j (mod m), built by the recurrence t_k = t_{k-1} x / k.
    def reference(x, m, j):
        t, terms = 1.0, [1.0] if j == 0 else []
        for k in range(1, 1000):
            t *= x / k
            if k % m == j:
                terms.append(t)
        return math.fsum(terms)

    for m, j, x in ((3, 0, 50.4), (3, 1, 60.0), (3, 2, 120.0),
                    (199, 0, 98.0), (199, 0, 120.0), (199, 198, 120.0)):
        got = exp_section(np.array([x, 1.0]), m, j)
        assert got[0] == pytest.approx(reference(x, m, j), rel=1e-12)
        assert got[1] == pytest.approx(reference(1.0, m, j), rel=1e-12, abs=1e-300)


def test_exp_section_partition_of_exp():
    x = np.linspace(-5.0, 5.0, 11)
    assert np.array_equal(exp_section(x, 1, 0), np.exp(x))
    total = sum(exp_section(x, 7, j) for j in range(7))
    assert total == pytest.approx(np.exp(x), rel=1e-13, abs=1e-13)
    with pytest.raises(DomainError):
        exp_section(x, 3, 3)


def _section_loop(x, m, j):
    """exp_section as it summed before it could stop one term early: the
    terms up to the first past the peak X = max|x| that is below
    SECTION_TOL times every element's partial sum."""
    x = np.asarray(x, dtype=float)
    if m == 1:
        return np.exp(x)
    big = float(np.max(np.abs(x))) if x.size else 0.0
    if big == 0.0:
        return np.full(x.shape, 1.0 if j == 0 else 0.0)
    with np.errstate(divide="ignore"):
        log_abs = np.log(np.abs(x))
    total = np.zeros(x.shape)
    power = j
    while True:
        term = np.exp(power * log_abs - math.lgamma(power + 1)) if power else 1.0
        total = total + (np.copysign(term, x) if power % 2 else term)
        if power > big and np.all(term <= SECTION_TOL * np.abs(total)):
            return total
        power += m


@st.composite
def _section_case(draw):
    # Both parities of m, and small m half the time: at even m and odd j
    # every power is odd, so an all-negative array has a negative sum.
    m = draw(st.one_of(st.integers(1, 16), st.integers(1, 2003)))
    j = draw(st.integers(0, m - 1))
    shape = draw(st.sampled_from([(), (1,), (6,), (3, 4), (2, 3, 4)]))
    values = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=math.prod(shape),
                                    max_size=math.prod(shape))))
    signs = draw(st.sampled_from(["mixed", "positive", "negative"]))
    if signs != "mixed":
        values = np.abs(values) if signs == "positive" else -np.abs(values)
    if draw(st.booleans()):
        scale = draw(st.one_of(st.sampled_from([1e-300, 0.5, 2.2, 700.0]),
                               st.floats(-8.0, 2.845).map(lambda e: 10.0 ** e)))
    else:
        # The edge of the early stop: X such that the bound X^m p!/(p+m)!
        # on the next term over the first term past 1 (p = j, or m at
        # j = 0) lies around SECTION_TOL.
        p = j or m
        log_phi = draw(st.floats(-20.0, -12.0)) * math.log(10.0)
        scale = min(700.0, math.exp((log_phi + math.lgamma(p + m + 1)
                                     - math.lgamma(p + 1)) / m))
    return (scale * values).reshape(shape), m, j


@given(case=_section_case())
@settings(max_examples=300, deadline=None)
def test_exp_section_matches_the_full_loop_bit_for_bit(case):
    # The early stop only skips a term that could not change the sum.
    x, m, j = case
    got, want = exp_section(x, m, j), _section_loop(x, m, j)
    assert got.shape == want.shape and np.array_equal(got, want)


@st.composite
def _stack_case(draw):
    # Distinct j in any order, both parities of m, and small m half the
    # time; x of any sign pattern, with zeros, -0.0 and the least subnormal.
    m = draw(st.one_of(st.integers(1, 16), st.integers(1, 2003)))
    js = draw(st.lists(st.integers(0, m - 1), min_size=1, max_size=6, unique=True))
    shape = draw(st.sampled_from([(), (1,), (6,), (3, 4), (2, 3, 4)]))
    size = math.prod(shape)
    values = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=size, max_size=size)))
    signs = draw(st.sampled_from(["mixed", "nonnegative", "nonpositive"]))
    if signs != "mixed":
        values = np.abs(values) if signs == "nonnegative" else -np.abs(values)
    if draw(st.booleans()):
        scale = draw(st.one_of(st.sampled_from([1e-300, 0.5, 2.2, 700.0]),
                               st.floats(-8.0, 2.845).map(lambda e: 10.0 ** e)))
    else:
        # X with the bound X^m p!/(p+m)! around SECTION_TOL at the least
        # power p, where the first power can stop the sum, or one later.
        p = min(js) + draw(st.sampled_from([0, m]))
        log_phi = draw(st.floats(-20.0, -12.0)) * math.log(10.0)
        scale = min(700.0, math.exp((log_phi + math.lgamma(p + m + 1)
                                     - math.lgamma(p + 1)) / m))
    x = scale * values
    specials = {"mixed": [0.0, -0.0, 5e-324, -5e-324], "nonnegative": [0.0, -0.0, 5e-324],
                "nonpositive": [0.0, -0.0, -5e-324]}[signs]
    for i in draw(st.lists(st.integers(0, size - 1), max_size=size)):
        x[i] = draw(st.sampled_from(specials))
    return x.reshape(shape), m, js


@given(case=_stack_case())
@settings(max_examples=300, deadline=None)
def test_exp_section_stack_matches_each_section_bit_for_bit(case):
    # A stack stops where its least power's bound allows, which each
    # slice's own sum allows too: only terms below half an ulp differ.
    x, m, js = case
    stack = exp_section(x, m, js)
    assert stack.shape == (len(js),) + x.shape
    for row, j in zip(stack, js):
        for want in (exp_section(x, m, j), _section_loop(x, m, j)):
            assert np.array_equal(row, want) and np.array_equal(np.signbit(row), np.signbit(want))


def test_exp_section_stack_stops_on_its_least_power():
    # The rows run even j first, so here the least power is not the first
    # row's; the stop taken with the first row's phi cuts j = 1 short.
    for m in (4, 10):
        js = [m - 2, 1]
        for s in np.geomspace(1e-3, 30.0, 60):
            for x in (np.linspace(-s, s, 7), np.array(s), -np.linspace(0.0, s, 5)):
                for row, j in zip(exp_section(x, m, js), js):
                    assert np.array_equal(row, exp_section(x, m, j))


def test_exp_section_stack_edge_cases():
    x = np.linspace(-3.0, 3.0, 7)
    assert exp_section(x, 5, []).shape == (0, 7)
    assert np.array_equal(exp_section(x, 1, np.array([0])), [np.exp(x)])
    assert np.array_equal(exp_section(np.zeros(3), 4, (2, 0)), [[0.0] * 3, [1.0] * 3])
    assert np.array_equal(exp_section(x, 4, [3, 1, 3]),
                          [exp_section(x, 4, 3), exp_section(x, 4, 1), exp_section(x, 4, 3)])
    for js in ([0, 4], [-1], [[0], [1]]):
        with pytest.raises(DomainError, match="1-D sequence"):
            exp_section(x, 4, js)


def test_exp_section_one_signed_arrays_match_the_full_loop():
    # With no x < 0 every total is >= 0, and the stop check divides by it
    # as it is; with every x <= 0 the odd powers' terms are subtracted.
    for scale in (1e-3, 0.7, 3.0, 40.0):
        base = scale * np.linspace(0.0, 1.0, 9)
        for x in (base, -base, np.array([-scale]), -base[1:]):
            for m in (2, 3, 7):
                for j in range(m):
                    assert np.array_equal(exp_section(x, m, j), _section_loop(x, m, j))


def test_exp_section_stops_one_exponential_early(monkeypatch):
    calls = []
    exp, divide = np.exp, np.divide
    monkeypatch.setattr("fraclode.specfun.np.exp",
                        lambda *args, **kwargs: calls.append(1) or exp(*args, **kwargs))
    monkeypatch.setattr("fraclode.specfun.np.divide",
                        lambda *args, **kwargs: calls.append(0) or divide(*args, **kwargs))

    def count(section, *args):
        calls.clear()
        section(*args)
        return calls.count(1)

    x = np.linspace(-2.2, 2.2, 45).reshape(5, 9)  # zero included
    # Near alpha = 1 a section past the peak (j > max|x|) has one
    # significant term, whose bound proves the next negligible.  At the
    # first power that bound alone stops the sum: no stop check divides.
    for j in (3, 10, 198):
        assert count(exp_section, x, 199, j) == 1 and calls.count(0) == 0
        assert count(_section_loop, x, 199, j) == 2
    # A stack forms all its sections' first terms as one exponential.
    assert count(exp_section, x, 199, [0, 1, 2, 3, 10, 198]) == 1 and calls.count(0) == 0
    # Below the peak the bound phi = X^m p!/(p+m)! is already tiny at
    # m = 199, so the first term stops the sum too: j = 0 forms no
    # exponential, and j = 1, 2 one, where the loop forms the next power's.
    assert count(exp_section, x, 199, 0) + 1 == count(_section_loop, x, 199, 0) == 1
    for j in (1, 2):
        assert count(exp_section, x, 199, j) + 1 == count(_section_loop, x, 199, j) == 2
    # Where many terms are needed the bound still saves the last one.
    for j in range(3):
        assert count(exp_section, x, 3, j) + 1 == count(_section_loop, x, 3, j) > 6


def test_exp_section_skips_checks_a_failed_one_rules_out(monkeypatch):
    # x = 30, m = 3: phi < 1 from the power 30 on, and the sum runs to 87.
    # The check at 30 fails, and its rho times the next powers' phi's
    # rules out every check up to the one that stops the sum.
    events = []
    exp, divide = np.exp, np.divide
    monkeypatch.setattr("fraclode.specfun.np.exp",
                        lambda *args, **kwargs: events.append("term") or exp(*args, **kwargs))
    monkeypatch.setattr("fraclode.specfun.np.divide",
                        lambda *args, **kwargs: events.append("check") or divide(*args, **kwargs))
    x = np.array([30.0])
    got = exp_section(x, 3, 0)
    powers = range(3, 3 * events.count("term") + 1, 3)
    below_one = [p for p in powers if 3 * math.log(30.0) < math.lgamma(p + 4) - math.lgamma(p + 1)]
    first = events.index("check")
    assert events.count("check") == 2 and events[-1] == "check"
    assert events[first + 1:-1] == ["term"] * (len(below_one) - 1) and len(below_one) > 10
    monkeypatch.undo()
    assert np.array_equal(got, _section_loop(x, 3, 0))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_exp_section_non_finite_element_raises_domain_error(bad):
    # No term bound holds for a non-finite element, so the sum could never stop.
    for m, j in ((3, 1), (3, 0), (199, 5), (3, [0, 2])):
        with pytest.raises(DomainError, match="finite"):
            exp_section(np.array([1.0, bad]), m, j)


# ---------------------------------------------------------------- mittag_leffler


def test_ml_is_exp_at_alpha_one():
    params = MLParams(alpha=1.0)
    for i in range(101):
        z = -5.0 + 0.1 * i
        expected = math.exp(z)
        assert abs(mittag_leffler(params, z) - expected) <= 1e-12 * max(1.0, expected)


def test_ml_at_zero_is_inverse_gamma_beta():
    assert mittag_leffler(MLParams(alpha=1 / 3), 0.0) == pytest.approx(1.0, rel=1e-15)
    assert mittag_leffler(MLParams(alpha=0.5, beta=0.5), 0.0) == pytest.approx(
        1.0 / math.gamma(0.5), rel=1e-14
    )
    # Gamma(-200.5) underflows to -0.0 and Gamma(-171.5) is subnormal: 1/Gamma
    # (-3.56e375 at -200.5) is beyond double range, so both raise.
    for beta in (-200.5, -171.5):
        with pytest.raises(NonConvergenceError, match="k=0"):
            mittag_leffler(MLParams(alpha=0.5, beta=beta), 0.0)
    # Gamma(1/3), frozen from a 50-digit computation.
    assert mittag_leffler(MLParams(alpha=0.5, beta=1 / 3), 0.0) == pytest.approx(
        1.0 / FIXTURE["gamma_one_third"], rel=1e-13
    )


@pytest.mark.parametrize("z", [math.nan, math.inf, -math.inf, [0.5, math.nan]])
def test_ml_rejects_non_finite_z(z):
    # Before any series work: a NaN would otherwise run all ML_MAX_TERMS terms.
    with pytest.raises(DomainError, match="z must be finite, got (nan|inf|-inf)"):
        mittag_leffler(MLParams(alpha=0.5), np.array(z))


def test_ml_half_erfc_identity():
    # E_{1/2,1}(z) = exp(z^2) * erfc(-z); erfc is the independent oracle.
    params = MLParams(alpha=0.5)
    frozen = FIXTURE["mittag_leffler_half"]["values"]
    for z_str, val_str in frozen.items():
        z = float(z_str)
        frozen_val = float(val_str)
        live_oracle = math.exp(z * z) * math.erfc(-z)
        got = mittag_leffler(params, z)
        assert got == pytest.approx(frozen_val, abs=1e-8)
        assert got == pytest.approx(live_oracle, abs=1e-8)


@pytest.mark.parametrize("alpha", [1 / 3, 0.5, 1.0])
def test_ml_monotone_for_nonnegative_z(alpha):
    params = MLParams(alpha=alpha)
    values = [mittag_leffler(params, 0.05 * k) for k in range(0, 81)]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_ml_domain_and_budget_errors(monkeypatch):
    with pytest.raises(DomainError):
        mittag_leffler(MLParams(alpha=0.5), 31.0)
    monkeypatch.setattr(specfun, "ML_MAX_TERMS", 3)
    with pytest.raises(NonConvergenceError, match="within 3 terms"):
        mittag_leffler(MLParams(alpha=0.5), 5.0)


@pytest.mark.parametrize("alpha, z", [(1 / 3, -4.0), (3 / 7, -5.0)])
def test_ml_cancelling_series_raises(alpha, z):
    # The alternating series cancels: the true values are 0.162 and 0.121,
    # the float sum gave -1.8e12 and 2734.  The rounding bound catches it,
    # and the message prints the bound and its limit, not that noisy sum.
    with pytest.raises(NonConvergenceError, match="cancels") as info:
        mittag_leffler(MLParams(alpha=alpha), z)
    assert str(info.value).endswith("exceeds 1e-10 * max(1, |sum|)")


def test_ml_negative_arguments_inside_the_rounding_bound():
    # E_{1/2}(-z) = exp(z^2) erfc(z) where the rounding bound still admits z.
    params = MLParams(alpha=0.5)
    for z in (0.5, 1.0, 2.0, 3.0):
        expected = math.exp(z * z) * math.erfc(z)
        assert mittag_leffler(params, -z) == pytest.approx(expected, abs=1e-10)


def test_ml_slowly_converging_small_order():
    # Very small series parameter: tens of thousands of terms before the
    # gamma in the denominator takes over; must still converge.
    mu = 1 / 2003
    value = mittag_leffler(MLParams(alpha=mu, beta=mu), 0.9)
    assert math.isfinite(value)
    assert value > 0.0


def _array_outcome(params, zs):
    try:
        return mittag_leffler(params, np.array(zs))
    except (DomainError, NonConvergenceError) as exc:
        return type(exc), str(exc)


@given(
    alpha=st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
    beta=st.sampled_from([-1.0, -0.5, 0.0, 0.5, 1.0, 2.0]),
    zs=st.lists(st.one_of(st.just(0.0), st.floats(-1.0, 1.0)), min_size=1, max_size=12),
    scale=st.sampled_from([1.0, 5.0, 30.0]),
    max_terms=st.sampled_from([2000, 2000, 2000, 1, 2, 3, 6, 12]),
)
@settings(max_examples=150, deadline=None)
def test_ml_array_matches_per_point_loop(alpha, beta, zs, scale, max_terms):
    # One call on an array shares a Gamma table across the points; each
    # value, and the first failure's class and message, must be the
    # scalar loop's exactly.  z lies in [-30, 30]; the scales and the
    # small term budgets mix values with overflow, cancellation and
    # budget failures.
    params = MLParams(alpha=alpha, beta=beta)
    zs = [scale * z for z in zs]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(specfun, "ML_MAX_TERMS", max_terms)
        ref = per_point_outcome(params, zs)
        got = _array_outcome(params, zs)
    if isinstance(ref, tuple):
        assert got == ref
    else:
        assert isinstance(got, np.ndarray) and np.array_equal(got, np.array(ref))


def _matches_reference(params, zs):
    """The array call's outcome equals the scalar loop's; returns it."""
    ref = per_point_outcome(params, zs)
    got = _array_outcome(params, zs)
    if isinstance(ref, tuple):
        assert got == ref
    else:
        assert isinstance(got, np.ndarray) and np.array_equal(got, np.array(ref))
    return got


@pytest.mark.parametrize("alpha, beta", [(0.5, -0.5), (0.5, -1.0), (0.5, -3.5)])
def test_ml_pole_mid_series_matches_reference(alpha, beta):
    # A pole's term is 0, and the series must not stop there.
    got = _matches_reference(MLParams(alpha, beta), [0.7, -1.3, 2.5, 0.0, -0.0])
    assert isinstance(got, np.ndarray)


def _mpmath_ml(alpha, beta, z):
    """E_{alpha,beta}(z), its first 600 terms summed by mpmath at 40 digits
    (rgamma is 0 at poles); the tail is below 1e-200 for the cases here."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        a, b, x = mpmath.mpf(alpha), mpmath.mpf(beta), mpmath.mpf(z)
        return float(mpmath.fsum(x ** k * mpmath.rgamma(a * k + b) for k in range(600)))


@pytest.mark.parametrize("alpha, beta, z", [
    (0.5, -0.5, 0.7), (0.5, -0.5, -1.3), (0.5, -0.5, 2.5),
    (0.5, -1.0, 0.7), (0.5, -3.5, 2.5), (1 / 3, -1.0, 1.5),
])
def test_ml_pole_mid_series_matches_mpmath(alpha, beta, z):
    # The parent stopped at the first pole: E_{1/2,-1/2}(0.7) read 1/Gamma(-1/2)
    # = -0.28209479177387814 where the value is 0.93373292534305388.
    got = mittag_leffler(MLParams(alpha, beta), z)
    assert got == pytest.approx(_mpmath_ml(alpha, beta, z), rel=1e-12)


def test_ml_gamma_beta_underflow_matches_reference():
    # Gamma(-200.5) is -0.0 and Gamma(-171.5) is subnormal, so the first
    # term 1/Gamma(beta) is beyond double range and every z raises at k = 0.
    for params in (MLParams(100.0, -200.5), MLParams(0.5, -200.5), MLParams(0.5, -171.5)):
        for z in (0.0, 0.5, -0.5, 3.0):
            error, message = _matches_reference(params, [z])
            assert error is NonConvergenceError and "k=0" in message


def test_ml_lgamma_branch_matches_reference(monkeypatch):
    # At alpha = 1/4, z = 3.5 the series runs past alpha k + 1 = 171 (a
    # budget of 681 terms is not enough), where the table switches from
    # log|gamma| to lgamma.
    params = MLParams(alpha=0.25)
    with monkeypatch.context() as mp:
        mp.setattr(specfun, "ML_MAX_TERMS", 681)
        assert per_point_outcome(params, [3.5])[0] is NonConvergenceError
    assert isinstance(_matches_reference(params, [3.5, 0.1, 2.0]), np.ndarray)
    assert _matches_reference(params, [3.5, -3.5])[0] is NonConvergenceError


def test_ml_budget_at_the_stop_index_matches_reference(monkeypatch):
    # z = -2 at alpha = 1/3 needs 139 terms, past two growths of the
    # table; a budget one or two short fails with the scalar loop's message.
    params = MLParams(1 / 3)
    n = 1  # the least budget with which the scalar loop returns a value
    monkeypatch.setattr(specfun, "ML_MAX_TERMS", n)
    while isinstance(per_point_outcome(params, [-2.0]), tuple):
        n += 1
        monkeypatch.setattr(specfun, "ML_MAX_TERMS", n)
    assert n == 139
    for max_terms in (n - 2, n - 1, n, n + 1, 64, 65, 128):
        monkeypatch.setattr(specfun, "ML_MAX_TERMS", max_terms)
        got = _matches_reference(params, [0.1, -2.0])
        assert isinstance(got, np.ndarray) == (max_terms >= n)


#: (alpha, z, n): the series for E_alpha(z) stops at its n-th term, z
#: in the middle of the interval of z that stop there.
STOPS_NEAR_BUDGETS = [
    (0.5, 1.9616, 64), (0.5, 1.9949, 65), (0.5, 2.0276, 66),
    (0.5, 2.9889, 99), (0.5, 3.0149, 100), (0.5, 3.0409, 101),
    (0.5, 3.6915, 128), (0.5, 3.7137, 129), (0.5, 3.736, 130),
    (1 / 3, 4.8024, 999), (1 / 3, 4.8042, 1000), (1 / 3, 4.8059, 1001),
]


@pytest.mark.parametrize("max_terms", [65, 100, 129, 1000])
def test_ml_budgets_between_the_doublings_match_reference(monkeypatch, max_terms):
    # One point's terms are formed 64, 128, 256, ... at a time, up to the
    # budget; these budgets cut between those counts.  A series that stops
    # one term before the budget, at it or one past it (for z and -z, whose
    # magnitudes agree) has the reference loop's terms, values and errors.
    cases = [(a, z, n) for a, z, n in STOPS_NEAR_BUDGETS if abs(n - max_terms) <= 1]
    assert [n for _, _, n in cases] == [max_terms - 1, max_terms, max_terms + 1]
    for alpha, z, n in cases:
        assert len(specfun._ml_terms(MLParams(alpha), z, ([], [], []))) == n
    monkeypatch.setattr(specfun, "ML_MAX_TERMS", max_terms)
    for alpha, z, n in cases:
        params = MLParams(alpha)
        for zi in (z, -z):
            terms = specfun._ml_terms(params, zi, ([], [], []))
            expected = [series_term(zi, k, alpha * k + 1.0) for k in range(n)]
            assert terms == (expected if n <= max_terms else None)
            ref = per_point_outcome(params, [zi])
            assert _array_outcome(params, zi) == (ref if isinstance(ref, tuple) else ref[0])
        if n > max_terms:  # the budget is reached with no stop
            assert ref == (NonConvergenceError,
                           f"series for E_({alpha},1.0)({-z}) did not reach "
                           f"tail_tol=1e-16 within {max_terms} terms")
    # One array: the points that stop within the budget return values, and
    # the one past it raises the reference's error.
    zs = [z for _, z, _ in cases]
    params = MLParams(cases[0][0])
    assert isinstance(_matches_reference(params, zs[:2] + [0.5, -1.0]), np.ndarray)
    assert _matches_reference(params, zs + [0.5])[0] is NonConvergenceError


def test_ml_overflowing_term_matches_reference():
    assert "k=224" in _matches_reference(MLParams(alpha=0.1), [0.5, 30.0])[1]
    # Gamma(1e-320) overflows: the first term, at z = 0 as elsewhere.
    for z in (0.0, 0.5):
        assert "k=0" in _matches_reference(MLParams(alpha=0.5, beta=1e-320), [z])[1]


def test_ml_gamma_overflow_past_the_stop_raises_only_when_reached():
    # Gamma(3 alpha + beta) = Gamma(2^-1051) overflows.  z = 1 stops at
    # k = 1 and returns a value although the table holds that entry;
    # z = 10 reaches k = 3 and raises there.
    params = MLParams(alpha=2.0 ** -1000, beta=-3 * 2.0 ** -1000 + 2.0 ** -1051)
    assert isinstance(_matches_reference(params, [1.0, -1.0]), np.ndarray)
    assert "k=3" in _matches_reference(params, [1.0, 10.0])[1]
    # lgamma(3e305) overflows; every z stops at k = 1, where the term is 0.
    assert isinstance(_matches_reference(MLParams(alpha=1e305), [0.5, -2.0, 30.0]), np.ndarray)


@pytest.mark.parametrize("zs, error", [([0.5, -4.0, 31.0], NonConvergenceError),
                                       ([0.5, 31.0, -4.0], DomainError)])
def test_ml_array_raises_at_the_first_failing_point(zs, error):
    # -4.0 cancels at alpha = 1/3 and 31 is outside the domain: whichever
    # comes first raises, with the scalar call's message.
    got = _array_outcome(MLParams(alpha=1 / 3), zs)
    assert got[0] is error and got == per_point_outcome(MLParams(alpha=1 / 3), zs)


def _same_outcome(ref, got):
    """got is ref exactly: the same values with the same signs of zero, or
    the same error class and message."""
    if isinstance(ref, tuple):
        assert got == ref
    else:
        assert isinstance(got, np.ndarray)
        assert np.array_equal(got, ref) and np.array_equal(np.signbit(got), np.signbit(ref))


@given(
    alpha=st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
    beta=st.sampled_from([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0]),
    zs=st.lists(st.one_of(st.sampled_from([0.0, -0.0, 5e-324, -5e-324]), st.floats(-1.0, 1.0)),
                min_size=1, max_size=40),
    scale=st.sampled_from([1.0, 5.0, 30.0]),
    max_terms=st.sampled_from([2000, 2000, 2000, 2, 6, 40]),
    block=st.sampled_from([2, 16, 64, 512]),
)
@settings(max_examples=100, deadline=None)
def test_ml_blocks_match_per_point_loop(alpha, beta, zs, scale, max_terms, block):
    # With at most `block` terms formed at once, a call spans many blocks
    # of a few points each, the largest |z| anywhere in them; zeros and
    # beta <= 0 poles fall mid-array.  Each value and the first failure
    # must be the scalar loop's, a sum past double range too.
    params = MLParams(alpha=alpha, beta=beta)
    zs = [scale * z for z in zs]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(specfun, "ML_MAX_TERMS", max_terms)
        ref = per_point_outcome(params, zs)
        mp.setattr(specfun, "ML_BLOCK_ELEMENTS", block)
        got = _array_outcome(params, zs)
    _same_outcome(ref, got)


def _count_blocks(monkeypatch):
    """The size of each block mittag_leffler sums, in order."""
    sizes = []
    span = specfun._ml_span
    monkeypatch.setattr(specfun, "_ml_span",
                        lambda *args: sizes.append(span(*args)[0]) or span(*args))
    return sizes


def test_ml_long_array_spans_blocks(monkeypatch):
    # 3000 points at alpha = 1/2 need up to about 60 terms each, so the
    # default block holds a few hundred; the largest |z| of a block lies
    # anywhere in it, and zeros fall mid-array.
    zs = np.random.default_rng(3).uniform(-3.0, 5.0, 3000)
    zs[[5, 700, 2999]] = 0.0
    zs[1234] = -0.0
    sizes = _count_blocks(monkeypatch)
    params = MLParams(alpha=0.5)
    _same_outcome(per_point_outcome(params, zs.tolist()), _array_outcome(params, zs))
    assert len(sizes) > 4 and sum(sizes) == zs.size


def test_ml_sums_each_blocks_largest_z_once(monkeypatch):
    # The long-grid oracle: z = -2 u^(1/3) on u = 1e-4 k, k <= 10^4, so
    # |z| grows along the array and a window's largest |z| mostly lies
    # past the block that fits.  Its term count bounds the shorter block,
    # so no second series is summed for it: at most one single-point
    # series per block (a second series per shrink formed 117 for 60).
    zs = -2.0 * (1e-4 * np.arange(1, 10_001)) ** (1 / 3)
    blocks, series = [], []
    span, terms = specfun._ml_span, specfun._ml_terms
    monkeypatch.setattr(specfun, "_ml_span", lambda *args: blocks.append(1) or span(*args))
    monkeypatch.setattr(specfun, "_ml_terms", lambda *args: series.append(1) or terms(*args))
    params = MLParams(alpha=1 / 3)
    got = mittag_leffler(params, zs)
    assert 0 < len(series) <= len(blocks)
    assert np.array_equal(got[::997], [per_point_ml(params, z) for z in zs[::997].tolist()])


def test_ml_np_exp_terms_stay_within_the_rounding_bound():
    # Each term is np.exp of k log|z| - lg[k].  Against the same terms
    # formed with math.exp (within about 0.502 ulp of the exponential;
    # numpy's SIMD exp is within about 0.66), every term is within 1 ulp
    # and every value within 2^-52 sum_k |t_k|, the rounding error the
    # docstring states.
    rng = np.random.default_rng(17)
    for alpha in (1 / 3, 3 / 7, 1 / 2, 199 / 203, 1.0):
        for beta in (1.0, 0.5):
            params = MLParams(alpha=alpha, beta=beta)
            low = {1 / 3: -2.0, 3 / 7: -2.5}.get(alpha, -3.0)  # inside the rounding check
            table = ([], [], [])
            for z in rng.uniform(low, 5.0, 300).tolist():
                terms = specfun._ml_terms(params, z, table)
                lg, sign = table[0], table[2 if z < 0.0 else 1]
                log_z = math.log(abs(z))
                exact = [sign[k] * math.exp(k * log_z - lg[k]) for k in range(len(terms))]
                assert all(abs(t - e) <= math.ulp(e) for t, e in zip(terms, exact))
                value = mittag_leffler(params, z)
                assert value == math.fsum(terms)
                assert abs(value - math.fsum(exact)) <= 2.0 ** -52 * math.fsum(map(abs, exact))


@pytest.mark.parametrize("first, second", [(-4.0, 31.0), (31.0, -4.0)])
def test_ml_first_failure_in_a_later_block(monkeypatch, first, second):
    # -4.0 cancels at alpha = 1/3 and 31 is outside the domain.  Both lie
    # past the first block; whichever comes first raises, in the last
    # block formed.
    zs = np.linspace(-2.0, 2.0, 2000)
    zs[1500], zs[1700] = first, second
    sizes = _count_blocks(monkeypatch)
    params = MLParams(alpha=1 / 3)
    got = _array_outcome(params, zs)
    _same_outcome(per_point_outcome(params, zs.tolist()), got)
    assert got[0] is (DomainError if first > 30 else NonConvergenceError)
    assert len(sizes) > 1 and sum(sizes[:-1]) <= 1500 < sum(sizes)


def test_ml_zero_results_keep_their_sign():
    # beta = 0: 1/Gamma(0) = 0 at z = 0, and at z = -5e-324 the k = 1 term
    # underflows to -0.0, so that series sums [0.0, -0.0].  The scalar
    # loop's fsum gives +0.0 for each; a term -1e-302 stays negative.
    params = MLParams(alpha=0.01, beta=0.0)
    zs = [0.5, 0.0, -5e-324, -0.0, 5e-324, 0.7, -1e-300]
    got = _array_outcome(params, zs)
    _same_outcome(per_point_outcome(params, zs), got)
    assert got[1:5].tolist() == [0.0] * 4 and not np.signbit(got[1:5]).any()
    assert got[6] < 0.0


def test_ml_sum_past_double_range_raises_non_convergence():
    # E_{1/2}(26.7) = e^(26.7^2) erfc(-26.7) lies past double range while
    # every term is finite, so fsum overflows: that is NonConvergenceError,
    # for a scalar z and in an array, where -6, which cancels, raises
    # first when it comes first.  Nothing may warn.
    params = MLParams(alpha=0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonConvergenceError, match="sums past double range"):
            mittag_leffler(params, 26.7)
        for zs in ([26.7], [26.7, 1.0], [1.0, 26.7], [1.0, -6.0, 26.7]):
            got = _array_outcome(params, zs)
            assert got == per_point_outcome(params, zs)
            assert got[0] is NonConvergenceError
            assert ("cancels" if -6.0 in zs else "sums past double range") in got[1]


def test_ml_scalar_returns_float_and_empty_array_returns_empty():
    params = MLParams(alpha=3 / 7)
    for z in (0.7, np.float64(0.7), -1.2, 0.0):
        got = mittag_leffler(params, z)
        assert type(got) is float and got == per_point_ml(params, float(z))
    empty = mittag_leffler(params, np.array([]))
    assert isinstance(empty, np.ndarray) and empty.shape == (0,)


def test_ml_params_validation():
    for alpha in (0.0, -0.5):
        with pytest.raises(DomainError, match="alpha must be positive"):
            MLParams(alpha=alpha)


@pytest.mark.parametrize("alpha, beta", [(math.inf, 1.0), (math.nan, 1.0), (0.5, math.nan),
                                         (0.5, -math.inf)])
def test_ml_params_reject_non_finite(alpha, beta):
    with pytest.raises(DomainError, match="alpha and beta must be finite"):
        MLParams(alpha=alpha, beta=beta)


# ---------------------------------------------------------------- certified block sums

_MAX = sys.float_info.max


@st.composite
def _sum_row(draw):
    """One row of terms of one of six kinds: mixed signs and zeros, large
    terms cancelling in pairs, a Mittag-Leffler series at beta <= 0 with
    its poles' zero terms, a sum on or next to a rounding midpoint, a sum
    on or next to a power of two, and terms near double range, where fsum
    may overflow."""
    kind = draw(st.sampled_from(["mixed", "pairs", "poles", "tie", "power", "overflow"]))
    sign = draw(st.sampled_from([1.0, -1.0]))
    if kind == "mixed":
        row = draw(st.lists(st.one_of(
            st.sampled_from([0.0, -0.0, 5e-324, -5e-324]),
            st.builds(math.ldexp, st.floats(-1.0, 1.0), st.integers(-80, 80))), max_size=70))
        if row and draw(st.booleans()):  # cancel the row down to a small remainder
            row.append(-math.fsum(row) + draw(st.floats(-1e-12, 1e-12)))
        return row
    if kind == "pairs":  # large terms that cancel in pairs around small ones
        big = draw(st.lists(st.builds(math.ldexp, st.floats(0.5, 1.0), st.integers(20, 70)),
                            min_size=1, max_size=3))
        small = draw(st.lists(st.builds(math.ldexp, st.floats(-1.0, 1.0), st.integers(-130, 0)),
                              min_size=1, max_size=6))
        return draw(st.permutations([sign * b for b in big] + small + [-sign * b for b in big]))
    if kind == "poles":
        alpha = draw(st.sampled_from([0.25, 1 / 3, 0.5, 1.0]))
        beta = draw(st.sampled_from([-2.0, -1.0, -0.5, 0.0]))
        z = draw(st.floats(-3.0, 3.0))
        row = []
        for k in range(draw(st.integers(2, 60))):
            try:
                row.append(series_term(z, k, alpha * k + beta))
            except OverflowError:  # 1/Gamma past double range
                break
        return row
    # x: a power of two, a float of two significant bits, or any float
    e = draw(st.integers(-900, 900))
    x = math.ldexp(draw(st.sampled_from([0.5, 0.75, draw(st.floats(0.5, 1.0, exclude_max=True))])), e)
    nudge = draw(st.sampled_from([0.0, 1.0, -1.0])) * math.ldexp(1.0, e - draw(st.integers(55, 120)))
    if kind == "tie":  # x plus half an ulp, split in two, nudged or not
        half = math.ulp(x) / 2
        row = [x, half / 2, half / 2, nudge]
    elif kind == "power":  # 2^e built from parts, or a neighbour of it
        p = math.ldexp(1.0, e)
        row = draw(st.sampled_from([[p, nudge], [p / 2, p / 2, nudge], [1.5 * p, -p / 2, nudge],
                                    [p - math.ulp(p / 2) / 2, nudge], [p + math.ulp(p), -nudge]]))
    else:  # "overflow"
        row = draw(st.sampled_from([[_MAX, _MAX, -_MAX], [_MAX, 2.0 ** 970, -_MAX],
                                    [_MAX, 2.0 ** 969, -_MAX], [1e308, 1e308, -1e308, -1e308],
                                    [_MAX / 2, _MAX / 4, x], [2.0 ** 1019, -(2.0 ** 1018), x]]))
    return [sign * t for t in draw(st.permutations(row))]


@given(rows=st.lists(_sum_row(), min_size=1, max_size=8))
@settings(max_examples=400, deadline=None)
def test_certified_block_sums_are_fsum_bit_for_bit(rows):
    # A block of rows padded with zeros, as _ml_block zeroes each row
    # past its stop.  Every certified sum is math.fsum's, the sign of
    # zero included, and no row where fsum overflows is certified.
    # Nothing may warn, and the terms are left as they were.
    width = max(1, *map(len, rows))
    terms = np.array([row + [0.0] * (width - len(row)) for row in rows])
    before = terms.copy()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res, certified = specfun._certified_sums(terms)
    assert np.array_equal(terms, before) and res.shape == certified.shape == (len(rows),)
    for row, value, ok in zip(rows, res.tolist(), certified.tolist()):
        try:
            exact = math.fsum(row)
        except OverflowError:
            assert not ok
            continue
        if ok:
            assert value == exact and math.copysign(1.0, value) == math.copysign(1.0, exact)


def test_certified_block_sums_reject_ties_powers_of_two_and_zeros():
    # Each of these rows sums exactly to a value fsum rounds at a tie, to
    # a power of two, or to zero: none is certified, however exact the
    # cascade.  A plain row is.
    x = 1.0 + 2.0 ** -52
    rows = [[x, 2.0 ** -53, 0.0], [1.5, -0.5, 0.0], [1.0, -1.0, 0.0], [0.25, 0.5, 0.75]]
    res, certified = specfun._certified_sums(np.array(rows))
    assert certified.tolist() == [False, False, False, True]
    assert res[3] == 1.5


def test_ml_cancelling_point_inside_a_block_raises():
    # 14 is the block's largest |z| and sums cleanly at alpha = 1, so -14,
    # whose series cancels (E_1(14) = 1.2e6 against e^-14), is summed in
    # the block, where its sum is certified: the rough rounding bound must
    # still send it to the exact check, which raises.
    params = MLParams(alpha=1.0)
    zs = [0.5, 14.0, 2.0, -14.0, 1.0]
    terms = specfun._ml_terms(params, -14.0, ([], [], []))
    assert specfun._certified_sums(np.array([terms]))[1].all()
    got = _array_outcome(params, zs)
    _same_outcome(per_point_outcome(params, zs), got)
    assert got[0] is NonConvergenceError and "cancels" in got[1]


@pytest.mark.parametrize("alpha", [1 / 3, 3 / 7, 199 / 203])
def test_ml_long_grid_sums_without_a_per_point_fsum(monkeypatch, alpha):
    # The long-grid oracle's z = -2 u^alpha, u = 1e-4 k, k <= 10^4: every
    # point's sum is certified, so math.fsum runs only in each window's
    # _ml_sum of its largest |z| (twice: the sum and the magnitude sum),
    # not once per point.
    zs = np.array([-2.0 * (1e-4 * k) ** alpha for k in range(1, 10_001)])
    params = MLParams(alpha=alpha)
    ref = [per_point_ml(params, z) for z in zs[::997].tolist()]
    windows, sums = [], []
    span, fsum = specfun._ml_span, math.fsum
    monkeypatch.setattr(specfun, "_ml_span", lambda *args: windows.append(1) or span(*args))
    monkeypatch.setattr(specfun.math, "fsum", lambda terms: sums.append(1) or fsum(terms))
    got = mittag_leffler(params, zs)
    monkeypatch.undo()
    assert 0 < len(sums) <= 2 * len(windows) < zs.size / 50
    assert np.array_equal(got[::997], ref)


# ---------------------------------------------------------------- the Gamma-table cache


@pytest.fixture
def tables(monkeypatch):
    """An empty table cache for the test, the real one restored after."""
    fresh = OrderedDict()
    monkeypatch.setattr(specfun, "_tables", fresh)
    return fresh


def _grown(params, size):
    """A table grown from empty to size entries, as one call grows it."""
    table = ([], [], [])
    while len(table[0]) < size:
        specfun._grow(params, table)
    return table


def test_ml_warm_table_gives_the_bits_of_a_cold_one(tables):
    # The table kept for (0.4, 1) is the one a fresh call grows, and
    # calls at other (alpha, beta) leave it and the values as they were.
    params = MLParams(alpha=0.4)
    zs = np.linspace(-2.0, 6.0, 401)
    cold = _array_outcome(params, zs)
    size = len(tables[(0.4, 1.0)][0])
    assert size >= 128 and tables[(0.4, 1.0)] == _grown(params, size)
    for other in (MLParams(0.7), MLParams(0.4, 0.5), MLParams(0.5, -1.0), MLParams(0.4, 2.0)):
        mittag_leffler(other, np.linspace(-1.0, 9.0, 60))
    assert list(tables)[0] == (0.4, 1.0) and tables[(0.4, 1.0)] == _grown(params, size)
    warm = _array_outcome(params, zs)
    _same_outcome(cold, warm)
    _same_outcome(per_point_outcome(params, zs.tolist()), warm)
    assert list(tables)[-1] == (0.4, 1.0)  # a hit makes it the most recent


def test_ml_warm_table_after_a_budget_patch(tables, monkeypatch):
    # The table does not depend on ML_MAX_TERMS: a table grown under the
    # default budget serves a call under a small one, and a small table a
    # call under the default, each with the bits and errors of a cold call.
    params = MLParams(alpha=0.5)
    zs = [1.0, 8.0, -3.0, 20.0]  # z = 20 needs more than 70 terms
    for budget in (specfun.ML_MAX_TERMS, 70, specfun.ML_MAX_TERMS):
        monkeypatch.setattr(specfun, "ML_MAX_TERMS", budget)
        warm = _array_outcome(params, zs)
        tables.clear()
        cold = _array_outcome(params, zs)
        _same_outcome(cold, warm)
        _same_outcome(per_point_outcome(params, zs), warm)
        assert isinstance(warm, np.ndarray) == (budget > 70)


def test_ml_table_cache_keeps_at_most_its_entry_bound(tables, monkeypatch):
    # With room for 256 entries, four 64-entry tables fill the cache; a
    # fifth evicts the least recently used, a hit refreshes a table, and
    # neither a table past the bound nor a torn one is kept.
    monkeypatch.setattr(specfun, "_ML_TABLE_ENTRIES", 256)
    for alpha in (0.3, 0.4, 0.5, 0.6):
        mittag_leffler(MLParams(alpha), 0.5)
    assert list(tables) == [(0.3, 1.0), (0.4, 1.0), (0.5, 1.0), (0.6, 1.0)]
    assert [len(t[0]) for t in tables.values()] == [64] * 4
    mittag_leffler(MLParams(0.7), 0.5)
    assert list(tables) == [(0.4, 1.0), (0.5, 1.0), (0.6, 1.0), (0.7, 1.0)]
    mittag_leffler(MLParams(0.4), np.array([0.5, -0.25]))
    mittag_leffler(MLParams(0.8), 0.5)
    assert list(tables) == [(0.6, 1.0), (0.7, 1.0), (0.4, 1.0), (0.8, 1.0)]
    big = mittag_leffler(MLParams(0.6), 20.0)  # a hit whose copy grows past 256
    assert list(tables) == [(0.7, 1.0), (0.4, 1.0), (0.8, 1.0), (0.6, 1.0)]
    assert len(tables[(0.6, 1.0)][0]) == 64 and big == per_point_ml(MLParams(0.6), 20.0)
    assert sum(len(t[0]) for t in tables.values()) <= 256
    # Lists of unequal length, as an interrupt inside _grow leaves them.
    specfun._keep(MLParams(0.9), ([0.0] * 64, [1.0] * 64, [1.0] * 63))
    assert (0.9, 1.0) not in tables


@pytest.mark.parametrize("same_alpha", [True, False])
def test_ml_threads_match_serial_calls(monkeypatch, same_alpha):
    # Three threads start together on a cold cache, at one alpha or at
    # three, and each value must be a serial call's.  math.gamma yields
    # to another thread before each Gamma value, so their tables grow
    # interleaved: a shared table grown in place takes the threads'
    # entries in a mixed order and fails here.
    zs = np.linspace(-2.0, 10.0, 300)
    gamma = math.gamma

    def yielding_gamma(g):
        time.sleep(0)
        return gamma(g)

    for i in range(6):
        alphas = [0.45 + 0.01 * i + (0.0 if same_alpha else 0.1 * t) for t in range(3)]
        barrier = threading.Barrier(len(alphas))
        got = [None] * len(alphas)

        def run(t):
            barrier.wait()
            try:
                got[t] = mittag_leffler(MLParams(alphas[t]), zs)
            except Exception as exc:  # a race may raise anything; the check below reports it
                got[t] = exc

        threads = [threading.Thread(target=run, args=(t,)) for t in range(len(alphas))]
        interval = sys.getswitchinterval()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(specfun, "_tables", OrderedDict())
            mp.setattr(math, "gamma", yielding_gamma)
            sys.setswitchinterval(1e-6)
            try:
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
            finally:
                sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for alpha, value in zip(alphas, got):
            monkeypatch.setattr(specfun, "_tables", OrderedDict())
            serial = mittag_leffler(MLParams(alpha), zs)
            assert isinstance(value, np.ndarray) and np.array_equal(value, serial)
