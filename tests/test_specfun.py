"""Tests for the sections of the exponential and the Mittag-Leffler
series."""

import json
import math
import pathlib

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
from fraclode.specfun import exp_section
from ml_reference import per_point_ml, per_point_outcome

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
    # Before any series work: a NaN would otherwise run all max_terms.
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


def test_ml_domain_and_budget_errors():
    with pytest.raises(DomainError):
        mittag_leffler(MLParams(alpha=0.5), 31.0)
    with pytest.raises(NonConvergenceError):
        mittag_leffler(MLParams(alpha=0.5, max_terms=3), 5.0)


@pytest.mark.parametrize("alpha, z", [(1 / 3, -4.0), (3 / 7, -5.0)])
def test_ml_cancelling_series_raises(alpha, z):
    # The alternating series cancels: the true values are 0.162 and 0.121,
    # the float sum gave -1.8e12 and 2734.  The rounding bound catches it.
    with pytest.raises(NonConvergenceError, match="cancels"):
        mittag_leffler(MLParams(alpha=alpha), z)


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
    params = MLParams(alpha=alpha, beta=beta, max_terms=max_terms)
    zs = [scale * z for z in zs]
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


def test_ml_lgamma_branch_matches_reference():
    # At alpha = 1/4, z = 3.5 the series runs past alpha k + 1 = 171 (a
    # budget of 681 terms is not enough), where the table switches from
    # log|gamma| to lgamma.
    params = MLParams(alpha=0.25)
    assert per_point_outcome(MLParams(0.25, 1.0, 681), [3.5])[0] is NonConvergenceError
    assert isinstance(_matches_reference(params, [3.5, 0.1, 2.0]), np.ndarray)
    assert _matches_reference(params, [3.5, -3.5])[0] is NonConvergenceError


def test_ml_budget_at_the_stop_index_matches_reference():
    # z = -2 at alpha = 1/3 needs 139 terms, past two growths of the
    # table; a budget one or two short fails with the scalar loop's message.
    n = 1  # the least budget with which the scalar loop returns a value
    while isinstance(per_point_outcome(MLParams(1 / 3, 1.0, n), [-2.0]), tuple):
        n += 1
    assert n == 139
    for max_terms in (n - 2, n - 1, n, n + 1, 64, 65, 128):
        got = _matches_reference(MLParams(1 / 3, 1.0, max_terms), [0.1, -2.0])
        assert isinstance(got, np.ndarray) == (max_terms >= n)


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


def test_ml_scalar_returns_float_and_empty_array_returns_empty():
    params = MLParams(alpha=3 / 7)
    for z in (0.7, np.float64(0.7), -1.2, 0.0):
        got = mittag_leffler(params, z)
        assert type(got) is float and got == per_point_ml(params, float(z))
    empty = mittag_leffler(params, np.array([]))
    assert isinstance(empty, np.ndarray) and empty.shape == (0,)


def test_ml_params_validation():
    with pytest.raises(DomainError):
        MLParams(alpha=0.0)
    with pytest.raises(DomainError):
        MLParams(alpha=0.5, tail_tol=0.0)
    with pytest.raises(DomainError):
        MLParams(alpha=0.5, max_terms=0)


@pytest.mark.parametrize("alpha, beta", [(math.inf, 1.0), (math.nan, 1.0), (0.5, math.nan),
                                         (0.5, -math.inf)])
def test_ml_params_reject_non_finite(alpha, beta):
    with pytest.raises(DomainError, match="alpha and beta must be finite"):
        MLParams(alpha=alpha, beta=beta)
