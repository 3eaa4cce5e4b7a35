"""Tests for real odd-root powers, the generalized factorial, and the
Mittag-Leffler series."""

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
    PoleError,
    ZeroEigenvalueError,
    gfact,
    mittag_leffler,
    rpow,
)
from fraclode.specfun import exp_section

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


# ---------------------------------------------------------------- rpow


def test_rpow_odd_roots():
    assert rpow(-27.0, 1, 3) == pytest.approx(-3.0, rel=1e-14)
    assert rpow(8.0, 1, 3) == pytest.approx(2.0, rel=1e-14)
    assert rpow(-2.0, 2, 3) == pytest.approx(2.0 ** (2 / 3), rel=1e-14)
    assert rpow(5.0, 1, 1) == 5.0


def test_rpow_zero_handling():
    assert rpow(0.0, 0, 3) == 1.0
    assert rpow(0.0, 2, 5) == 0.0
    with pytest.raises(ZeroEigenvalueError):
        rpow(0.0, -1, 3)


def test_rpow_rejects_even_or_nonpositive_den():
    with pytest.raises(DomainError):
        rpow(2.0, 1, 2)
    with pytest.raises(DomainError):
        rpow(2.0, 1, 0)
    with pytest.raises(DomainError):
        rpow(2.0, 1, -3)


@given(
    x=st.floats(min_value=1e-3, max_value=1e3),
    num=st.integers(-9, 9),
    q=st.integers(0, 10),
)
@settings(max_examples=100, deadline=None)
def test_rpow_sign_preservation(x, num, q):
    den = 2 * q + 1
    pos = rpow(x, num, den)
    neg = rpow(-x, num, den)
    assert pos > 0.0
    # Odd numerator flips the sign with x; even numerator does not.
    if num % 2 == 1:
        assert neg == -pos
    else:
        assert neg == pos
    # |result| is the real den-th root power.
    assert abs(pos - x ** (num / den)) <= 1e-12 * max(1.0, abs(pos))


# ---------------------------------------------------------------- gfact


def test_gfact_spot_values():
    assert gfact(0.0) == pytest.approx(1.0, rel=1e-14)
    assert gfact(1.0) == pytest.approx(1.0, rel=1e-14)
    assert gfact(4.0) == pytest.approx(24.0, rel=1e-14)
    # Gamma(3/2) = sqrt(pi)/2
    assert gfact(0.5) == pytest.approx(math.sqrt(math.pi) / 2, rel=1e-14)
    # Gamma(1/3), frozen from a 50-digit computation.
    assert gfact(-2 / 3) == pytest.approx(FIXTURE["gamma_one_third"], rel=1e-13)


def test_gfact_recurrence():
    z = 0.5
    while z <= 10.0:
        assert gfact(z) == pytest.approx(z * gfact(z - 1.0), rel=1e-10)
        z += 0.25


def test_gfact_poles():
    for z in (-1.0, -2.0, -3.0):
        with pytest.raises(PoleError):
            gfact(z)


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


def test_ml_params_validation():
    with pytest.raises(DomainError):
        MLParams(alpha=0.0)
    with pytest.raises(DomainError):
        MLParams(alpha=0.5, tail_tol=0.0)
    with pytest.raises(DomainError):
        MLParams(alpha=0.5, max_terms=0)
