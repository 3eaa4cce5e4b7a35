"""Tests for the Gauss–Jacobi rules and the adaptive Simpson integrator."""

import math

import numpy as np
import pytest

from fraclode.errors import DomainError, QuadratureFailureError
from fraclode.quadrature import adaptive_simpson, gauss_jacobi

JACOBI_EXPONENTS = [1 / 3, 3 / 7, 1 / 2003]


@pytest.mark.parametrize("a", JACOBI_EXPONENTS)
@pytest.mark.parametrize("n_nodes", [1, 3, 16, 64, 128])
def test_gauss_jacobi_exact_for_polynomials(a, n_nodes):
    # int_0^1 s^(a-1) s^k ds = 1/(a+k), exact for k <= 2N-1.
    s, w = gauss_jacobi(a, n_nodes)
    for k in range(2 * n_nodes):
        got = math.fsum(w * s**k)
        assert abs(got - 1.0 / (a + k)) <= 1e-13 / (a + k), (k, got)


@pytest.mark.parametrize("a", JACOBI_EXPONENTS)
@pytest.mark.parametrize("n_nodes", [1, 16, 256])
def test_gauss_jacobi_nodes_and_weights(a, n_nodes):
    s, w = gauss_jacobi(a, n_nodes)
    assert s.shape == w.shape == (n_nodes,)
    assert np.all(s > 0.0) and np.all(s < 1.0)
    assert np.all(np.diff(s) > 0.0)
    assert np.all(w > 0.0)
    assert math.fsum(w) == pytest.approx(1.0 / a, rel=1e-14)


def test_gauss_jacobi_singular_weight_integrand():
    # int_0^1 s^(-2/3) e^s ds = 3 * sum_k 1 / (k! (3k+1)), a spectrally
    # convergent case that a rule without the weight would struggle with.
    s, w = gauss_jacobi(1 / 3, 16)
    exact = 3.0 * math.fsum(1.0 / (math.factorial(k) * (3 * k + 1)) for k in range(30))
    assert float(w @ np.exp(s)) == pytest.approx(exact, rel=1e-15)


def test_gauss_jacobi_cached_arrays_are_read_only():
    s, w = gauss_jacobi(0.5, 8)
    assert gauss_jacobi(0.5, 8)[0] is s
    with pytest.raises(ValueError):
        s[0] = 0.0
    with pytest.raises(ValueError):
        w[0] = 0.0


def test_gauss_jacobi_validation():
    with pytest.raises(DomainError):
        gauss_jacobi(0.0, 4)
    with pytest.raises(DomainError):
        gauss_jacobi(0.5, 0)


def test_cubic_is_exact():
    # Simpson integrates cubics exactly even without refinement.
    got = adaptive_simpson(lambda x: x**3 - 2.0 * x + 1.0, -1.0, 2.0, 1e-12)
    exact = (2.0**4 - 1.0) / 4.0 - (2.0**2 - 1.0) + 3.0
    assert got == pytest.approx(exact, abs=1e-12)


def test_exponential():
    got = adaptive_simpson(math.exp, 0.0, 3.0, 1e-12)
    assert got == pytest.approx(math.exp(3.0) - 1.0, abs=1e-10)


def test_oscillatory():
    got = adaptive_simpson(lambda x: math.cos(10.0 * x), 0.0, 1.0, 1e-12)
    assert got == pytest.approx(math.sin(10.0) / 10.0, abs=1e-10)


def test_array_valued_integrand():
    got = adaptive_simpson(lambda x: np.array([math.exp(x), math.sin(x)]), 0.0, 1.0, 1e-12)
    assert got[0] == pytest.approx(math.e - 1.0, abs=1e-10)
    assert got[1] == pytest.approx(1.0 - math.cos(1.0), abs=1e-10)


def test_degenerate_interval():
    assert adaptive_simpson(math.exp, 1.0, 1.0, 1e-12) == 0.0


def test_reversed_interval_rejected():
    with pytest.raises(QuadratureFailureError):
        adaptive_simpson(math.exp, 1.0, 0.0, 1e-12)


def test_depth_exhaustion():
    # A jump discontinuity can never meet a 1e-15 local tolerance; with a
    # tiny depth bound the recursion must give up rather than loop.
    step = lambda x: 0.0 if x < 0.5 else 1.0
    with pytest.raises(QuadratureFailureError):
        adaptive_simpson(step, 0.0, 1.0, 1e-15, max_depth=4)
