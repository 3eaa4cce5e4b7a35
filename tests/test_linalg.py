"""Tests for the dense real small-matrix kernels."""

import math

import numpy as np
import pytest

from fraclode import (
    CauchyProblem,
    ClusteredSpectrumError,
    ComplexSpectrumError,
    DomainError,
    OverflowError_,
    Quadrature,
    SolveConfig,
    approximate_order,
    eig_real_simple,
    expm,
    solve_limit_perturbation,
)
from fraclode.linalg import THETA13, as_matrix, max_abs


def _random_simple(rng, n):
    """Random matrix with known distinct real spectrum, ||.||_max modest."""
    lams = np.sort(rng.uniform(-2.0, 2.0, size=n))
    while np.min(np.diff(lams)) < 0.2:
        lams = np.sort(rng.uniform(-2.0, 2.0, size=n))
    T = rng.uniform(-1.0, 1.0, size=(n, n)) + 2.0 * np.eye(n)
    return T @ np.diag(lams) @ np.linalg.inv(T), lams


# ---------------------------------------------------------------- eig


def test_eig_diagonal():
    dec = eig_real_simple(np.diag([-2.0, 3.0]))
    assert dec.lambdas == pytest.approx([-2.0, 3.0])
    assert max_abs(dec.T - np.eye(2)) <= 1e-12
    assert dec.recon_error <= 1e-12


def test_eig_companion_style():
    # Characteristic polynomial lambda^2 - lambda - 2 -> roots -1, 2.
    dec = eig_real_simple([[0.0, 1.0], [2.0, 1.0]])
    assert dec.lambdas == pytest.approx([-1.0, 2.0], abs=1e-12)


def test_eig_rotation_is_complex():
    with pytest.raises(ComplexSpectrumError):
        eig_real_simple([[0.0, 1.0], [-1.0, 0.0]])


def test_eig_repeated_is_clustered():
    with pytest.raises(ClusteredSpectrumError):
        eig_real_simple([[1.0, 1.0], [0.0, 1.0]])


def test_eig_reconstruction_and_determinism():
    rng = np.random.default_rng(7)
    for n in (2, 3, 4):
        A, lams = _random_simple(rng, n)
        dec = eig_real_simple(A)
        assert dec.lambdas == pytest.approx(lams, abs=1e-9)
        assert dec.recon_error <= 1e-8 * (1.0 + max_abs(A))
        assert max_abs(dec.T @ dec.T_inv - np.eye(n)) <= 1e-8
        dec2 = eig_real_simple(A)
        assert max_abs(dec.T - dec2.T) == 0.0  # bitwise-identical rerun


def test_as_matrix_validation():
    with pytest.raises(DomainError):
        as_matrix([1.0, 2.0])
    with pytest.raises(DomainError):
        as_matrix([[1.0, math.inf], [0.0, 1.0]])


# ---------------------------------------------------------- perturbation


def test_perturb_cannot_realify_rotation():
    # A ladder rung A + eps B of a rotation keeps a complex pair.
    rot = np.array([[0.0, 1.0], [-1.0, 0.0]])
    with pytest.raises(ComplexSpectrumError):
        eig_real_simple(rot + 1e-3 * np.diag([1.0, 0.0]))


def test_perturb_validation():
    problem = CauchyProblem(A=np.eye(2), x0=[1.0, 1.0], t0=0.0,
                            order=approximate_order(1.0, tol=1e-12, q_max=10))
    config = SolveConfig(grid=np.linspace(0.1, 1.0, 10), quadrature=Quadrature.RECTANGLE)
    with pytest.raises(DomainError):
        solve_limit_perturbation(problem, np.eye(3), [1e-2, 1e-3], config)
    with pytest.raises(DomainError):
        solve_limit_perturbation(problem, np.eye(2), [1e-2, -1.0], config)


# ---------------------------------------------------------------- expm


def test_expm_spot_cases():
    assert max_abs(expm(np.zeros((3, 3))) - np.eye(3)) <= 1e-14
    # Nilpotent: series terminates exactly.
    assert max_abs(expm([[0.0, 1.0], [0.0, 0.0]]) - [[1.0, 1.0], [0.0, 1.0]]) <= 1e-14
    got = expm(np.diag([1.0, -2.0]))
    assert max_abs(got - np.diag([math.e, math.exp(-2.0)])) <= 1e-12


def test_expm_zero_matrix_is_exact_identity():
    for n in (1, 2, 5):
        assert np.array_equal(expm(np.zeros((n, n))), np.eye(n))


def test_expm_stack_matches_per_matrix_calls():
    # The 1-norms need squaring counts from 0 to several, one per matrix.
    rng = np.random.default_rng(3)
    base = rng.standard_normal((4, 4))
    scales = [1e-3, 0.5, 3.0, 40.0, 150.0]
    stack = np.array([c * base for c in scales])
    norms = np.max(np.sum(np.abs(stack), axis=-2), axis=-1)
    assert len({max(0, math.ceil(math.log2(x / THETA13))) for x in norms}) >= 3
    got = expm(stack)
    for A, E in zip(stack, got):
        ref = expm(A)
        assert max_abs(E - ref) <= 1e-14 * max_abs(ref)
    # Any stack shape; zero matrices inside a stack are exact identities.
    deep = np.concatenate([stack[:3], np.zeros((3, 4, 4))]).reshape(2, 3, 4, 4)
    got = expm(deep)
    assert got.shape == (2, 3, 4, 4)
    assert max_abs(got[0] - expm(stack[:3])) <= 1e-14 * max_abs(got[0])
    assert all(np.array_equal(E, np.eye(4)) for E in got[1])


def test_expm_rejects_non_square_stacks():
    for bad in (np.zeros(3), np.zeros((2, 3)), np.zeros((4, 2, 3))):
        with pytest.raises(DomainError):
            expm(bad)
    with pytest.raises(DomainError):
        expm(np.full((2, 2, 2), np.nan))


@pytest.mark.parametrize("w", [1e-3, 0.5, 3.0, 40.0])
def test_expm_rotation_generator(w):
    # exp([[0, w], [-w, 0]]) is a rotation; w = 40 needs scaling and squaring.
    got = expm([[0.0, w], [-w, 0.0]])
    c, s = math.cos(w), math.sin(w)
    assert max_abs(got - np.array([[c, s], [-s, c]])) <= 1e-13 * max(1.0, w)


def test_expm_non_normal_against_eigendecomposition():
    # A = S diag(lam) S^-1 with cond(S) ~ 50 and 1-norm ~ 30.
    rng = np.random.default_rng(3)
    U, _ = np.linalg.qr(rng.standard_normal((6, 6)))
    V, _ = np.linalg.qr(rng.standard_normal((6, 6)))
    S = U @ np.diag(np.geomspace(1.0, 50.0, 6)) @ V.T
    lam = np.array([-3.0, -1.5, -0.2, 0.4, 1.1, 2.5])
    A = S @ np.diag(lam) @ np.linalg.inv(S)
    ref = S @ np.diag(np.exp(lam)) @ np.linalg.inv(S)
    assert max_abs(expm(A) - ref) <= 1e-12 * max_abs(ref)


def test_expm_overflow_is_reported():
    with pytest.raises(OverflowError_):
        expm([[800.0]])


def test_expm_semigroup():
    rng = np.random.default_rng(11)
    for n in (2, 3, 4):
        A = rng.uniform(-1.0, 1.0, size=(n, n))
        for s, t in ((0.3, 0.7), (0.7, 0.3)):
            gap = max_abs(expm(s * A) @ expm(t * A) - expm((s + t) * A))
            assert gap <= 1e-8
