"""Tests for the dense real small-matrix kernels."""

import math
import tracemalloc

import numpy as np
import pytest

from fraclode import (
    ClusteredSpectrumError,
    ComplexSpectrumError,
    DomainError,
    OverflowError_,
    ZeroEigenvalueError,
    eig_real_simple,
    expm,
    frac_power,
    perturb_to_simple,
)
from fraclode.linalg import EXPM_BLOCK_ELEMENTS, THETA13, as_matrix, max_abs


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


def test_expm_blocks_its_stack():
    # A (2000, 20, 20) stack goes through in blocks of EXPM_BLOCK_ELEMENTS
    # entries, 20 matrices each.  Each block equals its own call, and the
    # memory beyond the 6.4 MB result stays near one block's temporaries
    # (about 0.7 MB) instead of ten arrays of the stack's size.
    rng = np.random.default_rng(5)
    base = rng.standard_normal((20, 20)) / 4
    stack = np.linspace(0.01, 3.0, 2000)[:, None, None] * base
    tracemalloc.start()
    try:
        got = expm(stack)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - got.nbytes < 2e6
    step = EXPM_BLOCK_ELEMENTS // base.size
    assert step == 20
    for i in range(0, len(stack), step):
        assert np.array_equal(got[i:i + step], expm(stack[i:i + step]))


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


# ---------------------------------------------------------------- frac_power


def test_frac_power_odd_cube_root():
    got = frac_power(np.diag([8.0, -27.0]), 1, 3)
    assert max_abs(got - np.diag([2.0, -3.0])) <= 1e-12


def test_frac_power_identity_and_inverse_exponent():
    A, _ = _random_simple(np.random.default_rng(3), 3)
    assert max_abs(frac_power(A, 1, 1) - A) <= 1e-10
    got = frac_power(np.diag([4.0, 9.0]), -1, 1)
    assert max_abs(got - np.diag([0.25, 1.0 / 9.0])) <= 1e-14


def test_frac_power_cube_consistency():
    rng = np.random.default_rng(5)
    for n in (2, 3, 4):
        A, _ = _random_simple(rng, n)
        R = frac_power(A, 1, 3)
        assert max_abs(R @ R @ R - A) <= 1e-8


def test_frac_power_integer_multiple_of_den():
    A, _ = _random_simple(np.random.default_rng(9), 3)
    assert max_abs(frac_power(A, 6, 3) - A @ A) <= 1e-8


def test_frac_power_errors():
    with pytest.raises(DomainError):
        frac_power(np.diag([1.0, 2.0]), 1, 2)  # even denominator
    with pytest.raises(ZeroEigenvalueError):
        frac_power(np.diag([0.0, 1.0]), -1, 1)


# ---------------------------------------------------------------- perturb


def test_perturb_to_simple():
    A = np.array([[1.0, 1.0], [0.0, 1.0]])
    got = perturb_to_simple(A, np.diag([0.0, 1.0]), 1e-3)
    assert max_abs(got - [[1.0, 1.0], [0.0, 1.001]]) <= 1e-15
    dec = eig_real_simple(got)
    assert dec.lambdas == pytest.approx([1.0, 1.001], abs=1e-12)
    assert max_abs(perturb_to_simple(A, np.zeros((2, 2)), 0.5) - A) == 0.0


def test_perturb_cannot_realify_rotation():
    rot = [[0.0, 1.0], [-1.0, 0.0]]
    perturbed = perturb_to_simple(rot, np.diag([1.0, 0.0]), 1e-3)
    with pytest.raises(ComplexSpectrumError):
        eig_real_simple(perturbed)


def test_perturb_validation():
    with pytest.raises(DomainError):
        perturb_to_simple(np.eye(2), np.eye(3), 1e-3)
    with pytest.raises(DomainError):
        perturb_to_simple(np.eye(2), np.eye(2), -1.0)
