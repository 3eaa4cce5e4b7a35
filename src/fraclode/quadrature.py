"""Gauss–Jacobi rules for the weight s^(a-1) on (0, 1), with which the
Simpson solver backend integrates each weakly singular convolution term.
"""

from __future__ import annotations

import functools
from typing import Callable

import numpy as np

from .errors import DomainError, QuadratureFailureError

MAX_DEPTH = 40


@functools.lru_cache(maxsize=256)
def gauss_jacobi(a: float, n_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes in (0, 1) and positive weights of the n_nodes-point Gauss rule
    for int_0^1 s^(a-1) f(s) ds, a > 0.

    The rule is exact for polynomials f of degree <= 2 n_nodes - 1 and its
    weights sum to 1/a.  Golub–Welsch (Math. Comp. 23, 1969): the nodes are
    the eigenvalues of the Jacobi matrix of the shifted Jacobi polynomials
    P^(0, a-1)(2s - 1), the weights 1/a times the squared first components
    of the eigenvectors.  The matrix is built on (0, 1), not on (-1, 1):
    mapping s = (1 + x) / 2 would cost the nodes near 0 about log10(1/a)
    digits when a is small.  The returned arrays are read-only: they are
    shared through the cache.
    """
    if not a > 0.0:
        raise DomainError(f"Gauss–Jacobi exponent a must be positive, got {a}")
    if n_nodes < 1:
        raise DomainError(f"need at least one node, got {n_nodes}")
    n = np.arange(1, n_nodes, dtype=float)
    diag = np.empty(n_nodes)
    diag[0] = a / (a + 1.0)
    diag[1:] = 0.5 + 0.5 * (1.0 - a) ** 2 / (((2 * n - 1) + a) * ((2 * n + 1) + a))
    off = n * ((n - 1) + a) / (((2 * n - 1) + a) * np.sqrt(((2 * n - 2) + a) * (2 * n + a)))
    nodes, vecs = np.linalg.eigh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    weights = vecs[0] ** 2 / a
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def _err(a) -> float:
    return float(np.max(np.abs(a)))


# No solve calls adaptive_simpson; it stays only because perfbench/tracing.py wraps it.
def adaptive_simpson(f: Callable[[float], "np.ndarray | float"], a: float, b: float,
                     tol: float, max_depth: int = MAX_DEPTH):
    """Integral of f over [a, b] with |error| (max-abs) roughly <= tol."""
    if b < a:
        raise QuadratureFailureError(f"reversed interval [{a}, {b}]")
    fa, fb = f(a), f(b)
    if b == a:
        return 0.0 * fa
    m = 0.5 * (a + b)
    fm = f(m)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    return _simpson_rec(f, a, b, fa, fm, fb, whole, tol, max_depth)


def _simpson_rec(f, a, b, fa, fm, fb, whole, tol, depth):
    m = 0.5 * (a + b)
    lm = 0.5 * (a + m)
    rm = 0.5 * (m + b)
    flm = f(lm)
    frm = f(rm)
    left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
    right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
    delta = left + right - whole
    if _err(delta) <= 15.0 * tol:
        return left + right + delta / 15.0
    if depth <= 0:
        raise QuadratureFailureError(
            f"adaptive Simpson exceeded depth bound on [{a}, {b}]"
        )
    return (
        _simpson_rec(f, a, m, fa, flm, fm, left, 0.5 * tol, depth - 1)
        + _simpson_rec(f, m, b, fm, frm, fb, right, 0.5 * tol, depth - 1)
    )
