"""Diagnostics: Grunwald-Letnikov differencing, the residual metric `nev`,
spectrum-based stability verdicts, and the alpha-ladder convergence study.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DomainError, NonUniformGridError
from .linalg import as_matrix, max_abs
from .rational_order import approximate_order, DEFAULT_TOL, DEFAULT_Q_MAX
from .solver import (
    DEFAULT_SIMPSON_TOL,
    Quadrature,
    Trajectory,
    solve_scalar_quad,
    solve_scalar_rect,
)


def gl_weights(alpha: float, count: int) -> np.ndarray:
    """First `count` Grunwald-Letnikov weights: w_0 = 1,
    w_j = w_{j-1} * (j - 1 - alpha)/j (equivalently 1 - (alpha+1)/j,
    rearranged so w_1 = -alpha holds exactly in floating point)."""
    w = np.empty(count)
    w[0] = 1.0
    for j in range(1, count):
        w[j] = w[j - 1] * ((j - 1.0 - alpha) / j)
    return w


def gl_derivative(samples, alpha: float, h: float, t0: float = 0.0) -> np.ndarray:
    """Grunwald-Letnikov fractional difference on a uniform grid.

    out[k] = h^(-alpha) * sum_{j=0..k} w_j * samples[k-j].  The lower
    terminal is the time of samples[0] (t0 records where that is; it does
    not enter the weights).  At alpha = 1 this is the first backward
    difference.
    """
    if h <= 0.0:
        raise DomainError(f"h must be positive, got {h}")
    f = np.asarray(samples, dtype=float)
    squeeze = f.ndim == 1
    if squeeze:
        f = f[:, None]
    K = f.shape[0]
    if K < 2:
        raise DomainError("need at least 2 samples")
    w = gl_weights(alpha, K)
    out = np.empty_like(f)
    for j in range(f.shape[1]):
        out[:, j] = np.convolve(w, f[:, j])[:K]
    out *= h ** (-alpha)
    return out[:, 0] if squeeze else out


class NormKind(Enum):
    MAX_ABS = "MaxAbs"


@dataclass
class ResidualReport:
    """Residual norm of the fractional equation on a computed trajectory."""

    nev: float
    norm_kind: NormKind
    grid_step: float
    skipped_prefix: int


def _uniform_h(times: np.ndarray) -> float:
    diffs = np.diff(times)
    if len(diffs) == 0:
        raise DomainError("need at least 2 grid points")
    h = float(np.mean(diffs))
    if np.max(np.abs(diffs - h)) > 1e-9 * h:
        raise NonUniformGridError("residual metric requires a uniform grid")
    return h


def residual_nev(traj: Trajectory, A, alpha: float, skip: int = 1,
                 differencing: str = "gl") -> ResidualReport:
    """nev = max_{k >= skip} || D^alpha x(t_k) - A x(t_k) ||_maxabs.

    differencing:
      * "gl"        -- Grunwald-Letnikov difference (default).
      * "exact_exp" -- exact differentiator for exponential-type samples,
        d_k = x_k * ln(x_k / x_{k-1}) / h (componentwise, k >= 1).  Used at
        alpha = 1 where it annihilates the residual of exact exponential
        trajectories down to roundoff; requires nonzero samples of constant
        sign per component and skip >= 1.
    """
    A = as_matrix(A)
    times = traj.times
    states = traj.states
    K = states.shape[0]
    if not (0 <= skip < K):
        raise DomainError(f"skip={skip} must satisfy 0 <= skip < K={K}")
    h = _uniform_h(times)

    if differencing == "gl":
        D = gl_derivative(states, alpha, h)
    elif differencing == "exact_exp":
        if skip < 1:
            raise DomainError("exact_exp differencing needs skip >= 1")
        with np.errstate(divide="raise", invalid="raise"):
            try:
                ratios = states[1:] / states[:-1]
                D = np.empty_like(states)
                D[0] = np.nan
                D[1:] = states[1:] * np.log(ratios) / h
            except FloatingPointError as exc:
                raise DomainError(
                    "exact_exp differencing needs nonzero, constant-sign samples"
                ) from exc
    else:
        raise DomainError(f"unknown differencing mode {differencing!r}")

    resid = D - states @ A.T
    nev = float(np.max(np.abs(resid[skip:])))
    if math.isnan(nev):
        raise DomainError("residual is NaN")
    return ResidualReport(nev=nev, norm_kind=NormKind.MAX_ABS, grid_step=h,
                          skipped_prefix=skip)


class Verdict(Enum):
    ASYMPTOTICALLY_STABLE = "AsymptoticallyStable"
    UNSTABLE = "Unstable"
    INCONCLUSIVE = "Inconclusive"


@dataclass
class StabilityVerdict:
    verdict: Verdict
    eigenvalues: list[float] | None  # None when the spectrum is not real
    non_real: bool = False


def stability_verdict(A) -> StabilityVerdict:
    """Spectrum-based verdict, claimed for real spectra only.

    All eigenvalues real and negative: asymptotically stable (every mode
    E_alpha(lambda (t-t0)^alpha) decays to 0 for lambda < 0).  Any real
    positive eigenvalue: unstable.
    Anything else (non-real spectrum, zero eigenvalue): inconclusive.
    """
    A = as_matrix(A)
    tol = 1e-9 * (1.0 + max_abs(A))
    w = np.linalg.eigvals(A)
    if np.max(np.abs(w.imag)) > tol:
        real_part = [lam for lam in w if abs(lam.imag) <= tol]
        if any(lam.real > tol for lam in real_part):
            return StabilityVerdict(Verdict.UNSTABLE, None, non_real=True)
        return StabilityVerdict(Verdict.INCONCLUSIVE, None, non_real=True)
    lams = sorted(float(x) for x in w.real)
    if any(lam > tol for lam in lams):
        return StabilityVerdict(Verdict.UNSTABLE, lams)
    if all(lam < -tol for lam in lams):
        return StabilityVerdict(Verdict.ASYMPTOTICALLY_STABLE, lams)
    return StabilityVerdict(Verdict.INCONCLUSIVE, lams)  # zero eigenvalue


@dataclass
class StudyRow:
    alpha: float
    sup_deviation: float
    nev: float


def convergence_study(a: float, alphas, t0: float, t_end: float, h: float,
                      backend: Quadrature = Quadrature.RECTANGLE,
                      x0: float = 1.0,
                      order_tol: float = DEFAULT_TOL,
                      q_max: int = DEFAULT_Q_MAX,
                      simpson_tol: float = DEFAULT_SIMPSON_TOL,
                      skip: int = 1) -> list[StudyRow]:
    """Solve D^alpha x = a x over the alpha ladder; per alpha record the
    sup deviation from x0 e^{a (t-t0)} and the residual metric nev.

    Grid: t0 + h, t0 + 2h, ..., up to t_end (K = round((t_end - t0)/h)
    points).  At alpha = 1 the residual uses the exact exponential
    differentiator so nev reflects pure roundoff, matching the ladder's
    machine-zero bottom row.  For alpha < 1 it is the Caputo residual:
    Grunwald-Letnikov differencing of x - x0 from the lower terminal t0,
    where x(t0) = x0 supplies a zero first sample.
    """
    alphas = list(alphas)
    if not alphas:
        raise DomainError("alphas must be nonempty")
    if h <= 0.0 or t_end <= t0:
        raise DomainError("need h > 0 and t_end > t0")
    K = int(round((t_end - t0) / h))
    if K < 2:
        raise DomainError("grid must contain at least 2 points")
    if not (0 <= skip < K):
        raise DomainError(f"skip={skip} must satisfy 0 <= skip < K={K}")
    grid = t0 + h * np.arange(1, K + 1)
    reference = x0 * np.exp(a * (grid - t0))

    rows: list[StudyRow] = []
    for alpha in alphas:
        order = approximate_order(alpha, tol=order_tol, q_max=q_max)
        if backend is Quadrature.RECTANGLE:
            traj = solve_scalar_rect(a, x0, order, t0, grid)
        else:
            traj = solve_scalar_quad(a, x0, order, t0, grid, simpson_tol=simpson_tol)
        sup_dev = float(np.max(np.abs(traj.values - reference)))
        if order.q == 0:
            nev = residual_nev(traj, [[a]], order.value, skip=skip,
                               differencing="exact_exp").nev
        else:
            shifted = np.concatenate(([0.0], traj.values - x0))
            D = gl_derivative(shifted, order.value, h)[1:]
            nev = float(np.max(np.abs(D - a * traj.values)[skip:]))
        rows.append(StudyRow(alpha=alpha, sup_deviation=sup_dev, nev=nev))
    return rows
