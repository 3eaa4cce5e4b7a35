"""Diagnostics: Grunwald-Letnikov differencing, the residual metric `nev`,
spectrum-based stability verdicts, and the alpha-ladder convergence study.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DomainError, NonUniformGridError, OverflowError_
from .linalg import IMAG_TOL_SCALE, as_matrix, max_abs
from .rational_order import approximate_order, DEFAULT_TOL
from .solver import (
    CauchyProblem,
    Quadrature,
    SolveConfig,
    Trajectory,
    _step_grid,
    _time_rounding,
    solve_scalar_quad,
    solve_scalar_rect,
)


def gl_weights(alpha: float, count: int) -> np.ndarray:
    """First `count` Grunwald-Letnikov weights: w_0 = 1,
    w_j = w_{j-1} * (j - 1 - alpha)/j, one cumulative product (the factor
    equals 1 - (alpha+1)/j, rearranged so w_1 = -alpha holds exactly in
    floating point).  count must be an integer >= 1."""
    if not np.isfinite(alpha):
        raise DomainError(f"alpha must be finite, got {alpha}")
    if not isinstance(count, numbers.Integral) or count < 1:
        raise DomainError(f"count must be an integer >= 1, got {count!r}")
    j = np.arange(1.0, count)
    return np.cumprod(np.concatenate(([1.0], (j - 1.0 - alpha) / j)))


def gl_derivative(samples, alpha: float, h: float) -> np.ndarray:
    """Grunwald-Letnikov fractional difference on a uniform grid.

    out[k] = h^(-alpha) * sum_{j=0..k} w_j * samples[k-j].  The lower
    terminal is the time of samples[0].  At alpha = 1 this is the first
    backward difference.  A non-finite sample raises DomainError.  Where
    h^(-alpha) itself passes floating range (a subnormal h, say), it is
    applied as two factors h^(-alpha/2), so a result within range is
    still returned.  A result past range raises OverflowError_, and so
    does a factor h^(-alpha/2) past range.
    """
    if not 0.0 < h < np.inf:
        raise DomainError(f"h must be positive and finite, got {h}")
    f = np.asarray(samples, dtype=float)
    if not np.isfinite(f).all():
        raise DomainError("samples must be finite")
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
    with np.errstate(over="ignore", invalid="ignore"):  # a result past range raises below
        try:
            out *= math.pow(h, -alpha)  # raises on overflow for numpy floats too
        except OverflowError:  # h^(-alpha) alone passes range; the result may not
            half = np.float64(h) ** (-0.5 * alpha)  # inf where it too passes range
            out *= half
            out *= half
    if not np.isfinite(out).all():
        raise OverflowError_(f"the GL difference at h = {h} passes floating range")
    return out[:, 0] if squeeze else out


def residual_nev(problem: CauchyProblem, traj: Trajectory) -> float:
    """The Caputo residual nev = max_{k >= 2} ||D^alpha x(t_k) - A x(t_k)||,
    in max-abs over components, on the grid t_k = t0 + k h, k = 1..K.

    D^alpha is the Grunwald-Letnikov difference of x - x0 with the lower
    terminal t0, where x(t0) = x0 gives a zero sample, and alpha is
    problem.order.value.  The first point t0 + h is skipped: the GL error
    of a solution that behaves like u^alpha near t0 peaks there.  Raises
    NonUniformGridError unless traj.times is t0 + h, ..., t0 + K h, to
    1e-9 h plus the rounding of the times (`solver._time_rounding`).
    """
    times, states = traj.times, traj.states
    K = len(times)
    if K < 2:
        raise DomainError("need at least 2 grid points")
    if states.shape[1] != problem.n:
        raise DomainError(
            f"trajectory has {states.shape[1]} components but A is "
            f"{problem.n}x{problem.n}"
        )
    h = float(times[-1] - problem.t0) / K
    off = np.max(np.abs(times - problem.t0 - h * np.arange(1, K + 1)))
    if not h > 0.0 or off > 1e-9 * h + _time_rounding(problem.t0, times[0], times[-1]):
        raise NonUniformGridError("residual metric requires the grid t0 + h, ..., t0 + K h")
    shifted = np.vstack((np.zeros((1, problem.n)), states - problem.x0))
    D = gl_derivative(shifted, problem.order.value, h)[1:]
    return float(np.max(np.abs(D - states @ problem.A.T)[1:]))


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
    """What Matignon's criterion, asymptotically stable iff |arg lambda| >
    alpha pi/2 for every eigenvalue, says for every alpha in (0, 1] at once:
    every Re lambda < 0 (or no eigenvalue), asymptotically stable; a real
    lambda > 0, unstable; anything else depends on alpha, inconclusive.
    eigenvalues is the sorted spectrum, None when it is non_real."""
    A = as_matrix(A)
    tol = IMAG_TOL_SCALE * (1.0 + max_abs(A))
    w = np.linalg.eigvals(A)
    non_real = max_abs(w.imag) > tol
    lams = None if non_real else sorted(float(x) for x in w.real)
    if all(lam.real < -tol for lam in w):
        verdict = Verdict.ASYMPTOTICALLY_STABLE
    elif any(lam.real > tol and abs(lam.imag) <= tol for lam in w):
        verdict = Verdict.UNSTABLE
    else:
        verdict = Verdict.INCONCLUSIVE
    return StabilityVerdict(verdict, lams, non_real)


@dataclass
class StudyRow:
    alpha: float
    sup_deviation: float
    nev: float


def convergence_study(a: float, alphas, t0: float, t_end: float, h: float,
                      backend: Quadrature | str = SolveConfig.quadrature,
                      x0: float = 1.0,
                      order_tol: float = DEFAULT_TOL) -> list[StudyRow]:
    """Solve D^alpha x = a x over the alpha ladder; per alpha record the
    sup deviation from x0 e^{a (t-t0)} and the residual metric nev.

    Grid: the points t0 + h, t0 + 2h, ..., t0 + K h of `solver._step_grid`
    after t0, which stop at t_end: K = floor((t_end - t0)/h + 1e-9), up to
    the rounding of the times.  A grid past MAX_GRID_POINTS raises
    DomainError before it is built.  For alpha < 1, nev is `residual_nev`.  At
    alpha = 1 it uses the exact differentiator of an exponential,
    x_k ln(x_k / x_{k-1}) / h, so nev reflects pure roundoff, matching the
    ladder's machine-zero bottom row; like `residual_nev` it skips t0 + h.
    backend is parsed, and defaults, as `SolveConfig.quadrature` is, and a
    bad one raises DomainError before any solve.
    """
    backend = Quadrature(backend)
    alphas = list(alphas)
    if not alphas:
        raise DomainError("alphas must be nonempty")
    if not (0.0 < h < np.inf and -np.inf < t0 < t_end < np.inf):
        raise DomainError(f"need finite h > 0 and t0 < t_end, got {h}, {t0}, {t_end}")
    grid = _step_grid(float(t0), float(t_end), float(h))[1:]
    if len(grid) < 2:
        raise DomainError("grid must contain at least 2 points")
    solve = solve_scalar_rect if backend is Quadrature.RECTANGLE else solve_scalar_quad

    rows: list[StudyRow] = []
    for alpha in alphas:
        order = approximate_order(alpha, tol=order_tol)
        traj = solve(a, x0, order, t0, grid)
        x = traj.values
        sup_dev = float(np.max(np.abs(x - x0 * np.exp(a * (grid - t0)))))
        if order.q == 0:
            with np.errstate(divide="raise", invalid="raise"):
                try:
                    D = x[1:] * np.log(x[1:] / x[:-1]) / h
                except FloatingPointError as exc:
                    raise DomainError(
                        "the alpha = 1 residual needs nonzero, constant-sign samples"
                    ) from exc
            nev = float(np.max(np.abs(D - a * x[1:])))
        else:
            nev = residual_nev(CauchyProblem(A=[[a]], x0=[x0], t0=t0, order=order), traj)
        rows.append(StudyRow(alpha=alpha, sup_deviation=sup_dev, nev=nev))
    return rows
