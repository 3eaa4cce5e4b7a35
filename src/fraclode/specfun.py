"""Scalar special functions: real odd-root powers, the generalized
factorial, the m-sections of the exponential, and a series-based
Mittag-Leffler evaluator.

The Mittag-Leffler routine is deliberately independent of the solver
modules; it serves as the reference oracle the solution formulas are
checked against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NonConvergenceError, PoleError, ZeroEigenvalueError

#: Documented accuracy domain for the plain power series.
ML_MAX_ABS_Z = 30.0
#: Largest rounding bound 2^-52 sum_k |t_k| of the series, relative to
#: max(1, |result|), that mittag_leffler accepts.
ML_ROUNDING_TOL = 1e-10
#: Past the peak term, exp_section stops once a term is below SECTION_TOL
#: times the partial sum.
SECTION_TOL = 1e-17


def rpow(x: float, num: int, den: int) -> float:
    """Real odd-root power sign(x)^num * |x|^(num/den).

    den must be a positive odd integer, which makes the den-th real root
    well defined for negative x.  This is the mechanism that keeps the
    whole solution representation real for negative eigenvalues.
    """
    if den <= 0 or den % 2 == 0:
        raise DomainError(f"den must be a positive odd integer, got {den}")
    if x == 0.0:
        if num < 0:
            raise ZeroEigenvalueError("negative power of zero")
        return 1.0 if num == 0 else 0.0
    mag = abs(x) ** (num / den)
    if x < 0.0 and num % 2 != 0:
        return -mag
    return mag


def gfact(z: float) -> float:
    """Generalized factorial z! = Gamma(z+1) for real z.

    Raises PoleError when z+1 is a nonpositive integer.
    """
    w = z + 1.0
    if w <= 0.0 and w == math.floor(w):
        raise PoleError(f"gamma pole at z+1 = {w}")
    try:
        return math.gamma(w)
    except (ValueError, OverflowError) as exc:
        raise PoleError(f"gamma({w}) failed: {exc}") from exc


def exp_section(x, m: int, j: int) -> np.ndarray:
    """H_{m,j}(x) = sum_{i>=0} x^(j+m*i) / (j+m*i)!, elementwise.

    The j-th m-section of the exponential: sum_j H_{m,j} = exp and
    H_{1,0} = exp.  Every term is bounded by X^k / k!, X = max|x|, a
    bound that rises until k passes X; summation stops only past that
    peak, once each element's last term is below SECTION_TOL times its
    partial sum.  For x < 0 and m > 1 the terms cancel, so the absolute
    accuracy there is about 1e-16 * e^|x|.
    """
    x = np.asarray(x, dtype=float)
    if m < 1 or not 0 <= j < m:
        raise DomainError(f"need m >= 1 and 0 <= j < m, got m={m}, j={j}")
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


@dataclass(frozen=True)
class MLParams:
    """Series parameters for E_{alpha,beta}."""

    alpha: float
    beta: float = 1.0
    max_terms: int = 200_000
    tail_tol: float = 1e-16

    def __post_init__(self) -> None:
        if self.alpha <= 0.0:
            raise DomainError(f"alpha must be positive, got {self.alpha}")
        if self.tail_tol <= 0.0:
            raise DomainError(f"tail_tol must be positive, got {self.tail_tol}")
        if self.max_terms < 1:
            raise DomainError(f"max_terms must be >= 1, got {self.max_terms}")


def _series_term(z: float, k: int, g: float) -> float:
    """z^k / Gamma(g), routed through logs to dodge intermediate overflow."""
    if g <= 0.0 and g == math.floor(g):
        return 0.0  # 1/Gamma vanishes at poles
    if z == 0.0:
        return 1.0 / math.gamma(g) if k == 0 else 0.0
    sign = -1.0 if (z < 0.0 and k % 2 == 1) else 1.0
    if g < 171.0:
        denom = math.gamma(g)  # finite here: poles were screened above
        if denom == 0.0:
            return 0.0
        mag = math.exp(k * math.log(abs(z)) - math.log(abs(denom)))
        return sign * math.copysign(mag, denom)
    # Large g: Gamma overflows but the term itself is tame.
    return sign * math.exp(k * math.log(abs(z)) - math.lgamma(g))


def mittag_leffler(params: MLParams, z: float) -> float:
    """E_{alpha,beta}(z) by direct series with exact (fsum) accumulation.

    The sum is exact, so the error is the terms' own rounding, about
    2^-52 sum_k |t_k|.  For z >= 0 every term is positive and that is a
    relative error of a few ulps.  For z < 0 the series alternates and
    sum_k |t_k| = E_{alpha,beta}(|z|) can exceed the result by many orders
    of magnitude; whenever 2^-52 sum_k |t_k| > ML_ROUNDING_TOL *
    max(1, |result|), NonConvergenceError is raised instead of returning
    a value.  A returned value is thus accurate to a small multiple of
    1e-10 absolute, relative once |result| > 1: against 80-digit mpmath
    on z in [-15, 0] the worst error was 3.5e-10, at alpha = 1.  At
    beta = 1 this admits z < 0 while E_alpha(|z|) stays below about 4e5:
    |z| up to about 13 at alpha = 1, 3.5 at alpha = 1/2, 2.9 at 3/7 and
    2.25 at 1/3.  Arguments with |z| > 30 are rejected.
    """
    if abs(z) > ML_MAX_ABS_Z:
        raise DomainError(f"|z| = {abs(z)} outside documented domain |z| <= {ML_MAX_ABS_Z}")
    terms: list[float] = []
    prev = math.inf
    for k in range(params.max_terms):
        g = params.alpha * k + params.beta
        try:
            t = _series_term(z, k, g)
        except OverflowError as exc:
            raise NonConvergenceError(
                f"series term k={k} for E_({params.alpha},{params.beta})({z}) "
                f"overflowed double range"
            ) from exc
        terms.append(t)
        at = abs(t)
        # Terms decay super-geometrically once alpha*k+beta outgrows |z|;
        # requiring two consecutive small, shrinking terms bounds the tail.
        if at <= params.tail_tol and at <= prev and k > 0:
            result = math.fsum(terms)
            rounding = math.fsum(abs(t) for t in terms) * 2.0 ** -52
            if rounding > ML_ROUNDING_TOL * max(1.0, abs(result)):
                raise NonConvergenceError(
                    f"series for E_({params.alpha},{params.beta})({z}) cancels: "
                    f"rounding bound {rounding:.3e} exceeds "
                    f"{ML_ROUNDING_TOL:g} * max(1, |{result:.6g}|)"
                )
            return result
        prev = at
    raise NonConvergenceError(
        f"series for E_({params.alpha},{params.beta})({z}) did not reach "
        f"tail_tol={params.tail_tol} within {params.max_terms} terms"
    )
