"""Scalar special functions: the m-sections of the exponential and a
series-based Mittag-Leffler evaluator.

The Mittag-Leffler routine is deliberately independent of the solver
modules; it serves as the reference oracle the solution formulas are
checked against.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NonConvergenceError

#: Documented accuracy domain for the plain power series.
ML_MAX_ABS_Z = 30.0
#: Largest rounding bound 2^-52 sum_k |t_k| of the series, relative to
#: max(1, |result|), that mittag_leffler accepts.
ML_ROUNDING_TOL = 1e-10
#: Past the peak term, exp_section stops once a term is below SECTION_TOL
#: times the partial sum.
SECTION_TOL = 1e-17


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
        if not (math.isfinite(self.alpha) and math.isfinite(self.beta)):
            raise DomainError(f"alpha and beta must be finite, got {self.alpha}, {self.beta}")
        if self.alpha <= 0.0:
            raise DomainError(f"alpha must be positive, got {self.alpha}")
        if self.tail_tol <= 0.0:
            raise DomainError(f"tail_tol must be positive, got {self.tail_tol}")
        if self.max_terms < 1:
            raise DomainError(f"max_terms must be >= 1, got {self.max_terms}")


def mittag_leffler(params: MLParams, z: float | np.ndarray) -> float | np.ndarray:
    """E_{alpha,beta}(z) by direct series with exact (fsum) accumulation.

    z is a scalar (returns a float) or an array (returns one of its
    shape).  A non-finite z, alpha or beta raises DomainError before any
    series work.  The terms' Gamma values are tabled once per call:
    lg[k] = log|Gamma(alpha k + beta)|, +inf at a pole, where 1/Gamma is
    0, and sign[k], the sign of Gamma, kept as is for z > 0 and times
    (-1)^k for z < 0.  Each term of a point z != 0 is then
    sign[k] * exp(k log|z| - lg[k]), summed in order until two
    consecutive terms are small and shrinking, a pole's zero term not
    counting as small; z = 0 gives 1/Gamma(beta).  A term that overflows,
    or whose Gamma over- or underflows off a pole, raises
    NonConvergenceError.  The first point that fails raises.

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
    zs = np.asarray(z, dtype=float)
    finite = np.isfinite(zs)
    if not finite.all():
        raise DomainError(f"z must be finite, got {zs[~finite][0]}")
    table: tuple[list[float], list[float], list[float]] = ([], [], [])
    out = [_ml_point(params, zi, table) for zi in zs.ravel().tolist()]
    return out[0] if zs.ndim == 0 else np.array(out).reshape(zs.shape)


#: log|Gamma| tabled where Gamma overflows or underflows to 0 off a pole:
#: exp(k log|z| - it) overflows in turn, so the term raises only if a
#: point's series reaches it.
_GAMMA_OUT_OF_RANGE = -sys.float_info.max


def _grow(params: MLParams, table: tuple) -> None:
    """Double the table (lg, sign for z > 0, sign for z < 0), 64 entries at first."""
    lg, pos, neg = table
    for k in range(len(lg), max(64, 2 * len(lg))):
        g = params.alpha * k + params.beta
        log_gamma, sign = math.inf, 1.0
        try:
            if g <= 0.0 and g == math.floor(g):
                pass  # a pole: 1/Gamma is 0
            elif g < 171.0:
                denom = math.gamma(g)
                if denom == 0.0:  # underflow: 1/Gamma is out of range
                    raise OverflowError
                log_gamma, sign = math.log(abs(denom)), math.copysign(1.0, denom)
            else:  # Gamma overflows but the term itself is tame
                log_gamma = math.lgamma(g)
        except OverflowError:
            log_gamma = _GAMMA_OUT_OF_RANGE
        lg.append(log_gamma)
        pos.append(sign)
        neg.append(-sign if k % 2 else sign)


def _ml_point(params: MLParams, z: float, table: tuple) -> float:
    """One point of mittag_leffler, summing the terms up to the stop."""
    if abs(z) > ML_MAX_ABS_Z:
        raise DomainError(f"|z| = {abs(z)} outside documented domain |z| <= {ML_MAX_ABS_Z}")
    terms = _ml_terms(params, z, table)
    if terms is None:
        raise NonConvergenceError(
            f"series for E_({params.alpha},{params.beta})({z}) did not reach "
            f"tail_tol={params.tail_tol} within {params.max_terms} terms"
        )
    result = math.fsum(terms)
    rounding = math.fsum(map(abs, terms)) * 2.0 ** -52
    if rounding > ML_ROUNDING_TOL * max(1.0, abs(result)):
        raise NonConvergenceError(
            f"series for E_({params.alpha},{params.beta})({z}) cancels: "
            f"rounding bound {rounding:.3e} exceeds "
            f"{ML_ROUNDING_TOL:g} * max(1, |{result:.6g}|)"
        )
    return result


def _ml_terms(params: MLParams, z: float, table: tuple) -> list[float] | None:
    """The series' terms up to and including the first that stops it, or
    None if max_terms is reached first; grows table as needed."""
    lg, pos, neg = table
    k = 0
    try:
        if z == 0.0:  # 1/Gamma(beta), then a zero term that stops the series
            g = params.beta
            denom = math.inf if g <= 0.0 and g == math.floor(g) else math.gamma(g)
            if denom == 0.0 or math.isinf(1.0 / denom):  # 1/Gamma out of range
                raise OverflowError
            return [1.0 / denom, 0.0] if params.max_terms > 1 else None
        log_z = math.log(abs(z))
        sign = neg if z < 0.0 else pos
        exp, tail_tol = math.exp, params.tail_tol
        terms: list[float] = []
        prev = math.inf
        while k < params.max_terms:
            if k == len(lg):
                _grow(params, table)
            end = min(len(lg), params.max_terms)
            for k in range(k, end):
                t = sign[k] * exp(k * log_z - lg[k])
                terms.append(t)
                at = abs(t)
                # Terms decay super-geometrically once alpha*k+beta outgrows
                # |z|; requiring two consecutive small, shrinking terms
                # bounds the tail.  A pole's zero term bounds nothing.
                if at <= tail_tol and at <= prev and k > 0 and lg[k] != math.inf:
                    return terms
                prev = at
            k = end
    except OverflowError as exc:
        raise NonConvergenceError(
            f"series term k={k} for E_({params.alpha},{params.beta})({z}) "
            f"overflowed double range"
        ) from exc
    return None
