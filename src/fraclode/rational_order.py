"""Odd-over-odd rational representation of the fractional order.

Every solution formula in this package is parameterized by alpha written
as (2p+1)/(2q+1): odd numerator over odd denominator, which is what makes
real odd roots of negative eigenvalues available downstream.  p = q = 0
encodes alpha = 1.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NoRepresentationError, OrderDomainError

DEFAULT_TOL = 1e-6
DEFAULT_Q_MAX = 10**5


@dataclass(frozen=True)
class FractionalOrder:
    """alpha together with its odd-rational approximation (2p+1)/(2q+1)."""

    alpha: float
    p: int
    q: int
    achieved_error: float

    def __post_init__(self) -> None:
        if self.p < 0 or self.q < 0:
            raise OrderDomainError(f"p and q must be nonnegative, got p={self.p}, q={self.q}")
        if self.p > self.q:
            raise OrderDomainError(
                f"p={self.p} > q={self.q} would put (2p+1)/(2q+1) above 1"
            )

    @property
    def value(self) -> float:
        """The represented order (2p+1)/(2q+1)."""
        return (2 * self.p + 1) / (2 * self.q + 1)

    @property
    def numerator(self) -> int:
        return 2 * self.p + 1

    @property
    def denominator(self) -> int:
        return 2 * self.q + 1


#: approximate_order screens q in numpy blocks [0, 16), then [q_lo, 2 q_lo),
#: at most MAX_BLOCK wide: small q stay cheap, and the memory of a block
#: is bounded.
MAX_BLOCK = 2 ** 16
#: Covers the roundings between the screen of `_screened_qs` and the
#: errors of `_best_at`: a few times 2^-53 (see `_screened_qs`).
ROUNDING_SLACK = 4e-15


def _best_at(alpha: float, q: int) -> tuple[float, int] | None:
    """(error, p) of the best odd numerator over 2q+1: smaller error, then
    smaller p; None when no odd numerator lies in [1, 2q+1]."""
    den = 2 * q + 1
    m0 = 2 * round((alpha * den - 1.0) / 2.0) + 1  # odd integer nearest alpha*den
    best: tuple[float, int] | None = None
    for m in (m0 - 2, m0, m0 + 2):
        if m < 1 or m > den:
            continue
        cand = (abs(m / den - alpha), (m - 1) // 2)
        if best is None or cand < best:
            best = cand
    return best


def _screened_qs(alpha: float, tol: float, q_max: int):
    """The q in 0..q_max, in increasing order, at which some odd m might
    lie within tol of alpha*(2q+1): a cheap screen before `_best_at`.

    An odd m is within tol when |m - alpha (2q+1)| <= tol (2q+1), so the
    distance of x = alpha (q + 1/2) - 1/2 to the nearest integer must be
    at most tol (q + 1/2).  That distance changes by no more than the
    float error of x, and the float errors of `_best_at` are below 2^-52;
    ROUNDING_SLACK covers both, so no q that `_best_at` accepts is skipped.
    A tol above 1 screens as 1, which keeps half_den * bound finite: q = 0
    passes either way, and `_best_at` accepts it, since |1 - alpha| < 1.
    """
    bound = min(tol, 1.0) + ROUNDING_SLACK
    q_lo, width = 0, 16
    while q_lo <= q_max:
        q_hi = min(q_lo + width, q_max + 1)
        half_den = np.arange(q_lo + 0.5, q_hi, 1.0)  # q + 1/2
        x = alpha * half_den
        x -= 0.5
        x -= np.rint(x)
        np.abs(x, out=x)
        half_den *= bound
        for i in np.flatnonzero(x <= half_den).tolist():
            yield q_lo + i
        q_lo, width = q_hi, min(q_hi, MAX_BLOCK)


def approximate_order(alpha: float, tol: float = DEFAULT_TOL,
                      q_max: int = DEFAULT_Q_MAX) -> FractionalOrder:
    """Smallest-q odd/odd rational (2p+1)/(2q+1) within tol of alpha.

    Scans q upward; for each q the optimal odd numerator is the odd integer
    nearest alpha*(2q+1), so the per-q check is O(1).  Among numerator ties
    the smaller error wins, then the smaller p.  A screen skips the q at
    which no odd numerator can pass (see `_screened_qs`).
    """
    if not (0.0 < alpha <= 1.0):
        raise DomainError(f"alpha must lie in (0, 1], got {alpha}")
    if not 0.0 < tol < np.inf:
        raise DomainError(f"tol must be positive and finite, got {tol}")
    if not isinstance(q_max, numbers.Integral) or q_max < 1:
        raise DomainError(f"q_max must be an integer >= 1, got {q_max!r}")

    for q in _screened_qs(alpha, tol, q_max):
        best = _best_at(alpha, q)
        if best is not None and best[0] <= tol:
            return FractionalOrder(alpha=alpha, p=best[1], q=q, achieved_error=best[0])

    raise NoRepresentationError(
        f"no (2p+1)/(2q+1) within {tol} of alpha={alpha} for q <= {q_max}"
    )
