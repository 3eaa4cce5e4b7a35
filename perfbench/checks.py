"""Checkers for the program's outputs.

Every checker returns None when the output passes and a one-line reason
when it fails.  They compare against values computed apart from the
program (`reference.py`) or test a property the method must have;
`selfcheck.py` feeds each of them corrupted results to show that it can
fail.
"""

from __future__ import annotations

import csv
import io
import math
from fractions import Fraction

import numpy as np

#: Agreement required at alpha = 1, where every path is exp or expm.
EXACT_RTOL = 1e-12
#: Simpson tolerance, relative to the largest |x| of the trajectory: 100
#: times the README's "~1e-12 at alpha = 1/3 and 3/7" (q <= 3) and "~1e-9
#: near alpha = 1".
SIMPSON_RTOL_LOW_Q = 1e-10
SIMPSON_RTOL_HIGH_Q = 1e-7
#: `specfun.mittag_leffler` documents absolute error <= 1e-10 for |z| <= 5.
CLOSED_FORM_ATOL = 1e-10
CLOSED_FORM_MAX_ABS_Z = 5.0
#: The rectangle rule's documented rate O(h^(1/(2q+1))) is asymptotic; at
#: h = 0.01 the lambda = -2, alpha = 3/7 rung is still 12% short of it.
RECT_RATE_SLACK = 1.15
#: Similarity covariance of the matrix rectangle solve:
#: solve(S L S^-1) = S solve(L), from per-eigenvalue scalar solves.
COVARIANCE_RTOL = 1e-10


def order_q(alpha: Fraction) -> int:
    return (alpha.denominator - 1) // 2


def simpson_rtol(alpha: Fraction) -> float:
    q = order_q(alpha)
    if q == 0:
        return EXACT_RTOL
    return SIMPSON_RTOL_LOW_Q if q <= 3 else SIMPSON_RTOL_HIGH_Q


def close(got, ref, rtol: float, what: str) -> str | None:
    """|got - ref| <= rtol * max|ref| everywhere."""
    got = np.asarray(got, dtype=float)
    ref = np.asarray(ref, dtype=float)
    if got.shape != ref.shape:
        return f"{what}: shape {got.shape}, expected {ref.shape}"
    if not np.isfinite(got).all():
        return f"{what}: non-finite values"
    err = float(np.max(np.abs(got - ref)))
    bound = rtol * float(np.max(np.abs(ref)))
    if not err <= bound:
        return f"{what}: max error {err:.3e} exceeds {bound:.3e} (rtol {rtol:g})"
    return None


def closed_form(got, ref, z, y0: float) -> str | None:
    """Absolute error <= CLOSED_FORM_ATOL * |y0| where |z| is in the
    documented domain of the series."""
    got = np.asarray(got, dtype=float)
    ref = np.asarray(ref, dtype=float)
    inside = np.abs(np.asarray(z, dtype=float)) <= CLOSED_FORM_MAX_ABS_Z
    with np.errstate(invalid="ignore"):
        err = np.abs(got - ref)[inside]
    worst = float(np.max(err)) if err.size else 0.0
    bound = CLOSED_FORM_ATOL * abs(y0)
    if not worst <= bound:
        return f"closed form: max error {worst:.3e} for |z| <= 5 exceeds {bound:.3e}"
    return None


def rect_rate(err_fine: float, err_coarse: float, q: int) -> str | None:
    """The error at fixed times shrinks, when h shrinks fourfold, at least
    as fast as the documented O(h^(1/(2q+1))), up to RECT_RATE_SLACK."""
    if not (math.isfinite(err_fine) and math.isfinite(err_coarse)):
        return "rectangle: non-finite error"
    ratio = err_fine / err_coarse if err_coarse > 0.0 else math.inf
    rate = 4.0 ** (-1.0 / (2 * q + 1))
    if not (ratio < 1.0 and ratio <= RECT_RATE_SLACK * rate):
        return (f"rectangle: error ratio {ratio:.3f} for h/4h, documented rate "
                f"{rate:.3f} (allowed {min(1.0, RECT_RATE_SLACK * rate):.3f})")
    return None


def ladder(sup_dev, ref_sup_dev, alphas, y0: float, h: float, nev_simpson, ref_nev,
           nev_rect=None) -> str | None:
    """Simpson rows of the alpha ladder.  The sup-deviation from
    y0 e^(lam u) matches the reference, strictly decreases, and is 0 at
    alpha = 1.  The Caputo residual nev matches the residual of the
    reference solution to within the Grunwald-Letnikov operator norm
    (<= 2 h^-alpha) times the Simpson tolerance, and is roundoff at
    alpha = 1.  With the rectangle's nev, Simpson's must not exceed it
    below alpha = 1."""
    sup_dev = [float(s) for s in sup_dev]
    if len(sup_dev) != len(alphas):
        return f"ladder: {len(sup_dev)} rows, expected {len(alphas)}"
    for s, r, a in zip(sup_dev, ref_sup_dev, alphas):
        tol = simpson_rtol(a) * abs(y0)
        if not abs(s - r) <= tol:
            return f"ladder: sup_dev {s:.6e} at alpha {a}, reference {r:.6e} (tol {tol:.1e})"
    if any(not b < a for a, b in zip(sup_dev, sup_dev[1:])):
        return f"ladder: sup_dev not strictly decreasing: {sup_dev}"
    if not abs(sup_dev[-1]) <= 1e-14 * abs(y0):
        return f"ladder: sup_dev {sup_dev[-1]:.3e} at alpha = 1, expected 0"
    for a, s, r in zip(alphas, nev_simpson, ref_nev):
        tol = (2.0 * h ** -float(a) * simpson_rtol(a) if a < 1 else EXACT_RTOL) * abs(y0)
        if not abs(s - r) <= tol:
            return f"ladder: nev {s:.6e} at alpha {a}, reference {r:.6e} (tol {tol:.1e})"
    if nev_rect is not None:
        for a, s, r in zip(alphas, nev_simpson, nev_rect):
            if a < 1 and not s <= r:
                return f"ladder: Simpson nev {s:.3e} exceeds rectangle nev {r:.3e} at alpha {a}"
    return None


def parse_csv(data: bytes, header: list[str]) -> tuple[np.ndarray | None, str | None]:
    """Rows of a fraclode CSV as a float array, after checking the header."""
    try:
        rows = list(csv.reader(io.StringIO(data.decode("utf-8"))))
        if rows[0] != header:
            return None, f"csv header {rows[0]}, expected {header}"
        return np.array([[float(x) for x in row] for row in rows[1:]]), None
    except (UnicodeDecodeError, ValueError, IndexError) as exc:
        return None, f"csv unreadable: {exc}"


def identical(data: bytes, first: bytes) -> str | None:
    if data != first:
        return "output differs from the first run's bytes"
    return None
