"""Reference values made apart from the program; nothing here imports fraclode.

The scalar Caputo solution of D^alpha y = lam * y, y(t0) = y0, is
y0 * E_alpha(lam * u^alpha), u = t - t0.  `mittag_leffler` sums the power
series of E_alpha at a working precision raised by the size of its
largest term, so alternating cancellation cannot eat the guard digits:
at alpha = 1/3 and z = -5 that term is about 1e53, and a fixed 40 digits
would return noise.  `talbot` inverts the Laplace transform
s^(alpha-1) / (s^alpha - lam) instead, an independent route used to
cross-check a subsample of the series values.
"""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath as mp
import numpy as np

#: Digits kept beyond the ones cancellation can consume.
GUARD_DIGITS = 30


def _peak_log10(alpha: float, absz: float) -> tuple[float, int]:
    """log10 of the largest series term |z|^k / Gamma(alpha k + 1), and the
    index past which the terms only fall."""
    if absz == 0.0:
        return 0.0, 0
    lz = math.log(absz)
    best, k = 0.0, 0
    while True:
        k += 1
        log_term = k * lz - math.lgamma(alpha * k + 1.0)
        best = max(best, log_term)
        if alpha * k + 1.0 > 2.0 * absz ** (1.0 / alpha) + 2.0 and log_term < best:
            return best / math.log(10.0), k


def mittag_leffler(alpha: Fraction, zs) -> list[mp.mpf]:
    """E_alpha(z) for every z in zs (mpf or float), as mpf values accurate
    to about GUARD_DIGITS significant digits.

    The coefficients 1/Gamma(alpha k + 1) are shared by all z and computed
    once at the precision the largest |z| needs.
    """
    zs = list(zs)
    if not zs:
        return []
    a = float(alpha)
    big = max(abs(float(z)) for z in zs)
    peak, k_fall = _peak_log10(a, big)
    dps = GUARD_DIGITS + max(0, math.ceil(peak)) + 5
    with mp.workdps(dps):
        alpha_mp = mp.mpf(alpha.numerator) / alpha.denominator
        tol = mp.mpf(10) ** (-GUARD_DIGITS - 2)
        coefs: list[mp.mpf] = []
        out = []
        for z in zs:
            z = mp.mpf(z)
            total, power, k = mp.mpf(0), mp.mpf(1), 0
            while True:
                if k == len(coefs):
                    coefs.append(1 / mp.gamma(alpha_mp * k + 1))
                term = coefs[k] * power
                total += term
                if k >= k_fall and abs(term) <= tol * abs(total):
                    break
                power *= z
                k += 1
            out.append(+total)
    return out


def talbot(alpha: Fraction, lam: float, u, dps: int = 40) -> mp.mpf:
    """E_alpha(lam u^alpha) as the inverse Laplace transform of
    s^(alpha-1) / (s^alpha - lam), by mpmath's Talbot contour."""
    with mp.workdps(dps):
        a = mp.mpf(alpha.numerator) / alpha.denominator
        lam_mp = mp.mpf(lam)
        return +mp.invertlaplace(lambda s: s ** (a - 1) / (s**a - lam_mp),
                                 mp.mpf(u), method="talbot")


def caputo_scalar(alpha: Fraction, lam: float, us) -> list[mp.mpf]:
    """E_alpha(lam u^alpha) for each u in us (the solution for y0 = 1)."""
    with mp.workdps(GUARD_DIGITS + 10):
        a = mp.mpf(alpha.numerator) / alpha.denominator
        zs = [mp.mpf(lam) * mp.mpf(u) ** a for u in us]
    return mittag_leffler(alpha, zs)


def odd_order(alpha: float, tol: float) -> Fraction:
    """The order the CLI documents it solves: the smallest-q (2p+1)/(2q+1)
    within tol of alpha, the smaller error winning ties."""
    q = 0
    while True:
        den = 2 * q + 1
        near = 2 * math.floor(alpha * den / 2) + 1  # an odd neighbour of alpha * den
        best = min((abs(num / den - alpha), num)
                   for num in (near - 2, near, near + 2) if 1 <= num <= den)
        if best[0] <= tol:
            return Fraction(best[1], den)
        q += 1


def caputo_residual(alpha: float, lam: float, h: float, x, x0: float,
                    skip: int = 1) -> float:
    """max_k |D^alpha (x - x0)(t_k) - lam x(t_k)|, k >= skip, with the
    Grunwald-Letnikov difference on t_k = t0 + k h and the zero sample at
    t0 prepended: the residual `convergence_study` reports for alpha < 1."""
    x = np.asarray(x, dtype=float)
    f = np.concatenate(([0.0], x - x0))
    w = np.ones(len(f))
    for j in range(1, len(f)):
        w[j] = w[j - 1] * (1.0 - (alpha + 1.0) / j)
    d = np.convolve(w, f)[:len(f)][1:] * h ** (-alpha)
    return float(np.max(np.abs(d - lam * x)[skip:]))
