"""Solution formulas for the Caputo problem D^alpha x = A x, x(t0) = x0,
with alpha = m/n = (2p+1)/(2q+1).

The solution is x(t) = E_alpha(A u^alpha) x0, u = t - t0.  The
multiplication formula E_alpha(z) = (1/m) sum_l E_{1/n}(w_l z^(1/m)) over
the m-th roots of unity w_l turns it into real arithmetic:

    x(t) = H_{m,0}(u M) x0
           + sum_{k=1}^{n-1} A^(k/m) / Gamma(k/n)
             * int_0^u d^(k/n - 1) H_{m,j_k}((u - d) M) dd x0,

where M = A^(n/m) with real odd roots, H_{m,j}(x) = sum_i x^(j+mi)/(j+mi)!
is the j-th m-section of exp (H_{1,0} = exp), and j_k is the least j >= 0
with k + n j = 0 (mod m).  Every integral vanishes at u = 0, so
x(t0) = x0.  A term whose bound |c_k| (n/k) u^(k/n) X^j e^X / j!
(X = |r| u_max) is below TERM_TOL * e^X is dropped; near alpha = 1 this
keeps a few dozen of the n - 1 terms.

One evaluator, `_modes`, computes E_alpha(lambda_i u^alpha) from this
formula for all eigenvalues lambda_i at once: the scalar solvers pass
one eigenvalue, and `solve_matrix` passes the spectrum of A and
recomposes with its eigenvectors.  `_terms` gives the kept terms as
arrays: a = k/n, j = j_k and coef[term, i].  Two numerical backends
evaluate the integrals (see `_modes`): the rectangle rule, the literal
left-endpoint Riemann sum on a uniform grid, kept as formulated so the
scheme itself is testable, slow O(h^(1/n)) convergence and all, with the
sections j sampled by stacked exp_section calls and convolved by FFT;
and "simpson" (the name of an earlier adaptive Simpson rule, kept for
the API and the CLI), Gauss–Jacobi rules of 16, 32, ..., 256 nodes,
applied until two successive ones agree to SIMPSON_TOL.  `SolveConfig`
parses its backend by `Quadrature(v)`, which takes a member or its
value, and its SIMPSON is every caller's default.

For q = 0 (alpha = 1) every backend degenerates to the classical matrix
exponential.  `scalar_closed_form` is the oracle: the Mittag-Leffler
series of y0 E_alpha(lambda u^alpha), checked against 50-digit mpmath
values in tests/fixtures/closed_form_reference.json.  Where that series
cancels (z = lambda u^alpha below about -2.25 at alpha = 1/3) it raises
NonConvergenceError rather than return a wrong value.

For lambda < 0 and p > 0 the sections grow like e^(|r| u cos(pi/m)) while
the solution decays, so the attainable absolute accuracy is about
2^-52 e^(|r| u).  Before any grid work a solve raises OverflowError_
where e^(|r| u) / alpha passes floating range and the solution (r > 0)
or the sections (m > 1) reach it, and the Simpson backend compares the
rounding floor, relative to the scale e^(|r| u cos(pi/m)), with
SIMPSON_TOL and raises QuadratureFailureError when it is larger
(lambda = -5 at alpha = 3/7, |r| u = 43; on t <= 1.01, every
lambda < -4.026).  Zero eigenvalues raise ZeroEigenvalueError.  Every
grid must be nonempty, finite and strictly increasing (`_check_grid`),
and a solve's grid must start strictly after t0 (`_check_times`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import (
    DomainError,
    NonConvergenceError,
    NonUniformGridError,
    OverflowError_,
    QuadratureFailureError,
    ZeroEigenvalueError,
)
from .linalg import as_matrix, eig_real_simple, expm, max_abs
from .quadrature import gauss_jacobi
from .rational_order import FractionalOrder
from .specfun import MLParams, exp_section, mittag_leffler

#: Simpson backend: successive Gauss–Jacobi rules must agree to this on
#: each integral relative to its bound e^(growth |r| u) (_jacobi_integral),
#: not to x: for lambda < 0 and m > 1 a solve that returns can be off by
#: far more than SIMPSON_TOL * max|x| (at alpha = 3/7, t <= 1.01: 1.8e-7 of
#: max|x| at lambda = -3.5, 7.3e-5 at -4, against mpmath).  Where the
#: rounding floor alone exceeds it, the solve raises at once.
SIMPSON_TOL = 1e-10
#: Convolution terms bounded below TERM_TOL * e^(|r| u_max) are dropped.
TERM_TOL = 1e-17
#: Rectangle backend: at most this many lattice nodes times eigenvalues.
MAX_LATTICE_SIZE = 10 ** 6
#: Most points a grid built from a step may have (`_step_count`).
MAX_GRID_POINTS = 10 ** 6
#: Gauss–Jacobi node counts of the Simpson backend: GJ_MIN_NODES, doubled
#: up to GJ_MAX_NODES.
GJ_MIN_NODES = 16
GJ_MAX_NODES = 256
#: Most elements of one exp_section call: (time, eigenvalue, node) triples
#: of the Simpson backend, (section, node, eigenvalue) ones of the rectangle.
SECTION_BLOCK_ELEMENTS = 2 ** 13
#: classical_exponential passes expm blocks of at most this many entries,
#: which bounds its Pade temporaries (about ten arrays of the block's size).
EXPM_BLOCK_ELEMENTS = 2 ** 13
#: solve_matrix rejects eigenvalues below this, relative to 1 + max|A|.
ZERO_EIG_TOL_SCALE = 1e-12
#: e^x overflows past x = LOG_MAX.
LOG_MAX = math.log(np.finfo(float).max)


class Quadrature(Enum):
    RECTANGLE = "rectangle"
    SIMPSON = "simpson"

    @classmethod
    def _missing_(cls, value):
        raise DomainError(f"backend must be one of {[q.value for q in cls]}, got {value!r}")


@dataclass(frozen=True)
class CauchyProblem:
    """The initial-value problem D^alpha x = A x, x(t0) = x0."""

    A: np.ndarray
    x0: np.ndarray
    t0: float
    order: FractionalOrder

    def __post_init__(self) -> None:
        A = as_matrix(self.A)
        x0 = np.asarray(self.x0, dtype=float).reshape(-1)
        if x0.shape[0] != A.shape[0]:
            raise DomainError(
                f"x0 has length {x0.shape[0]} but A is {A.shape[0]}x{A.shape[0]}"
            )
        if not np.isfinite(x0).all():
            raise DomainError("x0 entries must be finite")
        object.__setattr__(self, "t0", _finite("t0", float(self.t0)))
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "x0", x0)

    @property
    def n(self) -> int:
        return self.A.shape[0]


@dataclass(frozen=True)
class SolveConfig:
    """Evaluation grid and backend, a Quadrature member or its value."""

    grid: np.ndarray
    quadrature: Quadrature = Quadrature.SIMPSON

    def __post_init__(self) -> None:
        object.__setattr__(self, "grid", np.asarray(self.grid, dtype=float).reshape(-1))
        object.__setattr__(self, "quadrature", Quadrature(self.quadrature))


@dataclass
class Trajectory:
    """Sampled solution: states[k] = x(times[k])."""

    times: np.ndarray
    states: np.ndarray

    def __post_init__(self) -> None:
        self.times = _check_grid(self.times)
        self.states = np.asarray(self.states, dtype=float)
        if self.states.ndim == 1:
            self.states = self.states[:, None]
        if self.states.shape[0] != self.times.shape[0]:
            raise DomainError("states and times length mismatch")
        if not np.isfinite(self.states).all():
            raise OverflowError_("trajectory states overflowed floating range")

    @property
    def values(self) -> np.ndarray:
        """First component, convenient for scalar problems."""
        return self.states[:, 0]


def _finite(name: str, value: float) -> float:
    if not math.isfinite(value):
        raise DomainError(f"{name} must be finite, got {value}")
    return value


def _overflow_to_inf() -> np.errstate:
    """Where states are scaled by x0: an overflow gives inf or NaN states,
    without a RuntimeWarning, and Trajectory raises OverflowError_ on them."""
    return np.errstate(over="ignore", invalid="ignore")


def _check_grid(times) -> np.ndarray:
    """times as a float vector, which must be nonempty, finite and strictly increasing."""
    times = np.asarray(times, dtype=float).reshape(-1)
    if not (times.size and np.isfinite(times).all() and (np.diff(times) > 0.0).all()):
        raise DomainError("times must be nonempty, finite and strictly increasing")
    return times


def _check_times(times, t0: float) -> np.ndarray:
    """_check_grid's times, which must also lie after t0, within floating range of it."""
    times = _check_grid(times)
    if not (times[0] > _finite("t0", t0) and math.isfinite(float(times[-1]) - float(t0))):
        raise DomainError(f"grid must lie strictly after t0={t0}, within floating range "
                          f"of it (x(t0) = x0 is the given value)")
    return times


def _time_rounding(*ts: float) -> float:
    """A bound on the rounding of a time t0 + k h, and of a step between
    two of them, where ts hold the extremes: four ulps of 1 times the
    largest |t|."""
    return 4.0 * math.ulp(1.0) * float(max(map(abs, ts)))


def _step_count(start: float, end: float, step: float) -> int:
    """N, the steps of the grid start + step k, k = 0..N, that stops at end:
    N = floor((end - start)/step + 1e-9 + slack), which keeps a last point
    that rounding alone puts past end.  The slack is `_time_rounding` over
    step, at most half a step.  DomainError where the N + 1 points would
    exceed MAX_GRID_POINTS."""
    slack = min(0.5, _time_rounding(start, end) / step)
    steps = (end - start) / step + 1e-9 + slack  # inf past floating range
    if not steps < MAX_GRID_POINTS:
        raise DomainError(f"a grid of {steps + 1:.3g} points exceeds the limit of "
                          f"{MAX_GRID_POINTS}")
    return math.floor(steps)


def _step_grid(start: float, end: float, step: float) -> np.ndarray:
    """The points start + step k, k = 0..N, N = _step_count(start, end,
    step): the limit is checked before the grid is allocated."""
    return start + step * np.arange(_step_count(start, end, step) + 1)


def _rect_lattice(times: np.ndarray, t0: float,
                  n_eig: int = 1) -> tuple[float, np.ndarray]:
    """Step h and lattice indices k with times = t0 + k*h.

    The rectangle rule needs quadrature nodes at every t0 + sigma*h below
    each output time, so the output grid must sit on the t0-anchored
    uniform lattice (it need not start at t0 + h).  Both checks allow the
    rounding of the times (`_time_rounding`), which far from t = 0 can
    exceed 1e-9 h; the least step, which the checks take as h, carries it
    k-fold to t0 + k h.  Once the indices are known, the step returned is
    (t_K - t0)/k_K, which carries the rounding of one time spread over
    k_K steps.  A lattice whose size times n_eig exceeds MAX_LATTICE_SIZE
    raises DomainError before anything of that size is allocated.
    """
    rounding = _time_rounding(t0, times[0], times[-1])
    if len(times) > 1:
        diffs = np.diff(times)
        h = float(diffs.min())
        if np.abs(diffs - np.rint(diffs / h) * h).max() > 1e-9 * h + rounding:
            raise NonUniformGridError("rectangle backend requires a uniform grid step")
    else:
        h = float(times[0] - t0)
    ks = (times - t0) / h
    k_int = np.rint(ks).astype(int)
    if np.abs(ks - k_int).max() > 1e-6 + (ks[-1] + 1.0) * rounding / h or k_int.min() < 1:
        raise NonUniformGridError(
            "rectangle backend requires grid points on the lattice t0 + k*h, k >= 1"
        )
    k_last = int(k_int[-1])
    if k_last * n_eig > MAX_LATTICE_SIZE:
        raise DomainError(
            f"rectangle lattice of {k_last} nodes x {n_eig} eigenvalues "
            f"exceeds the limit of {MAX_LATTICE_SIZE}"
        )
    return float(times[-1] - t0) / k_last, k_int


def _fft_size(n: int) -> int:
    """Least 5-smooth integer >= n, a fast FFT length."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            p = p35
            while p < n:
                p *= 2
            best = min(best, p)
            p35 *= 3
        p5 *= 5
    return best


def _reduced(order: FractionalOrder) -> tuple[int, int]:
    """(m, n) = (2p+1, 2q+1) in lowest terms; the solution depends on alpha only."""
    m, n = order.numerator, order.denominator
    g = math.gcd(m, n)
    return m // g, n // g


def _terms(lams: np.ndarray, order: FractionalOrder, u_max: float
           ) -> tuple[int, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Numerator m, closer rates r_i = lambda_i^(n/m) and the kept terms k
    as arrays: a = k/n, j = j_k, coef[term, i] = lambda_i^(k/m) / Gamma(k/n).

    A term is kept when, for some eigenvalue, its bound
    |c| (n/k) u^(k/n) X^j e^X / j!, X = |r| u_max, is at least
    TERM_TOL * e^X.  Gamma(k/n) >= 1 on (0, 1], so the bound without the
    1/Gamma(k/n) in |c| is an upper bound.  In logs, that bound depends
    on lambda only through (k/m) log|lambda| + j log X, with
    log X = (n/m) log|lambda| + log u_max, which rises with |lambda|.  So
    it screens the n - 1 candidates at the largest |lambda| alone, and
    the keep test, per eigenvalue, and log Gamma are taken of the
    survivors only.  An empty spectrum keeps no term.
    """
    m, n = _reduced(order)
    sign, mag = np.where(lams < 0.0, -1.0, 1.0), np.abs(lams)
    r = sign * mag ** (n / m)  # n is odd
    log_fact = np.concatenate(([0.0], np.cumsum(np.log(np.arange(1, m)))))  # log j!
    log_tol, log_u = math.log(TERM_TOL), math.log(u_max)
    n_inv = pow(n, -1, m)
    # log X; where X underflows to 0, j log X is 0 at j = 0 and -inf past it.
    x = np.abs(r) * u_max
    log_x = np.log(x, out=np.full(x.shape, -np.inf), where=x > 0.0)
    log_mag = np.log(mag)

    def log_bound(k, log_gamma, eig):
        """log of the bound per (term, eigenvalue) of the eigenvalues in the
        slice eig; 0 for log_gamma drops 1/Gamma."""
        a, j = (k / n)[:, None], ((-k * n_inv) % m)[:, None]
        return ((np.log(n / k)[:, None] - log_gamma + a * log_u - log_fact[j])
                + (k / m)[:, None] * log_mag[eig]
                + np.where(j > 0, np.maximum(j, 1) * log_x[eig], 0.0))

    k = np.arange(1, n)
    if lams.size:  # the screen; its margin covers the rounding of the two sums' orders
        top = int(mag.argmax())
        k = k[log_bound(k, 0.0, slice(top, top + 1))[:, 0] >= log_tol - 1e-9]
    log_gamma = np.array(list(map(math.lgamma, (k / n).tolist())))  # log Gamma(k/n)
    kept = (log_bound(k, log_gamma[:, None], slice(None)) >= log_tol).any(axis=1)
    k, log_gamma = k[kept], log_gamma[kept]
    coef = sign ** k[:, None] * mag ** (k[:, None] / m) / np.exp(log_gamma[:, None])
    return m, r, k / n, (-k * n_inv) % m, coef


def _jacobi_integral(ru: np.ndarray, m: int, j: int, a: float,
                     scale: np.ndarray) -> np.ndarray:
    """I[k, i] = int_0^1 s^(a-1) H_{m,j}(ru[k, i] (1 - s)) ds, ru = r_i u_k.

    Gauss–Jacobi rules of GJ_MIN_NODES, twice as many, ... nodes are
    applied until two successive ones agree: max |a (I_2N - I_N)| / scale
    <= SIMPSON_TOL.  With the factor a, SIMPSON_TOL bounds the error of
    int_0^1 H_{m,j}(r u (1 - v^(1/a))) dv / scale, v = s^a, a per-term
    integral of size at most 1.  Past GJ_MAX_NODES it raises
    QuadratureFailureError.  Times go through exp_section in blocks of
    at most SECTION_BLOCK_ELEMENTS (time, eigenvalue, node) triples, each
    block's integrals written in place into one array.
    """
    prev = None
    n_nodes = GJ_MIN_NODES
    while n_nodes <= GJ_MAX_NODES:
        s, w = gauss_jacobi(a, n_nodes)
        step = max(1, SECTION_BLOCK_ELEMENTS // (ru.shape[1] * n_nodes))
        cur = np.empty(ru.shape)
        for i in range(0, len(ru), step):
            cur[i:i + step] = exp_section(ru[i:i + step, :, None] * (1.0 - s), m, j) @ w
        if prev is not None and a * (np.abs(cur - prev) / scale).max() <= SIMPSON_TOL:
            return cur
        prev = cur
        n_nodes *= 2
    raise QuadratureFailureError(
        f"Gauss–Jacobi rules did not settle to {SIMPSON_TOL:g} within {GJ_MAX_NODES} nodes "
        f"(a = {a:.6g}, section ({m}, {j}), |r| u = {np.max(np.abs(ru[-1])):.3g})"
    )


def _check_rounding_floor(x: float, m: int, growth: float) -> None:
    """Raise QuadratureFailureError when no rule can meet SIMPSON_TOL at X = x.

    For r < 0 and m > 1 the sections reach e^X, X = |r| u, while their
    bound, the scale of SIMPSON_TOL, is e^(growth X): summing them leaves
    a rounding floor of 2^-52 e^((1 - growth) X) relative to that scale.
    """
    if (1.0 - growth) * x - 52.0 * math.log(2.0) > math.log(SIMPSON_TOL):
        raise QuadratureFailureError(
            f"the sections' rounding floor 2^-52 e^({(1.0 - growth) * x:.3g}) exceeds "
            f"SIMPSON_TOL = {SIMPSON_TOL:g} (section order {m}, |r| u = {x:.3g})"
        )


def _check_range(lams: np.ndarray, order: FractionalOrder, u_max: float) -> None:
    """Raise OverflowError_ where r = lambda^(n/m) or X = |r| u_max passes
    floating range, or e^X / alpha does and the solution (r > 0) or the
    sections (m > 1) grow like it.  In logs, which cannot overflow."""
    m, n = _reduced(order)
    log_big = math.log(LOG_MAX + math.log(m / n))  # e^X / alpha overflows past it
    for lam in lams.tolist():
        log_r = (n / m) * math.log(abs(lam))
        log_x = log_r + math.log(u_max)
        if log_r > LOG_MAX or log_x > (log_big if lam > 0.0 or m > 1 else LOG_MAX):
            raise OverflowError_(f"r = lambda^({n}/{m}) or e^(|r| u) passes floating "
                                 f"range: |r| u_max = e^{log_x:.4g} at lambda = {lam}")


def _modes(lams, order: FractionalOrder, t0: float, times,
           quadrature: Quadrature) -> tuple[np.ndarray, np.ndarray]:
    """Checked times and Y[k, i] = E_alpha(lambda_i u_k^alpha), u = t - t0,
    for every eigenvalue at once.

    Rectangle: on the lattice u = k h each integral becomes
    h * sum_{sigma=0}^{k-1} ((k - sigma) h)^(a-1) H_{m,j}(r sigma h).
    The terms of one section j convolve the same samples, so their
    kernels are summed, sum_i c_i (d h)^(a_i - 1).  The sections are
    sampled by stacked exp_section calls of at most SECTION_BLOCK_ELEMENTS
    elements.  Each block raises d h to its own terms' a - 1 only: the
    kernel of a one-term section is its power times its coefficients,
    all of the block's in one multiply, and a section of several terms
    sums them by a matmul.  Each block takes one real FFT of its samples
    and one of its kernels, and adds its spectra, in order of j, in one
    pass before the one inverse transform.

    Simpson: the substitution d = u s moves the weak singularity into
    the weight,

        int_0^u d^(a-1) H_{m,j}(r (u-d)) dd
            = u^a * int_0^1 s^(a-1) H_{m,j}(r u (1 - s)) ds,

    and what is left is entire in s, so Gauss–Jacobi rules for the
    weight s^(a-1) converge spectrally.  Along the path from r u to 0,
    |H_{m,j}| <= e^(growth |r| u) with growth = 1 for r > 0 and
    max(0, cos(pi/m)) for r < 0; integrals are divided by that bound,
    which makes SIMPSON_TOL relative to their scale (see _jacobi_integral).

    For q = 0 there are no integrals: once the range is checked, Y is
    exp(lambda u), with no term table and no grid work.
    """
    times = _check_times(times, t0)
    lams = np.asarray(lams, dtype=float)
    if not np.isfinite(lams).all():
        raise DomainError(f"eigenvalues must be finite, got {lams[~np.isfinite(lams)][0]}")
    if np.any(lams == 0.0):
        raise ZeroEigenvalueError("lambda = 0 is outside the solver's domain")
    u = times - t0
    _check_range(lams, order, float(u[-1]))
    if order.q == 0:  # r = lambda, and H_{1,0} is exp
        return times, np.exp(np.outer(u, lams))
    m, r, a, j, coef = _terms(lams, order, float(u[-1]))
    growth = max(0.0, math.cos(math.pi / m))  # of H_{m,j}(r u) for r < 0
    if quadrature is Quadrature.SIMPSON and m > 1 and np.any(r < 0.0):
        _check_rounding_floor(float(np.max(-r[r < 0.0])) * float(u[-1]), m, growth)
    ru = np.outer(u, r)
    Y = exp_section(ru, m, 0)
    # |H_{m,j}(r u)| <= e^(rate u) for u >= 0
    rate = np.abs(r) * np.where(r > 0.0, 1.0, growth)
    if quadrature is Quadrature.SIMPSON:
        scale = np.exp(np.outer(u, rate))
        for a_k, j_k, c in zip(a.tolist(), j.tolist(), coef):
            integral = _jacobi_integral(ru, m, j_k, a_k, scale)
            Y += c * u[:, None] ** a_k * integral
    else:  # RECTANGLE, the other member
        h, k_idx = _rect_lattice(times, t0, len(lams))
        k_max = int(k_idx[-1])
        size = _fft_size(2 * k_max - 1)  # no wrap-around in the first k_max
        nodes = np.outer(h * np.arange(k_max), r)  # r (t_sigma - t0)
        dist = h * np.arange(1, k_max + 1)[:, None]
        # Samples and kernel are damped by e^(-rate sigma h), which damps
        # the sum at k by e^(-rate k h): the FFT's rounding, relative to
        # the largest damped sum, then stays relative to each x(t_k).
        damp = np.exp(-np.outer(h * np.arange(k_max + 1), rate))  # sigma = 0..k_max
        spectrum = np.zeros((size // 2 + 1, len(lams)), dtype=complex)
        members: dict[int, list[int]] = {}  # the terms of each section j, in order
        for t, j_t in enumerate(j.tolist()):
            members.setdefault(j_t, []).append(t)
        sections = sorted(members)
        step = max(1, SECTION_BLOCK_ELEMENTS // max(1, nodes.size))
        for start in range(0, len(sections), step):
            block = sections[start:start + step]
            samples = exp_section(nodes, m, block)
            samples *= damp[:-1]
            # kernel[d-1, i] = sum over the section of c_i (d h)^(a-1), d = 1..k_max
            kernels = np.empty(samples.shape)
            lone = [g for g, j_g in enumerate(block) if len(members[j_g]) == 1]
            if lone:  # c (d h)^(a-1) of every one-term section, in one multiply
                t = [members[block[g]][0] for g in lone]
                kernels[lone] = (dist ** (a[t] - 1.0)).T[:, :, None] * coef[t, None]
            for g, j_g in enumerate(block):
                idx = members[j_g]
                if len(idx) > 1:  # its terms summed by a matmul
                    kernels[g] = dist ** (a[idx] - 1.0) @ coef[idx]
            kernels *= damp[1:]
            for product in np.fft.rfft(samples, size, axis=1) * np.fft.rfft(kernels, size, axis=1):
                spectrum += product  # in the order of j
        # full[k-1] = sum_{sigma=0}^{k-1} kernel[k-1-sigma] H(r sigma h)
        full = np.fft.irfft(spectrum, size, axis=0)[:k_max]
        Y += h * full[k_idx - 1] * np.exp(np.outer(h * k_idx, rate))
    return times, Y


def _solve_scalar(lam: float, y0: float, order: FractionalOrder, t0: float, times,
                  quadrature: Quadrature) -> Trajectory:
    times, Y = _modes([lam], order, t0, times, quadrature)
    with _overflow_to_inf():
        states = _finite("y0", y0) * Y
    return Trajectory(times=times, states=states)


def solve_scalar_rect(lam: float, y0: float, order: FractionalOrder, t0: float,
                      grid) -> Trajectory:
    """Left-endpoint rectangle discretization of the scalar solution (see _modes)."""
    return _solve_scalar(lam, y0, order, t0, grid, Quadrature.RECTANGLE)


def solve_scalar_quad(lam: float, y0: float, order: FractionalOrder, t0: float,
                      times) -> Trajectory:
    """Scalar solution with each integral by Gauss–Jacobi quadrature (see _modes)."""
    return _solve_scalar(lam, y0, order, t0, times, Quadrature.SIMPSON)


def scalar_closed_form(lam: float, y0: float, order: FractionalOrder, t0: float,
                       times) -> Trajectory:
    """Mittag-Leffler closed form y(t) = y0 * E_alpha(lambda (t-t0)^alpha).

    alpha = (2p+1)/(2q+1), evaluated by the series in `mittag_leffler`:
    one call on the whole grid, which shares one Gamma table, and raises
    at the first time whose series fails.  Independent of both quadrature
    backends; it is the oracle they are checked against.
    """
    if _finite("lambda", lam) == 0.0:
        raise ZeroEigenvalueError("lambda = 0 is outside the solver's domain")
    times = _check_times(times, t0)
    alpha = order.value
    # Python floats: a z past floating range is inf, which mittag_leffler rejects.
    z = np.array([lam * (t - t0) ** alpha for t in times.tolist()])
    y0 = _finite("y0", y0)
    out = mittag_leffler(MLParams(alpha=alpha), z)
    with _overflow_to_inf():
        states = y0 * out[:, None]
    return Trajectory(times=times, states=states)


def classical_exponential(problem: CauchyProblem, times) -> Trajectory:
    """x(t) = expm((t - t0) A) x0 -- the alpha = 1 reference, on any
    increasing grid.  Where (t - t0) A can pass floating range it raises
    OverflowError_ before any grid work; expm raises it where exp does."""
    times = _check_grid(times)
    u_max = max(abs(float(times[0]) - problem.t0), abs(float(times[-1]) - problem.t0))
    if not math.isfinite(u_max * len(problem.A) * max_abs(problem.A)):
        raise OverflowError_(f"(t - t0) A passes floating range at |t - t0| = {u_max:.3g}")
    u = times - problem.t0
    # Each block of times is reduced to states at once, so the memory
    # beyond the (K, n) result is one block's, not a (K, n, n) stack.
    states = np.empty((len(u), len(problem.x0)))
    step = max(1, EXPM_BLOCK_ELEMENTS // max(1, problem.A.size))
    for i in range(0, len(u), step):
        E = expm(u[i:i + step, None, None] * problem.A)
        with _overflow_to_inf():
            states[i:i + step] = E @ problem.x0
    return Trajectory(times=times, states=states)


def solve_matrix(problem: CauchyProblem, config: SolveConfig) -> Trajectory:
    """Matrix-form solution on the configured grid.

    For q = 0 it reduces to the classical exponential and places no
    spectral requirement on A.  For q > 0 the sections H_{m,j}(u M) and
    the powers A^(k/m) are spectral functions of A, so the solve requires
    distinct real nonzero eigenvalues: with T^{-1} A T = diag(lambda),
    x(t) = T diag(E_alpha(lambda_i u^alpha)) T^{-1} x0.
    """
    if problem.order.q == 0:
        return classical_exponential(problem, _check_times(config.grid, problem.t0))
    dec = eig_real_simple(problem.A)
    if np.any(np.abs(dec.lambdas) < ZERO_EIG_TOL_SCALE * (1.0 + max_abs(problem.A))):
        raise ZeroEigenvalueError(
            "A has a (near-)zero eigenvalue, which is outside the solver's domain"
        )
    times, Y = _modes(dec.lambdas, problem.order, problem.t0, config.grid,
                      config.quadrature)
    with _overflow_to_inf():
        states = (Y * (dec.T_inv @ problem.x0)) @ dec.T.T
    return Trajectory(times=times, states=states)


#: Alias of solve_matrix, kept only because perfbench/tracing.py wraps it.
solve_via_spectral = solve_matrix


def solve_limit_perturbation(problem: CauchyProblem, B, eps_ladder,
                             config: SolveConfig) -> tuple[Trajectory, list[float]]:
    """Solve A + eps B down a decreasing eps ladder; return the smallest-eps
    trajectory plus sup-norm gaps between consecutive rungs.

    Every rung must have a simple real spectrum (ComplexSpectrum otherwise);
    gaps that grow along the ladder raise NonConvergence.
    """
    eps_ladder = [float(e) for e in eps_ladder]
    if len(eps_ladder) < 2:
        raise DomainError("eps ladder needs at least two rungs")
    if not all(0.0 < e < math.inf for e in eps_ladder):
        raise DomainError("eps ladder entries must be positive and finite")
    if any(b >= a for a, b in zip(eps_ladder, eps_ladder[1:])):
        raise DomainError("eps ladder must be strictly decreasing")
    B = as_matrix(B)
    if B.shape != problem.A.shape:
        raise DomainError(f"B shape {B.shape} does not match A shape {problem.A.shape}")

    trajs = []
    for eps in eps_ladder:
        A_eps = problem.A + eps * B
        if problem.order.q == 0:  # solve_matrix decomposes only for q > 0
            eig_real_simple(A_eps)  # raises ComplexSpectrum / ClusteredSpectrum
        rung = CauchyProblem(A=A_eps, x0=problem.x0, t0=problem.t0,
                             order=problem.order)
        trajs.append(solve_matrix(rung, config))

    gaps = [
        float(np.max(np.abs(a.states - b.states)))
        for a, b in zip(trajs, trajs[1:])
    ]
    for g_prev, g_next in zip(gaps, gaps[1:]):
        if g_next > g_prev:
            raise NonConvergenceError(
                f"perturbation ladder gaps grew: {g_prev:.3e} -> {g_next:.3e}"
            )
    return trajs[-1], gaps
