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
recomposes with its eigenvectors.  Two numerical backends evaluate the
integrals:

* Rectangle: the literal left-endpoint Riemann discretization of the
  weakly singular integrals on a uniform grid -- kept exactly as
  formulated so the scheme itself is testable, slow O(h^(1/n))
  convergence and all.  Terms with the same section j share the sampled
  H_{m,j}, so their kernels add up to one collapsed kernel per section
  and eigenvalue, which one FFT convolution applies: O(K log K) per
  section on K lattice points, not O(K^2) per term.
* Simpson (the name of an earlier adaptive Simpson rule, kept for the
  API and the CLI): the substitution d = u s turns each integral into
  u^(k/n) int_0^1 s^(k/n - 1) H_{m,j}(r u (1 - s)) ds, whose integrand
  is entire in s, and Gauss–Jacobi rules for the weight s^(k/n - 1) of
  16, 32, ..., 256 nodes are applied until two successive ones agree.

For q = 0 (alpha = 1) every backend degenerates to the classical matrix
exponential.  `scalar_closed_form` is the oracle: the Mittag-Leffler
series of y0 E_alpha(lambda u^alpha), checked against 50-digit mpmath
values in tests/fixtures/closed_form_reference.json.  Where that series
cancels (z = lambda u^alpha below about -2.25 at alpha = 1/3) it raises
NonConvergenceError rather than return a wrong value.

For lambda < 0 and p > 0 the sections grow like e^(|r| u cos(pi/m)) while
the solution decays, so the attainable absolute accuracy is about
2^-52 e^(|r| u).  Before any grid work the Simpson backend compares that
floor, relative to the scale e^(|r| u cos(pi/m)), with simpson_tol and
raises QuadratureFailureError when it is larger (lambda = -5 at
alpha = 3/7, |r| u = 43; on t <= 1.01, every lambda < -4.026).  Zero
eigenvalues raise ZeroEigenvalueError and grids must start strictly
after t0; both are kept API contracts.
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
from .linalg import (
    EXPM_BLOCK_ELEMENTS,
    ZERO_EIG_TOL_SCALE,
    as_matrix,
    eig_real_simple,
    expm,
    max_abs,
    perturb_to_simple,
)
from .quadrature import gauss_jacobi
from .rational_order import FractionalOrder
from .specfun import MLParams, exp_section, mittag_leffler

DEFAULT_SIMPSON_TOL = 1e-10
#: Convolution terms bounded below TERM_TOL * e^(|r| u_max) are dropped.
TERM_TOL = 1e-17
#: Rectangle backend: at most this many lattice nodes times eigenvalues.
MAX_LATTICE_SIZE = 10 ** 6
#: Gauss–Jacobi node counts of the Simpson backend: GJ_MIN_NODES, doubled
#: up to GJ_MAX_NODES; at most GJ_BLOCK_ELEMENTS (time, eigenvalue, node)
#: triples at once.
GJ_MIN_NODES = 16
GJ_MAX_NODES = 256
GJ_BLOCK_ELEMENTS = 2 ** 13


class Quadrature(Enum):
    RECTANGLE = "rectangle"
    SIMPSON = "simpson"


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
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "x0", x0)

    @property
    def n(self) -> int:
        return self.A.shape[0]


@dataclass
class SolveConfig:
    """Evaluation grid and backend selection."""

    grid: np.ndarray
    quadrature: Quadrature = Quadrature.RECTANGLE
    #: Simpson backend: successive Gauss–Jacobi rules must agree to this,
    #: in max-abs over the grid, on each integral divided by its bound
    #: e^(growth |r| u) and multiplied by k/n (see _jacobi_integral).  It
    #: is relative to that bound, not to x: for lambda < 0 and m > 1 the
    #: bound exceeds |x| by up to e^(growth |r| u), and a solve that
    #: returns can be off by far more than simpson_tol * max|x|.  At
    #: alpha = 3/7 on t <= 1.01 the error is 1.8e-7 of max|x| at
    #: lambda = -3.5 and 7.3e-5 at lambda = -4, against mpmath.  Where
    #: the rounding floor alone exceeds it, the solve raises at once.
    simpson_tol: float = DEFAULT_SIMPSON_TOL

    def __post_init__(self) -> None:
        self.grid = np.asarray(self.grid, dtype=float).reshape(-1)
        if self.grid.size == 0:
            raise DomainError("grid must be nonempty")
        if self.simpson_tol <= 0.0:
            raise DomainError(f"simpson_tol must be positive, got {self.simpson_tol}")


@dataclass
class Trajectory:
    """Sampled solution: states[k] = x(times[k])."""

    times: np.ndarray
    states: np.ndarray

    def __post_init__(self) -> None:
        self.times = np.asarray(self.times, dtype=float).reshape(-1)
        self.states = np.asarray(self.states, dtype=float)
        if self.states.ndim == 1:
            self.states = self.states[:, None]
        if self.states.shape[0] != self.times.shape[0]:
            raise DomainError("states and times length mismatch")
        if len(self.times) > 1 and np.min(np.diff(self.times)) <= 0.0:
            raise DomainError("times must be strictly increasing")
        if not np.isfinite(self.states).all():
            raise OverflowError_("trajectory states overflowed floating range")

    @property
    def values(self) -> np.ndarray:
        """First component, convenient for scalar problems."""
        return self.states[:, 0]


def _check_times(times, t0: float) -> np.ndarray:
    times = np.asarray(times, dtype=float).reshape(-1)
    if times.size == 0:
        raise DomainError("empty time grid")
    if len(times) > 1 and np.min(np.diff(times)) <= 0.0:
        raise DomainError("times must be strictly increasing")
    if times[0] <= t0:
        raise DomainError(
            f"grid must start strictly after t0={t0} (x(t0) = x0 is the given value)"
        )
    return times


def _rect_lattice(times: np.ndarray, t0: float,
                  n_eig: int = 1) -> tuple[float, np.ndarray]:
    """Step h and lattice indices k with times = t0 + k*h.

    The rectangle rule needs quadrature nodes at every t0 + sigma*h below
    each output time, so the output grid must sit on the t0-anchored
    uniform lattice (it need not start at t0 + h).  A lattice whose size
    times n_eig exceeds MAX_LATTICE_SIZE raises DomainError before
    anything of that size is allocated.
    """
    if len(times) > 1:
        diffs = np.diff(times)
        h = float(np.min(diffs))
        if np.max(np.abs(diffs - np.round(diffs / h) * h)) > 1e-9 * h:
            raise NonUniformGridError("rectangle backend requires a uniform grid step")
    else:
        h = float(times[0] - t0)
    ks = (times - t0) / h
    k_int = np.round(ks).astype(int)
    if np.max(np.abs(ks - k_int)) > 1e-6 or np.min(k_int) < 1:
        raise NonUniformGridError(
            "rectangle backend requires grid points on the lattice t0 + k*h, k >= 1"
        )
    if int(k_int[-1]) * n_eig > MAX_LATTICE_SIZE:
        raise DomainError(
            f"rectangle lattice of {int(k_int[-1])} nodes x {n_eig} eigenvalues "
            f"exceeds the limit of {MAX_LATTICE_SIZE}"
        )
    return h, k_int


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
    m, n = 2 * order.p + 1, 2 * order.q + 1
    g = math.gcd(m, n)
    return m // g, n // g


@dataclass(frozen=True)
class _Term:
    """One convolution term c_i * int_0^u d^(a-1) H_{m,j}(r_i (u-d)) dd."""

    a: float  # k/n
    j: int  # least j >= 0 with k + n*j = 0 (mod m)
    coef: np.ndarray  # lambda_i^(k/m) / Gamma(k/n), one per eigenvalue


def _terms(lams: np.ndarray, order: FractionalOrder,
           u_max: float) -> tuple[int, np.ndarray, list[_Term]]:
    """Numerator m, closer rates r_i = lambda_i^(n/m) and the kept terms
    k = 1..n-1, each with one coefficient per eigenvalue.

    A term is kept when, for some eigenvalue, its bound
    |c| (n/k) u^(k/n) X^j e^X / j!, X = |r| u_max, is at least
    TERM_TOL * e^X.  Gamma(k/n) >= 1 on (0, 1], so the bound without the
    1/Gamma(k/n) in |c| is an upper bound: it screens the candidates, and
    log Gamma is taken of the survivors only.
    """
    if np.any(lams == 0.0):
        raise ZeroEigenvalueError("lambda = 0 is outside the solver's domain")
    m, n = _reduced(order)
    sign, mag = np.where(lams < 0.0, -1.0, 1.0), np.abs(lams)
    r = sign * mag ** (n / m)  # n is odd
    log_fact = np.concatenate(([0.0], np.cumsum(np.log(np.arange(1, m)))))  # log j!
    log_tol = math.log(TERM_TOL)
    n_inv = pow(n, -1, m)

    def log_bound(k, log_gamma):
        """log of the bound per (term, eigenvalue); 0 for log_gamma drops 1/Gamma."""
        a, j = k / n, (-k * n_inv) % m
        return ((np.log(n / k) - log_gamma + a * math.log(u_max) - log_fact[j])[:, None]
                + np.outer(k / m, np.log(mag)) + np.outer(j, np.log(np.abs(r) * u_max)))

    k = np.arange(1, n)
    # The margin covers the rounding of the two sums' different orders.
    k = k[np.any(log_bound(k, 0.0) >= log_tol - 1e-9, axis=1)]
    log_gamma = np.array(list(map(math.lgamma, (k / n).tolist())))  # log Gamma(k/n)
    kept = np.any(log_bound(k, log_gamma) >= log_tol, axis=1)
    k, log_gamma = k[kept], log_gamma[kept]
    a, j = k / n, (-k * n_inv) % m
    coef = sign ** k[:, None] * mag ** (k[:, None] / m) / np.exp(log_gamma[:, None])
    return m, r, [_Term(a=float(a_), j=int(j_), coef=c) for a_, j_, c in zip(a, j, coef)]


def _jacobi_integral(ru: np.ndarray, m: int, j: int, a: float,
                     scale: np.ndarray, tol: float) -> np.ndarray:
    """I[k, i] = int_0^1 s^(a-1) H_{m,j}(ru[k, i] (1 - s)) ds, ru = r_i u_k.

    Gauss–Jacobi rules of GJ_MIN_NODES, twice as many, ... nodes are
    applied until two successive ones agree: max |a (I_2N - I_N)| / scale
    <= tol.  With the factor a, tol bounds the error of
    int_0^1 H_{m,j}(r u (1 - v^(1/a))) dv / scale, v = s^a, a per-term
    integral of size at most 1.  Past GJ_MAX_NODES it raises
    QuadratureFailureError.  Times go through exp_section in blocks of
    at most GJ_BLOCK_ELEMENTS (time, eigenvalue, node) triples.
    """
    prev = None
    n_nodes = GJ_MIN_NODES
    while n_nodes <= GJ_MAX_NODES:
        s, w = gauss_jacobi(a, n_nodes)
        step = max(1, GJ_BLOCK_ELEMENTS // (ru.shape[1] * n_nodes))
        cur = np.concatenate([exp_section(ru[i:i + step, :, None] * (1.0 - s), m, j) @ w
                              for i in range(0, len(ru), step)])
        if prev is not None and a * np.max(np.abs(cur - prev) / scale) <= tol:
            return cur
        prev = cur
        n_nodes *= 2
    raise QuadratureFailureError(
        f"Gauss–Jacobi rules did not settle to {tol:g} within {GJ_MAX_NODES} nodes "
        f"(a = {a:.6g}, section ({m}, {j}), |r| u = {np.max(np.abs(ru[-1])):.3g})"
    )


def _check_rounding_floor(x: float, m: int, growth: float, tol: float) -> None:
    """Raise QuadratureFailureError when no rule can meet tol at X = x.

    For r < 0 and m > 1 the sections reach e^X, X = |r| u, while their
    bound, the scale of simpson_tol, is e^(growth X): summing them leaves
    a rounding floor of 2^-52 e^((1 - growth) X) relative to that scale.
    """
    if (1.0 - growth) * x - 52.0 * math.log(2.0) > math.log(tol):
        raise QuadratureFailureError(
            f"the sections' rounding floor 2^-52 e^({(1.0 - growth) * x:.3g}) exceeds "
            f"simpson_tol = {tol:g} (section order {m}, |r| u = {x:.3g})"
        )


def _modes(lams, order: FractionalOrder, t0: float, times, quadrature: Quadrature,
           simpson_tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Checked times and Y[k, i] = E_alpha(lambda_i u_k^alpha), u = t - t0,
    for every eigenvalue at once.

    Rectangle: on the lattice u = k h each integral becomes
    h * sum_{sigma=0}^{k-1} ((k - sigma) h)^(a-1) H_{m,j}(r sigma h).
    The terms of one section j convolve the same samples, so their
    kernels are summed, sum_i c_i (d h)^(a_i - 1), and each section costs
    one real FFT convolution per eigenvalue; the spectra of all sections
    are added before the one inverse transform.

    Simpson: the substitution d = u s moves the weak singularity into
    the weight,

        int_0^u d^(a-1) H_{m,j}(r (u-d)) dd
            = u^a * int_0^1 s^(a-1) H_{m,j}(r u (1 - s)) ds,

    and what is left is entire in s, so Gauss–Jacobi rules for the
    weight s^(a-1) converge spectrally.  Along the path from r u to 0,
    |H_{m,j}| <= e^(growth |r| u) with growth = 1 for r > 0 and
    max(0, cos(pi/m)) for r < 0; integrals are divided by that bound,
    which makes simpson_tol relative to their scale (see _jacobi_integral).

    For q = 0 there are no integrals and Y = exp(lambda u) exactly.
    """
    if quadrature is Quadrature.SIMPSON and simpson_tol <= 0.0:
        raise DomainError(f"simpson_tol must be positive, got {simpson_tol}")
    times = _check_times(times, t0)
    lams = np.asarray(lams, dtype=float)
    u = times - t0
    m, r, terms = _terms(lams, order, float(u[-1]))
    growth = max(0.0, math.cos(math.pi / m))  # of H_{m,j}(r u) for r < 0
    if quadrature is Quadrature.SIMPSON and m > 1 and np.any(r < 0.0):
        _check_rounding_floor(float(np.max(-r[r < 0.0])) * float(u[-1]), m, growth,
                              simpson_tol)
    ru = np.outer(u, r)
    Y = exp_section(ru, m, 0)
    # |H_{m,j}(r u)| <= e^(rate u) for u >= 0
    rate = np.abs(r) * np.where(r > 0.0, 1.0, growth)
    if quadrature is Quadrature.RECTANGLE and order.q > 0:
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
        for j in sorted({term.j for term in terms}):
            group = [term for term in terms if term.j == j]
            # kernel[d-1, i] = sum over the group of c_i (d h)^(a-1), d = 1..k_max
            kernel = dist ** np.array([t.a - 1.0 for t in group]) @ np.array(
                [t.coef for t in group])
            spectrum += (np.fft.rfft(exp_section(nodes, m, j) * damp[:-1], size, axis=0)
                         * np.fft.rfft(kernel * damp[1:], size, axis=0))
        # full[k-1] = sum_{sigma=0}^{k-1} kernel[k-1-sigma] H(r sigma h)
        full = np.fft.irfft(spectrum, size, axis=0)[:k_max]
        Y += h * full[k_idx - 1] * np.exp(np.outer(h * k_idx, rate))
    elif quadrature is Quadrature.SIMPSON:
        scale = np.exp(np.outer(u, rate))
        for term in terms:
            integral = _jacobi_integral(ru, m, term.j, term.a, scale, simpson_tol)
            Y += term.coef * u[:, None] ** term.a * integral
    return times, Y


def solve_scalar_rect(lam: float, y0: float, order: FractionalOrder, t0: float,
                      grid) -> Trajectory:
    """Left-endpoint rectangle discretization of the scalar solution (see _modes)."""
    times, Y = _modes([lam], order, t0, grid, Quadrature.RECTANGLE, DEFAULT_SIMPSON_TOL)
    return Trajectory(times=times, states=y0 * Y)


def solve_scalar_quad(lam: float, y0: float, order: FractionalOrder, t0: float,
                      times, simpson_tol: float = DEFAULT_SIMPSON_TOL) -> Trajectory:
    """Scalar solution with each integral by Gauss–Jacobi quadrature (see _modes)."""
    times, Y = _modes([lam], order, t0, times, Quadrature.SIMPSON, simpson_tol)
    return Trajectory(times=times, states=y0 * Y)


def scalar_closed_form(lam: float, y0: float, order: FractionalOrder, t0: float,
                       times, tail_tol: float = 1e-16) -> Trajectory:
    """Mittag-Leffler closed form y(t) = y0 * E_alpha(lambda (t-t0)^alpha).

    alpha = (2p+1)/(2q+1), evaluated by the series in `mittag_leffler`.
    Independent of both quadrature backends; it is the oracle they are
    checked against.
    """
    if lam == 0.0:
        raise ZeroEigenvalueError("lambda = 0 is outside the solver's domain")
    times = _check_times(times, t0)
    params = MLParams(alpha=order.value, tail_tol=tail_tol)
    out = np.array([y0 * mittag_leffler(params, lam * (t - t0) ** order.value)
                    for t in times])
    return Trajectory(times=times, states=out[:, None])


def classical_exponential(problem: CauchyProblem, times) -> Trajectory:
    """x(t) = expm((t - t0) A) x0 -- the alpha = 1 reference."""
    times = np.asarray(times, dtype=float).reshape(-1)
    if times.size == 0:
        raise DomainError("empty time grid")
    if len(times) > 1 and np.min(np.diff(times)) <= 0.0:
        raise DomainError("times must be strictly increasing")
    u = times - problem.t0
    # Each block of times is reduced to states at once, so the memory
    # beyond the (K, n) result is one block's, not a (K, n, n) stack.
    states = np.empty((len(u), len(problem.x0)))
    step = max(1, EXPM_BLOCK_ELEMENTS // max(1, problem.A.size))
    for i in range(0, len(u), step):
        states[i:i + step] = expm(u[i:i + step, None, None] * problem.A) @ problem.x0
    return Trajectory(times=times, states=states)


def solve_matrix(problem: CauchyProblem, config: SolveConfig) -> Trajectory:
    """Matrix-form solution on the configured grid.

    For q = 0 it reduces to the classical exponential and places no
    spectral requirement on A.  For q > 0 the sections H_{m,j}(u M) and
    the powers A^(k/m) are spectral functions of A, so the solve requires
    distinct real nonzero eigenvalues: with T^{-1} A T = diag(lambda),
    x(t) = T diag(E_alpha(lambda_i u^alpha)) T^{-1} x0.
    """
    times = _check_times(config.grid, problem.t0)
    if problem.order.q == 0:
        return classical_exponential(problem, times)
    dec = eig_real_simple(problem.A)
    if np.min(np.abs(dec.lambdas)) < ZERO_EIG_TOL_SCALE * (1.0 + max_abs(problem.A)):
        raise ZeroEigenvalueError(
            "A has a (near-)zero eigenvalue, which is outside the solver's domain"
        )
    times, Y = _modes(dec.lambdas, problem.order, problem.t0, times, config.quadrature,
                      config.simpson_tol)
    return Trajectory(times=times, states=(Y * (dec.T_inv @ problem.x0)) @ dec.T.T)


#: Alias of solve_matrix, kept for callers of the older name.
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
    if any(e <= 0.0 for e in eps_ladder):
        raise DomainError("eps ladder entries must be positive")
    if any(b >= a for a, b in zip(eps_ladder, eps_ladder[1:])):
        raise DomainError("eps ladder must be strictly decreasing")
    B = as_matrix(B)

    trajs = []
    for eps in eps_ladder:
        A_eps = perturb_to_simple(problem.A, B, eps)
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
