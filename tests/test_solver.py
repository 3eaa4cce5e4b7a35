"""Tests for the solution formulas: scalar/matrix solves on both quadrature
backends, the Mittag-Leffler closed-form oracle, the spectral cross-path,
and the eps-perturbation ladder."""

import dataclasses
import json
import math
import pathlib
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fraclode import (
    CauchyProblem,
    ComplexSpectrumError,
    DomainError,
    NonConvergenceError,
    NonUniformGridError,
    OverflowError_,
    Quadrature,
    QuadratureFailureError,
    SolveConfig,
    ZeroEigenvalueError,
    approximate_order,
    classical_exponential,
    scalar_closed_form,
    solve_limit_perturbation,
    solve_matrix,
    solve_scalar_quad,
    solve_scalar_rect,
)
from fraclode.linalg import eig_real_simple, expm
from fraclode.quadrature import gauss_jacobi
from fraclode.solver import (
    GJ_MAX_NODES,
    GJ_MIN_NODES,
    MAX_GRID_POINTS,
    MAX_LATTICE_SIZE,
    SECTION_BLOCK_ELEMENTS,
    SIMPSON_TOL,
    TERM_TOL,
    _fft_size,
    _jacobi_integral,
    _modes,
    _order_tables,
    _rect_lattice,
    _step_count,
    _step_grid,
    _terms,
)
from fraclode.rational_order import FractionalOrder
from fraclode.specfun import MLParams, exp_section
from ml_reference import per_point_ml

FIXTURE = json.loads(
    (pathlib.Path(__file__).parent / "fixtures" / "closed_form_reference.json").read_text()
)

ORDER_13 = approximate_order(1 / 3, tol=1e-12, q_max=10)
ORDER_37 = approximate_order(3 / 7, tol=1e-12, q_max=10)
ORDER_1 = approximate_order(1.0, tol=1e-12, q_max=10)


def _grid(h: float, t_end: float, t0: float = 0.0) -> np.ndarray:
    return t0 + h * np.arange(1, int(round((t_end - t0) / h)) + 1)


def rpow(x: float, num: int, den: int) -> float:
    """Real odd-root power sign(x)^num |x|^(num/den) of x != 0, den odd:
    an independent reference for the solver's powers of eigenvalues."""
    mag = abs(x) ** (num / den)
    return -mag if x < 0.0 and num % 2 else mag


# ------------------------------------------------------- closed-form oracle


def test_closed_form_matches_frozen_high_precision_values():
    # 50-digit mpmath values of the Caputo solution E_alpha(lam t^alpha),
    # written by fixtures/make_closed_form_reference.py and cross-checked
    # there against a Talbot inversion of the Laplace transform.
    for case in FIXTURE["closed_form_cases"]:
        from fraclode.rational_order import FractionalOrder

        order = FractionalOrder(
            alpha=(2 * case["p"] + 1) / (2 * case["q"] + 1),
            p=case["p"],
            q=case["q"],
            achieved_error=0.0,
        )
        got = scalar_closed_form(
            case["lam"], case["y0"], order, case["t0"], [case["t"]]
        ).values[0]
        # rel 1e-8: negative-lambda cases hit alternating-series
        # cancellation in the Mittag-Leffler evaluation.
        assert got == pytest.approx(case["value"], rel=1e-8)


@pytest.mark.parametrize("m,n", [(1, 3), (3, 7), (199, 203), (1999, 2003)])
def test_closed_form_is_the_per_point_series_exactly(m, n):
    # One mittag_leffler call per solve must give, bit for bit, what a
    # scalar call per time gave.
    order = FractionalOrder(alpha=m / n, p=(m - 1) // 2, q=(n - 1) // 2, achieved_error=0.0)
    grid = _grid(0.01, 1.01)
    params = MLParams(alpha=order.value)
    for lam in (-2.0, 2.0, -0.3, 0.7):
        got = scalar_closed_form(lam, 1.5, order, 0.0, grid).values
        ref = np.array([1.5 * per_point_ml(params, lam * t ** order.value) for t in grid])
        assert np.array_equal(got, ref)


def test_closed_form_rejects_zero_lambda():
    with pytest.raises(ZeroEigenvalueError):
        scalar_closed_form(0.0, 1.0, ORDER_13, 0.0, [1.0])


@pytest.mark.parametrize("lam", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("path", [scalar_closed_form, solve_scalar_quad, solve_scalar_rect])
def test_scalar_paths_reject_non_finite_lambda(path, lam):
    # A DomainError naming lambda, not an overflow of the states.
    with pytest.raises(DomainError, match=f"must be finite, got {lam}"):
        path(lam, 1.0, ORDER_13, 0.0, [0.5, 1.0])


# ------------------------------------------------------- scalar rectangle


def test_rect_alpha_one_is_pure_exponential():
    traj = solve_scalar_rect(2.0, 1.0, ORDER_1, 0.0, [1.0])
    assert traj.values[0] == pytest.approx(math.exp(2.0), rel=1e-15)
    traj = solve_scalar_rect(-2.0, 3.0, ORDER_1, 0.5, [1.5, 2.5])
    assert traj.values == pytest.approx(3.0 * np.exp([-2.0, -4.0]), rel=1e-15)


def test_rect_rejects_zero_lambda():
    with pytest.raises(ZeroEigenvalueError):
        solve_scalar_rect(0.0, 1.0, ORDER_13, 0.0, [0.5, 1.0])


def test_rect_converges_to_oracle_under_refinement():
    # lam=2, alpha=1/3: error against the closed form shrinks at h/2.
    errs = []
    for h in (0.01, 0.005):
        grid = _grid(h, 1.01)
        got = solve_scalar_rect(2.0, 1.0, ORDER_13, 0.0, grid).values
        ref = scalar_closed_form(2.0, 1.0, ORDER_13, 0.0, grid).values
        errs.append(float(np.max(np.abs(got - ref) / np.abs(ref))))
    assert errs[1] < errs[0]


def test_rect_accepts_lattice_aligned_subgrid():
    # The grid need not start at t0 + h, only sit on the t0-anchored
    # lattice with the same step (the implied step is the smallest gap).
    full = _grid(0.01, 1.0)
    sub = full[4:]  # 0.05, 0.06, ..., 1.0 -- starts at t0 + 5h
    a = solve_scalar_rect(-2.0, 1.0, ORDER_13, 0.0, full).values[4:]
    b = solve_scalar_rect(-2.0, 1.0, ORDER_13, 0.0, sub).values
    assert b == pytest.approx(a, rel=1e-13)


def test_rect_rejects_off_lattice_grid():
    with pytest.raises(NonUniformGridError):
        solve_scalar_rect(-2.0, 1.0, ORDER_13, 0.0, [0.15, 0.25, 0.4])
    with pytest.raises(NonUniformGridError):
        # Uniform step but offset from the t0 lattice.
        solve_scalar_rect(-2.0, 1.0, ORDER_13, 0.0, [0.15, 0.25, 0.35])


@pytest.mark.parametrize("t0, h", [(100.0, 1e-5), (1000.0, 1e-4), (-1000.0, 1e-4)])
@pytest.mark.parametrize("solve", [solve_scalar_rect, solve_scalar_quad])
def test_uniform_grid_far_from_zero_solves(solve, t0, h):
    # Far from t = 0 the rounding of t itself exceeds 1e-9 h; such a grid
    # is still uniform, and its solve is the t0 = 0 one shifted by t0.
    k = np.arange(1, 1001)
    far = solve(-2.0, 1.0, ORDER_13, t0, t0 + h * k).values
    near = solve(-2.0, 1.0, ORDER_13, 0.0, h * k).values
    assert np.max(np.abs(far - near)) <= 1e-9
    bent = t0 + h * k
    bent[500:] += 0.3 * h  # one step of 1.3 h
    with pytest.raises(NonUniformGridError):
        solve_scalar_rect(-2.0, 1.0, ORDER_13, t0, bent)


def test_rectangle_step_far_from_zero_is_the_mean_step():
    # At t0 = 1e5 each time carries a rounding of about 1e-11.  The least
    # step carried it 1000-fold to the last node, 2.6e-9 off the t0 = 0
    # solve; (t_K - t0)/K spreads one time's rounding over K steps.
    k = np.arange(1, 1001)
    far = solve_scalar_rect(-2.0, 1.0, ORDER_13, 1e5, 1e5 + 1e-3 * k).values
    near = solve_scalar_rect(-2.0, 1.0, ORDER_13, 0.0, 1e-3 * k).values
    assert np.max(np.abs(far - near)) <= 2e-10


def test_scaling_the_modes_past_floating_range_raises_overflow():
    # y0 E_alpha(2 u^alpha) at u = 1 passes the largest double: the states
    # overflow silently and Trajectory raises, on every path.
    big = CauchyProblem(A=[[2.0]], x0=[1e308], t0=0.0, order=ORDER_13)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for solve in (solve_scalar_rect, solve_scalar_quad, scalar_closed_form):
            with pytest.raises(OverflowError_):
                solve(2.0, 1e308, ORDER_13, 0.0, [1.0])
        for quadrature in Quadrature:
            with pytest.raises(OverflowError_):
                solve_matrix(big, SolveConfig(grid=[1.0], quadrature=quadrature))
        with pytest.raises(OverflowError_):
            classical_exponential(CauchyProblem(A=[[2.0]], x0=[1e308], t0=0.0,
                                                order=ORDER_1), [1.0])


def test_grid_must_start_after_t0():
    with pytest.raises(DomainError):
        solve_scalar_rect(-2.0, 1.0, ORDER_13, 0.5, [0.5, 0.6])
    with pytest.raises(DomainError):
        solve_scalar_quad(-2.0, 1.0, ORDER_13, 0.5, [0.4])


def _rect_direct(lams, order, t0, times):
    """Y[k, i] of the rectangle rule with each kept term convolved directly,
    in O(K^2): the evaluation the collapsed-kernel FFT replaces."""
    times = np.asarray(times, dtype=float)
    u = times - t0
    m, r, a, j, coef = _terms(np.asarray(lams, dtype=float), order, float(u[-1]))
    h, k_idx = _rect_lattice(times, t0)
    k_max = int(k_idx[-1])
    nodes = h * np.arange(k_max)
    dist = h * np.arange(1, k_max + 1)
    Y = exp_section(np.outer(u, r), m, 0)
    for a_k, j_k, c in zip(a, j, coef):
        full = np.column_stack([np.convolve(col, dist ** (a_k - 1.0))[:k_max]
                                for col in exp_section(np.outer(nodes, r), m, int(j_k)).T])
        Y += c * h * full[k_idx - 1]
    return Y


def _rect_section_loop(lams, order, t0, times):
    """Y[k, i] of the rectangle backend as _modes evaluated it one section
    at a time: one exp_section call and one pair of FFTs per section j,
    the spectra added in order of j.  q > 0."""
    times = np.asarray(times, dtype=float)
    lams = np.asarray(lams, dtype=float)
    u = times - t0
    m, r, a, j, coef = _terms(lams, order, float(u[-1]))
    growth = max(0.0, math.cos(math.pi / m))
    Y = exp_section(np.outer(u, r), m, 0)
    rate = np.abs(r) * np.where(r > 0.0, 1.0, growth)
    h, k_idx = _rect_lattice(times, t0, len(lams))
    k_max = int(k_idx[-1])
    size = _fft_size(2 * k_max - 1)
    nodes = np.outer(h * np.arange(k_max), r)
    dist = h * np.arange(1, k_max + 1)[:, None]
    damp = np.exp(-np.outer(h * np.arange(k_max + 1), rate))
    spectrum = np.zeros((size // 2 + 1, len(lams)), dtype=complex)
    for j_g in sorted(set(j.tolist())):
        kernel = dist ** (a[j == j_g] - 1.0) @ coef[j == j_g]
        spectrum += (np.fft.rfft(exp_section(nodes, m, j_g) * damp[:-1], size, axis=0)
                     * np.fft.rfft(kernel * damp[1:], size, axis=0))
    full = np.fft.irfft(spectrum, size, axis=0)[:k_max]
    Y += h * full[k_idx - 1] * np.exp(np.outer(h * k_idx, rate))
    return Y


def _rule_by_rule(ru, m, j, a, scale):
    """(I, nodes): _jacobi_integral with one exp_section call per rule and
    block of SECTION_BLOCK_ELEMENTS triples, and the rule it settled at."""
    prev, n_nodes = None, GJ_MIN_NODES
    while n_nodes <= GJ_MAX_NODES:
        s, w = gauss_jacobi(a, n_nodes)
        step = max(1, SECTION_BLOCK_ELEMENTS // (ru.shape[1] * n_nodes))
        cur = np.empty(ru.shape)
        for i in range(0, len(ru), step):
            cur[i:i + step] = exp_section(ru[i:i + step, :, None] * (1.0 - s), m, j) @ w
        if prev is not None and a * (np.abs(cur - prev) / scale).max() <= SIMPSON_TOL:
            return cur, n_nodes
        prev, n_nodes = cur, 2 * n_nodes
    raise AssertionError("the rules did not settle")


@pytest.mark.parametrize("lams, alpha, K, settles", [
    ([-5.0], 1 / 3, 101, {64}), ([-2.0], 199 / 203, 101, {32}),
    ([-1.7, -0.6, 1.3], 3 / 7, 51, {32}), ([-1.7, -0.6, 1.3], 3 / 7, 1001, {32})])
def test_rule_pair_matches_a_rule_by_rule_loop_bit_for_bit(lams, alpha, K, settles):
    # Where both first rules fit one exp_section call they share it; every
    # term's integral must be the rule-by-rule loop's, bit for bit.  At
    # lambda = -5, alpha = 1/3 both terms need a third rule of 64 nodes;
    # at 199/203 each of 25 terms settles at 32.  With three eigenvalues
    # the weights apply by a matrix-vector product: at K = 51 both rules
    # share one call, at K = 1001 each rule spans many blocks of its own.
    lams = np.array(lams)
    order = approximate_order(alpha, tol=1e-12, q_max=1001)
    u = (1.01 / K) * np.arange(1, K + 1)
    m, r, a, j, coef = _terms(lams, order, float(u[-1]))
    growth = max(0.0, math.cos(math.pi / m))
    scale = np.exp(np.outer(u, np.abs(r) * np.where(r > 0.0, 1.0, growth)))
    ru = np.outer(u, r)
    settled = set()
    for a_k, j_k in zip(a.tolist(), j.tolist()):
        want, nodes = _rule_by_rule(ru, m, j_k, a_k, scale)
        assert np.array_equal(_jacobi_integral(ru, m, j_k, a_k, scale), want)
        settled.add(nodes)
    assert settled == settles


def test_simpson_makes_one_section_call_per_kept_term(monkeypatch):
    # At K = 101 both first rules of a term fit in one exp_section call;
    # the only other call is the j = 0 section of the solution.
    order = approximate_order(199 / 203, tol=1e-12)
    grid = 0.01 * np.arange(1, 102)
    kept = _terms(np.array([-2.0]), order, float(grid[-1]))[2]
    calls = []
    section = exp_section
    monkeypatch.setattr("fraclode.solver.exp_section",
                        lambda *args: calls.append(1) or section(*args))
    solve_scalar_quad(-2.0, 1.0, order, 0.0, grid)
    assert len(kept) > 10 and len(calls) == 1 + len(kept)


@pytest.mark.parametrize("alpha", [1 / 3, 1 / 5, 3 / 7, 199 / 203, 1999 / 2003])
def test_rect_stacked_sections_match_the_section_loop_bit_for_bit(alpha):
    # K = 1001 puts the sections of 199/203 and 1999/2003 in several
    # blocks of SECTION_BLOCK_ELEMENTS, and so does n = 20 at K = 101.
    # At 1/3 (m = 1) the one section holds two terms, at 1/5 four, and
    # at 3/7 each of the three holds two: their kernels sum by a matmul.
    order = approximate_order(alpha, tol=1e-12, q_max=1001)
    for K in (101, 1001):
        grid = (1.01 / K) * np.arange(1, K + 1)
        for lam in (-2.0, 2.0):
            got = solve_scalar_rect(lam, 1.0, order, 0.0, grid).values
            assert np.array_equal(got, _rect_section_loop([lam], order, 0.0, grid)[:, 0])
    rng = np.random.default_rng(5)
    grid = _grid(0.01, 1.01)
    for lams in ([-1.7, -0.6, 1.3], [s * (0.3 + 0.2 * i) for i in range(10) for s in (-1, 1)],
                 []):
        n = len(lams)
        S = rng.standard_normal((n, n)) + 4.0 * np.eye(n)
        problem = CauchyProblem(A=S @ np.diag(lams) @ np.linalg.inv(S),
                                x0=rng.uniform(-1.0, 1.0, n), t0=0.0, order=order)
        got = solve_matrix(problem, SolveConfig(grid=grid, quadrature=Quadrature.RECTANGLE))
        dec = eig_real_simple(problem.A)
        want = ((_rect_section_loop(dec.lambdas, order, 0.0, grid) * (dec.T_inv @ problem.x0))
                @ dec.T.T)
        assert got.states.shape == (len(grid), n) and np.array_equal(got.states, want)


@pytest.mark.parametrize("alpha", [1 / 3, 3 / 7, 199 / 203])
@pytest.mark.parametrize("K", [101, 2000])
def test_rect_fft_matches_direct_convolution(alpha, K):
    # Gate on max|x|: pointwise, where x passes near 0, the two orders of
    # summation differ by up to about 1e-12 relative.
    order = approximate_order(alpha, tol=1e-12, q_max=200)
    grid = (1.01 / K) * np.arange(1, K + 1)
    for lam in (-2.0, 2.0):
        got = solve_scalar_rect(lam, 1.0, order, 0.0, grid).values
        ref = _rect_direct([lam], order, 0.0, grid)[:, 0]
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_rect_fft_matrix_matches_direct_convolution():
    # n = 20, dense and non-normal, on a sub-grid that starts at t0 + 5h.
    rng = np.random.default_rng(11)
    n = 20
    lams = np.array(sorted([s * (0.3 + 0.2 * i) for i in range(10) for s in (-1, 1)]))
    S = rng.standard_normal((n, n)) + 4.0 * np.eye(n)
    A = S @ np.diag(lams) @ np.linalg.inv(S)
    x0 = rng.uniform(-1.0, 1.0, n)
    t0 = 0.5
    grid = _grid(0.01, 1.51, t0)[4:]
    dec = eig_real_simple(A)
    for alpha in (3 / 7, 199 / 203):
        order = approximate_order(alpha, tol=1e-12, q_max=200)
        problem = CauchyProblem(A=A, x0=x0, t0=t0, order=order)
        got = solve_matrix(problem, SolveConfig(grid=grid, quadrature=Quadrature.RECTANGLE)).states
        ref = (_rect_direct(dec.lambdas, order, t0, grid) * (dec.T_inv @ x0)) @ dec.T.T
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_fft_size_is_least_five_smooth_length():
    def smooth(k):
        for p in (2, 3, 5):
            while k % p == 0:
                k //= p
        return k == 1

    for n in range(1, 3000):
        size = _fft_size(n)
        assert size >= n and smooth(size)
        assert not any(smooth(k) for k in range(n, size))


def test_rect_lattice_limit_fails_before_allocating():
    # h = 5e-7 puts t = 1000 at lattice node 2e9.
    with pytest.raises(DomainError, match="lattice"):
        solve_scalar_rect(-2.0, 1.0, ORDER_13, 0.0, [5e-7, 1e-6, 1000.0])
    # The limit counts lattice nodes times eigenvalues.
    h = 1e-6
    grid = [h, 2 * h, h * (MAX_LATTICE_SIZE // 2 + 1)]
    _rect_lattice(np.array(grid), 0.0, 1)
    with pytest.raises(DomainError, match="lattice"):
        _rect_lattice(np.array(grid), 0.0, 2)
    problem = CauchyProblem(A=np.diag([-2.0, 3.0]), x0=[1.0, 1.0], t0=0.0, order=ORDER_13)
    with pytest.raises(DomainError, match="lattice"):
        solve_matrix(problem, SolveConfig(grid=grid, quadrature=Quadrature.RECTANGLE))


@given(start=st.floats(-1e4, 1e4), step=st.floats(1e-6, 10.0), n=st.integers(0, 2000),
       frac=st.sampled_from([0.0, 0.5, 1.0 - 1e-6]) | st.floats(0.0, 1.0, exclude_max=True))
@settings(max_examples=300, deadline=None)
def test_step_grid_stops_at_end(start, step, n, frac):
    end = start + step * (n + frac)
    grid = _step_grid(start, end, step)
    # Each point is start + step k to the bit.
    assert grid.tobytes() == np.array([start + step * k for k in range(len(grid))]).tobytes()
    # No point lies past end, and none is missing before it, by more than
    # 1e-9 step plus the rounding of the times.
    slack = 1e-9 * step + 16.0 * math.ulp(1.0) * max(abs(start), abs(end))
    assert grid[-1] <= end + slack
    assert start + step * len(grid) > end - slack
    # An end that is itself start + step n, rounded, is the last point.
    if frac == 0.0:
        assert len(grid) == n + 1


def test_step_grid_rounding_slack_is_at_most_half_a_step():
    # A step below the rounding of start: end = start is still one point.
    assert _step_grid(1e6, 1e6, 1e-12).tolist() == [1e6]


def test_step_grid_limit_fails_before_allocating(monkeypatch):
    assert _step_count(0.0, MAX_GRID_POINTS - 1.0, 1.0) == MAX_GRID_POINTS - 1

    def no_grid(*args, **kwargs):
        raise AssertionError("the grid was built")

    monkeypatch.setattr(np, "arange", no_grid)
    for start, end, step in ((0.0, float(MAX_GRID_POINTS), 1.0), (0.0, 1000.0, 1e-8),
                             (-1e308, 1e308, 1.0)):
        with pytest.raises(DomainError, match="exceeds the limit"):
            _step_grid(start, end, step)


# ------------------------------------------------------- scalar Simpson


def test_quad_alpha_one_reduction():
    got = solve_scalar_quad(-2.0, 1.0, ORDER_1, 0.0, [1.0]).values[0]
    assert got == pytest.approx(math.exp(-2.0), rel=1e-15)


def test_quad_matches_oracle_tight():
    grid = np.linspace(0.1, 1.1, 51)
    for lam in (2.0, -2.0):
        for order in (ORDER_13, ORDER_37):
            got = solve_scalar_quad(lam, 1.0, order, 0.0, grid).values
            ref = scalar_closed_form(lam, 1.0, order, 0.0, grid).values
            rel = np.max(np.abs(got - ref) / np.abs(ref))
            assert rel <= 1e-6


def test_quad_matches_frozen_values():
    from fraclode.rational_order import FractionalOrder

    for case in FIXTURE["closed_form_cases"]:
        order = FractionalOrder(
            alpha=(2 * case["p"] + 1) / (2 * case["q"] + 1),
            p=case["p"],
            q=case["q"],
            achieved_error=0.0,
        )
        got = solve_scalar_quad(
            case["lam"], case["y0"], order, case["t0"], [case["t"]]
        ).values[0]
        assert got == pytest.approx(case["value"], rel=1e-7)


def test_quad_matches_frozen_values_tight():
    # The Gauss–Jacobi rules settle far below SIMPSON_TOL: the fixture's
    # 50-digit values hold to 1e-12 relative, not just the 1e-7 above.
    from fraclode.rational_order import FractionalOrder

    for case in FIXTURE["closed_form_cases"]:
        order = FractionalOrder(
            alpha=(2 * case["p"] + 1) / (2 * case["q"] + 1),
            p=case["p"],
            q=case["q"],
            achieved_error=0.0,
        )
        got = solve_scalar_quad(
            case["lam"], case["y0"], order, case["t0"], [case["t"]]
        ).values[0]
        assert got == pytest.approx(float(case["value"]), rel=1e-12)


def test_quad_stiff_cancelling_rung_fails_fast():
    # lam = -5, alpha = 3/7: |r| u reaches 43 and the sections cancel to
    # ~e^21 * 1e-16 relative to their scale, so no rule can settle to
    # SIMPSON_TOL.  _modes compares that rounding floor with SIMPSON_TOL
    # before any grid work and builds no rule, so the error comes at once;
    # the second call is timed.
    grid = _grid(0.01, 1.01)
    for _ in range(2):
        start = time.perf_counter()
        with pytest.raises(QuadratureFailureError):
            solve_scalar_quad(-5.0, 1.0, ORDER_37, 0.0, grid)
    assert time.perf_counter() - start < 0.2


def test_quad_stiff_decaying_rung_without_cancellation():
    # lam = -5, alpha = 1/3: H_{1,0} = exp does not cancel; the rules only
    # need more nodes for the boundary layer of width 1/(125 u) near s = 1.
    # The float series oracle cancels here (z down to -5), so the reference
    # is E_{1/3}(z) summed by mpmath at 100 digits.
    mpmath = pytest.importorskip("mpmath")
    grid = [0.05, 0.5, 1.0]
    got = solve_scalar_quad(-5.0, 1.0, ORDER_13, 0.0, grid).values
    with mpmath.workdps(100):
        ref = [float(mpmath.nsum(lambda k: (-5 * mpmath.cbrt(u)) ** k
                                 / mpmath.gamma(k / mpmath.mpf(3) + 1), [0, mpmath.inf]))
               for u in grid]
    assert got == pytest.approx(ref, rel=1e-12)


#: solve_scalar_quad at lam = -4, alpha = 3/7, on t = 0.05, 0.5, 1.01.
#: They are off the true solution by up to 7.3e-5 of max|x|: SIMPSON_TOL
#: bounds the rules' disagreement relative to e^(|r| u / 2), not to x.
STIFF_EDGE_VALUES = [0.4108131247474691, 0.19308139411594993, 0.1476778849028051]


def test_quad_rounding_floor_check_at_three_sevenths(monkeypatch):
    # At alpha = 3/7 on t <= 1.01 the floor 2^-52 e^(|r| u / 2) crosses
    # SIMPSON_TOL = 1e-10 at |lam| = 4.026.  Below it the rules run and
    # lam = -4 still returns its values; from -4.02 on the solve raises,
    # past the crossing before any exp_section call on the grid.
    grid = _grid(0.01, 1.01)
    got = solve_scalar_quad(-4.0, 1.0, ORDER_37, 0.0, grid).values
    assert got[[4, 49, 100]] == pytest.approx(STIFF_EDGE_VALUES, rel=1e-9)
    with pytest.raises(QuadratureFailureError):
        solve_scalar_quad(-4.02, 1.0, ORDER_37, 0.0, grid)

    def no_grid_work(*args):
        raise AssertionError("exp_section ran before the rounding floor check")

    monkeypatch.setattr("fraclode.solver.exp_section", no_grid_work)
    for lam in (-4.25, -5.0):
        with pytest.raises(QuadratureFailureError, match="rounding floor"):
            solve_scalar_quad(lam, 1.0, ORDER_37, 0.0, grid)
    A = np.diag([-5.0, 0.5])  # one stiff eigenvalue fails the matrix solve
    problem = CauchyProblem(A=A, x0=[1.0, 1.0], t0=0.0, order=ORDER_37)
    with pytest.raises(QuadratureFailureError, match="rounding floor"):
        solve_matrix(problem, SolveConfig(grid=grid, quadrature=Quadrature.SIMPSON))


def test_rect_lattice_check_runs_before_grid_work(monkeypatch):
    # The rectangle backend refuses a grid off the lattice t0 + k h, and a
    # lattice of 10^7 nodes past MAX_LATTICE_SIZE, before any exp_section
    # call: one over the grid once came first.
    def no_grid_work(*args):
        raise AssertionError("exp_section ran before the lattice check")

    monkeypatch.setattr("fraclode.solver.exp_section", no_grid_work)
    problem = CauchyProblem(A=[[-2.0, 1.0], [0.0, -1.0]], x0=[1.0, 0.5], t0=0.0,
                            order=ORDER_37)
    for grid, error in (([0.1, 0.25, 0.31], NonUniformGridError),
                        ([1e-7, 2e-7, 1.0], DomainError)):
        with pytest.raises(error):
            solve_scalar_rect(-2.0, 1.0, ORDER_37, 0.0, grid)
        with pytest.raises(error):
            solve_matrix(problem, SolveConfig(grid=grid, quadrature=Quadrature.RECTANGLE))


def test_quad_rounding_floor_spares_first_section_and_rectangle():
    # m = 1 (alpha = 1/3): H_{1,0} = exp does not cancel, so lam = -5
    # solves; the rectangle rule does not check the floor at all.
    grid = _grid(0.01, 1.01)
    assert np.all(np.isfinite(solve_scalar_quad(-5.0, 1.0, ORDER_13, 0.0, grid).values))
    assert np.all(np.isfinite(solve_scalar_rect(-5.0, 1.0, ORDER_37, 0.0, grid).values))


def test_quad_near_one_order_decays_toward_exponential():
    # alpha = 199/203 close to 1: the trajectory decays monotonically and
    # stays close to e^{-2(t-t0)}.  On this grid mpmath's E_alpha(-2 u^alpha)
    # deviates from the exponential by 9.669e-3 at most (at u = 0.18).
    order = approximate_order(199 / 203, tol=1e-12, q_max=200)
    t0 = 0.01
    grid = _grid(0.01, 1.01, t0=t0)
    traj = solve_scalar_quad(-2.0, 1.0, order, t0, grid)
    assert np.all(np.diff(traj.values) < 0.0)
    sup_dev = np.max(np.abs(traj.values - np.exp(-2.0 * (grid - t0))))
    assert sup_dev <= 1e-2


def test_solution_tends_to_x0_near_t0():
    # Caputo: x(t0) = x0, so the solution is continuous at t0 (here
    # E_{1/3}(-2e-3) = 0.99776...), for every path.
    t = [1e-9]
    problem = CauchyProblem(A=[[-2.0]], x0=[1.0], t0=0.0, order=ORDER_13)
    values = [
        scalar_closed_form(-2.0, 1.0, ORDER_13, 0.0, t).values[0],
        solve_scalar_quad(-2.0, 1.0, ORDER_13, 0.0, t).values[0],
        solve_matrix(
            problem, SolveConfig(grid=t, quadrature=Quadrature.SIMPSON)
        ).values[0],
    ]
    assert values == pytest.approx([0.99776473] * 3, abs=1e-8)


def test_spectral_matches_frozen_values():
    from fraclode.rational_order import FractionalOrder

    for case in FIXTURE["closed_form_cases"]:
        order = FractionalOrder(
            alpha=(2 * case["p"] + 1) / (2 * case["q"] + 1),
            p=case["p"],
            q=case["q"],
            achieved_error=0.0,
        )
        problem = CauchyProblem(
            A=np.diag([case["lam"], 1.0]), x0=[case["y0"], 0.0], t0=case["t0"],
            order=order,
        )
        config = SolveConfig(grid=[case["t"]], quadrature=Quadrature.SIMPSON)
        got = solve_matrix(problem, config).states[0, 0]
        assert got == pytest.approx(case["value"], rel=1e-7)


def test_backends_agree_within_rectangle_error():
    # Cross-backend agreement at h and h/2, bounded by the rectangle rule's
    # own measured discretization error (Simpson is the accurate one).
    for h in (0.02, 0.01):
        grid = _grid(h, 1.0)
        rect = solve_scalar_rect(-2.0, 1.0, ORDER_13, 0.0, grid).values
        quad = solve_scalar_quad(-2.0, 1.0, ORDER_13, 0.0, grid).values
        oracle = scalar_closed_form(-2.0, 1.0, ORDER_13, 0.0, grid).values
        rect_err = np.max(np.abs(rect - oracle))
        gap = np.max(np.abs(rect - quad))
        assert gap <= 1.05 * rect_err


# ------------------------------------------------------- matrix solve


def test_problem_validation():
    with pytest.raises(DomainError):
        CauchyProblem(A=np.eye(2), x0=[1.0], t0=0.0, order=ORDER_13)
    with pytest.raises(DomainError):
        CauchyProblem(A=np.eye(2), x0=[1.0, math.nan], t0=0.0, order=ORDER_13)


def test_diagonal_decoupling_both_backends():
    grid = _grid(0.01, 1.0)
    problem = CauchyProblem(
        A=np.diag([-2.0, 3.0]), x0=[1.0, 1.0], t0=0.0, order=ORDER_13
    )
    for quad in (Quadrature.RECTANGLE, Quadrature.SIMPSON):
        traj = solve_matrix(problem, SolveConfig(grid=grid, quadrature=quad))
        for j, lam in enumerate((-2.0, 3.0)):
            if quad is Quadrature.RECTANGLE:
                scalar = solve_scalar_rect(lam, 1.0, ORDER_13, 0.0, grid).values
            else:
                scalar = solve_scalar_quad(lam, 1.0, ORDER_13, 0.0, grid).values
            rel = np.max(np.abs(traj.states[:, j] - scalar) / (1.0 + np.abs(scalar)))
            assert rel <= 1e-12


def test_matrix_alpha_one_matches_expm():
    rng = np.random.default_rng(17)
    grid = np.linspace(0.1, 2.0, 50)
    for n in (2, 3):
        lams = np.linspace(-1.5, 1.5, n)
        T = rng.uniform(-1.0, 1.0, size=(n, n)) + 2.0 * np.eye(n)
        A = T @ np.diag(lams) @ np.linalg.inv(T)
        problem = CauchyProblem(A=A, x0=rng.uniform(-1, 1, n), t0=0.0, order=ORDER_1)
        got = solve_matrix(problem, SolveConfig(grid=grid, quadrature=Quadrature.RECTANGLE))
        ref = classical_exponential(problem, grid)
        assert np.max(np.abs(got.states - ref.states)) <= 1e-10


@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_modes_recompose_to_classical_exponential_at_alpha_one(data):
    # A = T diag(lambda) T^-1 with distinct real lambda and a diagonally
    # dominant T: T diag(_modes(lambda)) T^-1 x0 is expm(u A) x0.
    n = data.draw(st.integers(1, 4))
    # lambda in [-2, -0.05] or [0.05, 2], at least 0.1 apart, built
    # directly rather than filtered: sorted points v of [0, 3.9] spread by
    # 0.1 per rank, then lambda = v - 2 below 1.95 and v - 1.9 from there.
    slack = data.draw(st.lists(st.floats(0.0, 3.9 - 0.1 * (n - 1)), min_size=n, max_size=n))
    v = np.sort(slack) + 0.1 * np.arange(n)
    lams = np.where(v < 1.95, v - 2.0, v - 1.9)
    entries = st.lists(st.floats(-1.0, 1.0), min_size=n * n, max_size=n * n)
    T = np.array(data.draw(entries)).reshape(n, n) + (n + 1.0) * np.eye(n)
    x0 = np.array(data.draw(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n)))
    # At least one entry of x0 with |x0_i| >= 0.1.
    x0[data.draw(st.integers(0, n - 1))] = data.draw(st.floats(0.1, 1.0) | st.floats(-1.0, -0.1))
    problem = CauchyProblem(A=T @ np.diag(lams) @ np.linalg.inv(T), x0=x0, t0=0.0,
                            order=ORDER_1)
    grid = np.linspace(0.1, 2.0, 20)
    _, Y = _modes(lams, ORDER_1, 0.0, grid, Quadrature.RECTANGLE)
    got = (Y * np.linalg.solve(T, x0)) @ T.T
    ref = classical_exponential(problem, grid).states
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


@given(lam=st.floats(0.2, 2.0), sign=st.sampled_from([-1.0, 1.0]),
       order=st.sampled_from([ORDER_13, ORDER_37]))
@settings(max_examples=30, deadline=None)
def test_rectangle_error_does_not_grow_as_h_shrinks(lam, sign, order):
    # The rectangle rule's max error at t = 0.2, 0.4, ..., 1.0 against the
    # Mittag-Leffler oracle, at h = 0.04 and at h = 0.01.
    lam *= sign
    t = np.array([0.2, 0.4, 0.6, 0.8, 1.0])
    oracle = scalar_closed_form(lam, 1.0, order, 0.0, t).values
    errors = []
    for h in (0.04, 0.01):
        values = solve_scalar_rect(lam, 1.0, order, 0.0, _grid(h, 1.0)).values
        errors.append(np.max(np.abs(values[np.round(t / h).astype(int) - 1] - oracle)))
    assert errors[1] <= errors[0]


def _recompose(A, x0, scalar_solve):
    """T diag(y_i(t)) T^{-1} x0 from numpy's eigendecomposition of A, with
    y_i = scalar_solve(lambda_i, 1.0) the scalar trajectory per mode."""
    lams, T = np.linalg.eig(np.asarray(A, dtype=float))
    y0 = np.linalg.solve(T, np.asarray(x0, dtype=float))
    modes = np.stack([scalar_solve(lam, 1.0).values for lam in lams.real], axis=1)
    return (modes * y0) @ T.real.T


def test_matrix_vs_spectral_cross_path():
    # Non-diagonal A with eigenvalues 2 and -1.  Simpson is checked against
    # the Mittag-Leffler closed form recomposed on numpy's eigenvectors;
    # the rectangle rule, whose own error is O(h^(1/7)), against the same
    # recomposition of the scalar rectangle rule.
    grid = _grid(0.01, 1.0)
    A, x0 = [[0.0, 1.0], [2.0, 1.0]], [1.0, 0.0]
    problem = CauchyProblem(A=A, x0=x0, t0=0.0, order=ORDER_37)
    refs = {
        Quadrature.RECTANGLE: _recompose(
            A, x0, lambda lam, y0: solve_scalar_rect(lam, y0, ORDER_37, 0.0, grid)),
        Quadrature.SIMPSON: _recompose(
            A, x0, lambda lam, y0: scalar_closed_form(lam, y0, ORDER_37, 0.0, grid)),
    }
    for quad, ref in refs.items():
        config = SolveConfig(grid=grid, quadrature=quad)
        assert np.max(np.abs(solve_matrix(problem, config).states - ref)) <= 1e-8


def test_matrix_vs_spectral_cross_path_third_order():
    grid = np.linspace(0.05, 1.0, 100)
    A, x0 = [[0.0, 1.0], [2.0, 1.0]], [1.0, 0.0]
    problem = CauchyProblem(A=A, x0=x0, t0=0.0, order=ORDER_13)
    config = SolveConfig(grid=grid, quadrature=Quadrature.SIMPSON)
    ref = _recompose(
        A, x0, lambda lam, y0: scalar_closed_form(lam, y0, ORDER_13, 0.0, grid))
    assert np.max(np.abs(solve_matrix(problem, config).states - ref)) <= 1e-8


def test_batched_matrix_matches_scalar_recomposition():
    # All 20 eigenvalues of a dense non-normal A = S diag(lam) S^-1 go
    # through one batched evaluation; it must equal S times the solo
    # per-eigenvalue scalar solves on both backends.
    rng = np.random.default_rng(5)
    n = 20
    lams = np.array(sorted([s * (0.3 + 0.2 * i) for i in range(10) for s in (-1, 1)]))
    U, _ = np.linalg.qr(rng.standard_normal((n, n)))
    V, _ = np.linalg.qr(rng.standard_normal((n, n)))
    S = U @ np.diag(np.geomspace(1.0, 10.0 ** rng.uniform(1.0, 2.0), n)) @ V.T
    assert 10.0 <= np.linalg.cond(S) <= 100.0
    x0 = rng.uniform(-1.0, 1.0, n)
    y0 = np.linalg.solve(S, x0)
    grid = _grid(0.01, 1.01)
    for alpha in (1 / 3, 3 / 7, 199 / 203):
        order = approximate_order(alpha, tol=1e-12, q_max=200)
        problem = CauchyProblem(A=S @ np.diag(lams) @ np.linalg.inv(S), x0=x0, t0=0.0,
                                order=order)
        for quad, scalar in ((Quadrature.RECTANGLE, solve_scalar_rect),
                             (Quadrature.SIMPSON, solve_scalar_quad)):
            got = solve_matrix(problem, SolveConfig(grid=grid, quadrature=quad)).states
            modes = np.stack([scalar(lam, c, order, 0.0, grid).values
                              for lam, c in zip(lams, y0)], axis=1)
            ref = modes @ S.T
            assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


def _reference_terms(lam, m, n, u_max):
    """{k: (j, coef)} of the kept terms, by a plain loop over k = 1..n-1."""
    r = rpow(lam, n, m)
    n_inv = pow(n, -1, m)
    kept = {}
    for k in range(1, n):
        j = (-k * n_inv) % m
        coef = rpow(lam, k, m) / math.gamma(k / n)
        if coef == 0.0:  # lambda^(k/m) underflows
            continue
        x = abs(r) * u_max  # 0 where the rate underflows: X^0 is 1, X^j is 0
        log_x_j = j * math.log(x) if x > 0.0 else (0.0 if j == 0 else -math.inf)
        log_bound = (math.log(abs(coef) * n / k) + (k / n) * math.log(u_max)
                     + log_x_j - math.lgamma(j + 1))
        if log_bound >= math.log(TERM_TOL):
            kept[k] = (j, coef)
    return kept


def _check_terms_against_loop(m, n, lams, u_maxes):
    # One eigenvalue keeps exactly the loop's terms, with its coefficients;
    # several keep the union of their sets.
    from fraclode.rational_order import FractionalOrder

    order = FractionalOrder(alpha=m / n, p=(m - 1) // 2, q=(n - 1) // 2,
                            achieved_error=0.0)
    for u_max in u_maxes:
        refs = [_reference_terms(lam, m, n, u_max) for lam in lams]
        for lam, ref in zip(lams, refs):
            got_m, r, a, j, coef = _terms(np.array([lam]), order, u_max)
            assert got_m == m and r[0] == pytest.approx(rpow(lam, n, m), rel=1e-15)
            assert dict(zip(np.round(a * n).astype(int).tolist(), j.tolist())) == {
                k: j_k for k, (j_k, _) in ref.items()}
            for a_k, c in zip(a, coef):
                assert c[0] == pytest.approx(ref[round(a_k * n)][1], rel=1e-14)
        _, _, a, _, _ = _terms(np.array(lams), order, u_max)
        assert set(np.round(a * n).astype(int).tolist()) == set().union(*refs)


@pytest.mark.parametrize("m,n", [(1, 3), (3, 7), (1, 5), (5, 7), (199, 203),
                                 (999, 1001), (1999, 2003), (1, 1)])
def test_terms_keep_what_a_per_k_loop_keeps(m, n):
    lams = [s * v for v in (0.3, 2.0, 5.0, 10.0) for s in (-1.0, 1.0)]
    _check_terms_against_loop(m, n, lams, (0.01, 1.01, 10.0))
    # _terms screens at the largest |lambda| only: spectra whose largest
    # |lambda| is negative, a +-lambda pair, and a rate that underflows
    # (at m = 1) beside a normal one must keep the union all the same.
    for lams in ([-10.0, 0.3, 2.0], [-5.0, -0.3], [-2.0, 2.0], [1e-200, -2.0],
                 [-1e-200, 0.3]):
        _check_terms_against_loop(m, n, lams, (0.01, 1.01, 10.0))


def test_terms_keep_what_a_per_k_loop_keeps_at_large_q():
    # alpha = 0.3 at the default order tolerance is 30001/100003: the
    # screen drops all but a few hundred of the 100002 candidates before
    # any log Gamma is taken.
    _check_terms_against_loop(30001, 100003, [-5.0, -0.3, 2.0], (1.01,))


def test_order_tables_are_kept_read_only_per_order():
    # _terms' order-only tables are cached per (m, n), shared and
    # read-only; a warm call, after calls at other orders, returns the
    # terms of a cold one bit for bit, in arrays of its own.
    order = approximate_order(1999 / 2003, tol=1e-12)
    lams = np.array([-2.0, 0.7, 3.0])
    _order_tables.cache_clear()
    cold = _terms(lams, order, 1.01)
    tables = _order_tables(1999, 2003)
    assert _order_tables(1999, 2003) is tables
    assert all(len(t) == 2002 and not t.flags.writeable for t in tables)
    with pytest.raises(ValueError):
        tables[0][0] = 1.0
    for other in (ORDER_13, ORDER_37, approximate_order(199 / 203, tol=1e-12)):
        _terms(lams, other, 1.01)
    warm = _terms(lams, order, 1.01)
    assert warm[0] == cold[0] and all(np.array_equal(w, c) for w, c in zip(warm[1:], cold[1:]))
    assert all(t.flags.writeable for t in warm[1:])


def test_order_tables_past_the_kept_size_are_built_per_call(monkeypatch):
    # An order with n past _KEPT_ORDER_N leaves the cache empty, and its
    # terms are the bits the kept tables give.
    order = FractionalOrder(alpha=8191 / 8193, p=4095, q=4096, achieved_error=0.0)
    lams = np.array([-2.0, 0.7, 3.0])
    _order_tables.cache_clear()
    built = _terms(lams, order, 1.01)
    assert _order_tables.cache_info().currsize == 0
    monkeypatch.setattr("fraclode.solver._KEPT_ORDER_N", 8193)
    kept = _terms(lams, order, 1.01)
    assert _order_tables.cache_info().currsize == 1
    assert built[0] == kept[0] and all(np.array_equal(b, k) for b, k in zip(built[1:], kept[1:]))
    _order_tables.cache_clear()


@pytest.mark.parametrize("lam", [1e-200, -1e-200])
def test_underflowed_rate_warns_nowhere(lam):
    # |lam|^3 underflows to a zero rate r at alpha = 1/3; the term screen
    # once took log 0 and multiplied it by j = 0.  The solution is 1.
    grid = _grid(0.01, 1.01)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for solve in (scalar_closed_form, solve_scalar_rect, solve_scalar_quad):
            assert np.allclose(solve(lam, 1.0, ORDER_13, 0.0, grid).values, 1.0,
                               rtol=0.0, atol=1e-15)
        _, r, a, j, coef = _terms(np.array([lam]), ORDER_13, 1.01)
        assert r[0] == 0.0 and a.size == j.size == coef.size == 0


@pytest.mark.parametrize("order", [ORDER_13, ORDER_37, ORDER_1])
@pytest.mark.parametrize("quadrature", list(Quadrature))
def test_empty_system_solves_on_both_backends(order, quadrature):
    problem = CauchyProblem(A=np.zeros((0, 0)), x0=[], t0=0.0, order=order)
    traj = solve_matrix(problem, SolveConfig(grid=[0.5, 1.0], quadrature=quadrature))
    assert traj.states.shape == (2, 0)


@pytest.mark.parametrize("quadrature", list(Quadrature))
def test_backend_value_solves_bit_for_bit_as_its_member(quadrature):
    # "simpson" once fell through both branches of _modes and returned
    # the first section alone: 3.1e-4 at t = 1.01, where x is 0.2841.
    problem = CauchyProblem(A=[[-2.0, 1.0], [0.0, -1.0]], x0=[1.0, 0.5], t0=0.0,
                            order=ORDER_13)
    grid = _grid(0.01, 1.01)
    by_value, by_member = (SolveConfig(grid=grid, quadrature=q)
                           for q in (quadrature.value, quadrature))
    assert by_value.quadrature is quadrature
    assert np.array_equal(solve_matrix(problem, by_value).states,
                          solve_matrix(problem, by_member).states)
    ladder = [solve_limit_perturbation(problem, [[0.0, 0.0], [1.0, 0.0]], [1e-2, 1e-3], c)
              for c in (by_value, by_member)]
    assert np.array_equal(ladder[0][0].states, ladder[1][0].states)
    assert ladder[0][1] == ladder[1][1]
    scalar = CauchyProblem(A=[[-2.0]], x0=[1.0], t0=0.0, order=ORDER_13)
    got = solve_matrix(scalar, SolveConfig(grid=[1.01], quadrature="simpson")).values
    assert got == pytest.approx(scalar_closed_form(-2.0, 1.0, ORDER_13, 0.0, [1.01]).values,
                                rel=1e-9)


@pytest.mark.parametrize("bad", ["bogus", None, 1, "SIMPSON", Quadrature])
def test_any_other_backend_raises_domain_error(bad):
    with pytest.raises(DomainError, match="'rectangle', 'simpson'"):
        SolveConfig(grid=[1.0], quadrature=bad)


def test_solve_config_defaults_to_simpson_and_is_frozen():
    config = SolveConfig(grid=[0.5, 1.0])
    assert config.quadrature is Quadrature.SIMPSON
    for field, value in (("quadrature", Quadrature.RECTANGLE), ("grid", np.ones(2))):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(config, field, value)
    assert config.quadrature is Quadrature.SIMPSON
    assert np.array_equal(config.grid, [0.5, 1.0])


def test_exponent_past_floating_range_raises_before_grid_work(monkeypatch):
    # e^(|r| u) / alpha, |r| u = 8 u at lambda = 2 and alpha = 1/3, passes
    # the largest double just below u = 88.6: the solve raises there
    # without touching the grid.  A decaying first section (m = 1) does
    # not grow, so lambda = -2 still solves at |r| u = 800.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.isfinite(solve_scalar_rect(2.0, 1.0, ORDER_13, -88.0, [0.01]).values).all()
        assert np.isfinite(solve_scalar_rect(-2.0, 1.0, ORDER_13, -100.0, [0.01]).values).all()

        def no_grid_work(*args):
            raise AssertionError("exp_section ran before the range check")

        monkeypatch.setattr("fraclode.solver.exp_section", no_grid_work)
        for solve in (solve_scalar_rect, solve_scalar_quad):
            with pytest.raises(OverflowError_, match="floating range"):
                solve(2.0, 1.0, ORDER_13, -88.6, [0.01])
            with pytest.raises(OverflowError_, match="floating range"):
                solve(-2.0, 1.0, ORDER_37, -1e5, [0.01])  # m = 3: the sections grow
        with pytest.raises(OverflowError_, match="floating range"):
            classical_exponential(CauchyProblem(A=[[2.0]], x0=[1.0], t0=-1e308, order=ORDER_1),
                                  [0.01])


def test_linearity_in_x0():
    grid = _grid(0.02, 1.0)
    base = CauchyProblem(
        A=[[0.0, 1.0], [2.0, 1.0]], x0=[1.0, -0.5], t0=0.0, order=ORDER_13
    )
    scaled = CauchyProblem(
        A=base.A, x0=3.0 * base.x0, t0=0.0, order=ORDER_13
    )
    config = SolveConfig(grid=grid, quadrature=Quadrature.RECTANGLE)
    a = solve_matrix(base, config)
    b = solve_matrix(scaled, config)
    assert np.max(np.abs(b.states - 3.0 * a.states)) <= 1e-10 * np.max(
        1.0 + np.abs(a.states)
    )


def test_similarity_covariance():
    rng = np.random.default_rng(23)
    grid = _grid(0.02, 1.0)
    A = np.array([[0.0, 1.0], [2.0, 1.0]])
    x0 = np.array([1.0, 0.0])
    base = solve_matrix(
        CauchyProblem(A=A, x0=x0, t0=0.0, order=ORDER_13),
        SolveConfig(grid=grid, quadrature=Quadrature.RECTANGLE),
    )
    for _ in range(5):
        P = rng.uniform(-1.0, 1.0, size=(2, 2)) + 2.0 * np.eye(2)
        conj = solve_matrix(
            CauchyProblem(A=P @ A @ np.linalg.inv(P), x0=P @ x0, t0=0.0, order=ORDER_13),
            SolveConfig(grid=grid, quadrature=Quadrature.RECTANGLE),
        )
        rel = np.max(
            np.abs(conj.states - base.states @ P.T) / (1.0 + np.abs(base.states @ P.T))
        )
        assert rel <= 1e-8


@st.composite
def _similar_pair(draw):
    """(A, P): A upper triangular with distinct real eigenvalues,
    |lambda| in [0.3, 2] and at least 0.1 apart, and P with cond(P) <= 100."""
    n = draw(st.integers(2, 4))
    mags = np.array(draw(st.lists(st.floats(0.3, 2.0), min_size=n, max_size=n)))
    signs = np.array(draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=n, max_size=n)))
    lams = signs * mags
    assume(np.min(np.diff(np.sort(lams))) >= 0.1)
    entries = st.floats(-1.0, 1.0)
    upper = np.array(draw(st.lists(entries, min_size=n * n, max_size=n * n))).reshape(n, n)
    P = np.array(draw(st.lists(entries, min_size=n * n, max_size=n * n))).reshape(n, n)
    P = P + 2.0 * np.eye(n)
    assume(np.linalg.cond(P) <= 100.0)
    return np.diag(lams) + np.triu(upper, 1), P


@given(pair=_similar_pair(), order=st.sampled_from([ORDER_13, ORDER_37]),
       quad=st.sampled_from(list(Quadrature)))
@settings(max_examples=40, deadline=None)
def test_similarity_covariance_fuzzed(pair, order, quad):
    # Solving P A P^-1 from P x0 gives P times the solution for A.
    A, P = pair
    x0 = np.linspace(1.0, -0.5, len(A))
    config = SolveConfig(grid=_grid(0.02, 1.0), quadrature=quad)
    base = solve_matrix(CauchyProblem(A=A, x0=x0, t0=0.0, order=order), config).states
    conj = solve_matrix(CauchyProblem(A=P @ A @ np.linalg.inv(P), x0=P @ x0, t0=0.0,
                                      order=order), config).states
    ref = base @ P.T
    assert np.max(np.abs(conj - ref) / (1.0 + np.abs(ref))) <= 1e-10


@given(lam=st.floats(-5.0, 5.0).filter(lambda v: abs(v) >= 1e-3),
       step=st.sampled_from([0.01, 0.05, 0.25]).flatmap(
           lambda h: st.tuples(st.just(h), st.integers(1, round(2.0 / h)))))
@settings(max_examples=60, deadline=None)
def test_alpha_one_reduces_to_exp_on_every_path(lam, step):
    # At alpha = 1 the oracle and both backends are exp(lambda u).  u <= 2
    # keeps |z| <= 10, inside the range where the series' rounding bound
    # admits z < 0.
    h, K = step
    grid = _grid(h, h * K)
    ref = np.exp(lam * grid)
    for solve, rel in ((scalar_closed_form, 1e-10), (solve_scalar_rect, 1e-15),
                       (solve_scalar_quad, 1e-15)):
        got = solve(lam, 1.0, ORDER_1, 0.0, grid).values
        assert np.max(np.abs(got - ref) / np.maximum(1.0, ref)) <= rel


@pytest.mark.parametrize("quadrature", list(Quadrature))
def test_alpha_one_exits_with_exp_and_no_term_table(quadrature, monkeypatch):
    # At alpha = 1, r = lambda and H_{1,0} = exp: once the range is
    # checked, _modes returns exp(lambda u) bit for bit, without _terms,
    # on any increasing grid (the rectangle needs no lattice there).
    def no_terms(*args):
        raise AssertionError("_terms ran at alpha = 1")

    monkeypatch.setattr("fraclode.solver._terms", no_terms)
    t0 = 0.25
    times = t0 + np.array([0.01, 0.02, 0.05, 0.3, 1.0, 1.7])
    lams = np.array([-3.5, -0.2, 1e-200, 0.7, 2.0])
    got_times, Y = _modes(lams, ORDER_1, t0, times, quadrature)
    assert np.array_equal(got_times, times)
    assert np.array_equal(Y, np.exp(np.outer(times - t0, lams)))
    solve = solve_scalar_rect if quadrature is Quadrature.RECTANGLE else solve_scalar_quad
    for lam in lams:
        got = solve(lam, 1.0, ORDER_1, t0, times).values
        assert np.array_equal(got, np.exp((times - t0) * lam))
    # The range check still runs first: e^(lambda u) past floating range,
    # and a rate past it, raise OverflowError_.
    for lam, u in ((2.0, 400.0), (-1e300, 1e10)):
        with pytest.raises(OverflowError_):
            _modes([lam], ORDER_1, 0.0, [u], quadrature)
        with pytest.raises(OverflowError_):
            solve(lam, 1.0, ORDER_1, 0.0, [u])
    assert np.isfinite(solve(-2.0, 1.0, ORDER_1, 0.0, [400.0]).values).all()


@pytest.mark.parametrize("solve", [solve_scalar_rect, solve_scalar_quad, scalar_closed_form])
@pytest.mark.parametrize("order", [ORDER_13, ORDER_37, approximate_order(199 / 203, tol=1e-12)])
def test_long_grid_solve_allocates_at_most_two_megabytes(solve, order):
    # K = 10^4 as in the long-grid case: the kernels, spectra and terms are
    # formed one block at a time, so no per-solve transient spans every
    # term (an all-terms power table at 199/203 peaked at 3.45 MB).
    grid = 1e-4 * np.arange(1, 10_001)
    tracemalloc.start()
    try:
        values = solve(-2.0, 1.0, order, 0.0, grid).values
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.isfinite(values).all()
    assert peak <= 2e6


def test_matrix_zero_eigenvalue_rejected():
    problem = CauchyProblem(
        A=np.diag([0.0, 1.0]), x0=[1.0, 1.0], t0=0.0, order=ORDER_13
    )
    with pytest.raises(ZeroEigenvalueError):
        solve_matrix(problem, SolveConfig(grid=_grid(0.1, 1.0), quadrature=Quadrature.RECTANGLE))


def test_matrix_complex_spectrum_rejected():
    problem = CauchyProblem(
        A=[[0.0, 1.0], [-1.0, 0.0]], x0=[1.0, 0.0], t0=0.0, order=ORDER_13
    )
    with pytest.raises(ComplexSpectrumError):
        solve_matrix(problem, SolveConfig(grid=_grid(0.1, 1.0), quadrature=Quadrature.RECTANGLE))


# ------------------------------------------------------- classical reference


def test_classical_exponential_zero_matrix():
    problem = CauchyProblem(
        A=np.zeros((2, 2)), x0=[3.0, -1.0], t0=0.0, order=ORDER_1
    )
    traj = classical_exponential(problem, [0.5, 1.0, 2.0])
    assert np.max(np.abs(traj.states - np.array([3.0, -1.0]))) == 0.0


def test_classical_exponential_in_blocks_matches_per_time_expm():
    # n = 25 puts 13 times in each expm call: the grid spans several
    # blocks, and a system of size 0 still solves.
    rng = np.random.default_rng(2)
    A = rng.standard_normal((25, 25))
    x0 = rng.standard_normal(25)
    grid = np.linspace(0.05, 2.0, 40)
    problem = CauchyProblem(A=A, x0=x0, t0=0.0, order=ORDER_1)
    got = classical_exponential(problem, grid).states
    ref = np.array([expm(t * A) @ x0 for t in grid])
    assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))
    empty = CauchyProblem(A=np.zeros((0, 0)), x0=[], t0=0.0, order=ORDER_1)
    assert classical_exponential(empty, grid).states.shape == (40, 0)


def test_classical_exponential_memory_is_one_block_beyond_the_states():
    # K = 20000 times at n = 20: the (K, n) states take 3.2 MB, while a
    # (K, n, n) stack of inputs or exponentials would take 64 MB each.
    # Each block of 20 times is reduced to states at once, so the peak
    # stays near the states plus one block's temporaries (about 0.7 MB).
    rng = np.random.default_rng(9)
    A = rng.standard_normal((20, 20)) / 4
    problem = CauchyProblem(A=A, x0=rng.standard_normal(20), t0=0.0, order=ORDER_1)
    grid = np.linspace(1e-3, 2.0, 20000)
    tracemalloc.start()
    try:
        states = classical_exponential(problem, grid).states
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert states.shape == (20000, 20)
    assert peak - states.nbytes < 2e6


def test_classical_exponential_semigroup_spot_check():
    A = np.array([[0.0, 1.0], [2.0, 1.0]])
    problem = CauchyProblem(A=A, x0=[1.0, 1.0], t0=0.0, order=ORDER_1)
    traj = classical_exponential(problem, [0.3, 1.0])
    # x(1.0) = expm(0.7 A) x(0.3)
    import scipy.linalg

    relay = scipy.linalg.expm(0.7 * A) @ traj.states[0]
    assert relay == pytest.approx(traj.states[1], rel=1e-12)


# ------------------------------------------------------- perturbation ladder


def test_ladder_trivial_on_already_simple_matrix():
    problem = CauchyProblem(
        A=np.diag([2.0, 3.0]), x0=[1.0, 1.0], t0=0.0, order=ORDER_1
    )
    grid = np.linspace(0.1, 1.0, 20)
    traj, gaps = solve_limit_perturbation(
        problem, np.zeros((2, 2)), [1e-2, 1e-3],
        SolveConfig(grid=grid, quadrature=Quadrature.RECTANGLE),
    )
    assert gaps == [0.0]
    ref = classical_exponential(problem, grid)
    assert np.max(np.abs(traj.states - ref.states)) == 0.0


def test_ladder_jordan_block_converges_to_expm():
    problem = CauchyProblem(
        A=[[1.0, 1.0], [0.0, 1.0]], x0=[1.0, 1.0], t0=0.0, order=ORDER_1
    )
    grid = np.linspace(0.1, 1.5, 100)
    traj, gaps = solve_limit_perturbation(
        problem, np.diag([0.0, 1.0]), [1e-2, 1e-3, 1e-4],
        SolveConfig(grid=grid, quadrature=Quadrature.RECTANGLE),
    )
    assert all(b < a for a, b in zip(gaps, gaps[1:]))
    ref = classical_exponential(problem, grid)
    assert np.max(np.abs(traj.states - ref.states)) <= 1e-3


def test_ladder_rotation_raises_complex_spectrum():
    # The rungs' eigenvalues are eps/2 +- i sqrt(1 - eps^2/4): complex on
    # the classical path (q = 0) and on the spectral one (q > 0).
    for order in (ORDER_1, ORDER_13):
        problem = CauchyProblem(
            A=[[0.0, 1.0], [-1.0, 0.0]], x0=[1.0, 0.0], t0=0.0, order=order
        )
        with pytest.raises(ComplexSpectrumError):
            solve_limit_perturbation(
                problem, np.diag([1.0, 0.0]), [1e-2, 1e-3],
                SolveConfig(grid=np.linspace(0.1, 1.0, 10), quadrature=Quadrature.RECTANGLE),
            )


def test_ladder_rungs_solve_a_plus_eps_b():
    # The Jordan block plus eps diag(0, 1) has the simple spectrum
    # {1, 1 + eps}; the last rung is exactly the solve of that matrix.
    A, B = np.array([[1.0, 1.0], [0.0, 1.0]]), np.diag([0.0, 1.0])
    problem = CauchyProblem(A=A, x0=[1.0, 1.0], t0=0.0, order=ORDER_13)
    config = SolveConfig(grid=_grid(0.01, 0.5), quadrature=Quadrature.RECTANGLE)
    traj, _ = solve_limit_perturbation(problem, B, [1e-2, 1e-3], config)
    rung = CauchyProblem(A=A + 1e-3 * B, x0=[1.0, 1.0], t0=0.0, order=ORDER_13)
    assert eig_real_simple(rung.A).lambdas == pytest.approx([1.0, 1.001], abs=1e-12)
    assert np.array_equal(traj.states, solve_matrix(rung, config).states)


def test_ladder_validation():
    problem = CauchyProblem(
        A=[[1.0, 1.0], [0.0, 1.0]], x0=[1.0, 1.0], t0=0.0, order=ORDER_1
    )
    config = SolveConfig(grid=np.linspace(0.1, 1.0, 10), quadrature=Quadrature.RECTANGLE)
    B = np.diag([0.0, 1.0])
    with pytest.raises(DomainError):
        solve_limit_perturbation(problem, B, [1e-2], config)  # too short
    with pytest.raises(DomainError):
        solve_limit_perturbation(problem, B, [1e-3, 1e-2], config)  # increasing
    with pytest.raises(DomainError):
        solve_limit_perturbation(problem, B, [1e-2, -1e-3], config)  # sign
    with pytest.raises(DomainError, match="shape"):
        solve_limit_perturbation(problem, np.eye(3), [1e-2, 1e-3], config)


def test_ladder_growing_gaps_flagged():
    # Rungs 1e-2 -> 9.9e-3 are nearly identical, then 9.9e-3 -> 1e-6 jumps:
    # the gap sequence grows, which is reported as non-convergence.
    problem = CauchyProblem(
        A=[[1.0, 1.0], [0.0, 1.0]], x0=[1.0, 1.0], t0=0.0, order=ORDER_1
    )
    with pytest.raises(NonConvergenceError):
        solve_limit_perturbation(
            problem, np.diag([0.0, 1.0]), [1e-2, 9.9e-3, 1e-6],
            SolveConfig(grid=np.linspace(0.1, 1.5, 50), quadrature=Quadrature.RECTANGLE),
        )
