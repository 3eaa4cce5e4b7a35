"""Tests for the diagnostics: Grunwald-Letnikov differencing, the residual
metric, the stability verdict, and the alpha-ladder study."""

import inspect
import math
import warnings

import numpy as np
import pytest

from fraclode import (
    CauchyProblem,
    DomainError,
    MLParams,
    NonUniformGridError,
    OverflowError_,
    Quadrature,
    Trajectory,
    Verdict,
    approximate_order,
    convergence_study,
    gl_derivative,
    gl_weights,
    mittag_leffler,
    residual_nev,
    solve_scalar_quad,
    solve_scalar_rect,
    stability_verdict,
)
from first_order import alpha_derivative_at_one, first_order_constant

ALPHA_LADDER = [1 / 3, 3 / 7, 199 / 203, 1999 / 2003, 1.0]


# ---------------------------------------------------------------- weights


def test_gl_weights_first_two_exact():
    for alpha in (0.25, 0.5, 1 / 3, 1.0):
        w = gl_weights(alpha, 5)
        assert w[0] == 1.0
        assert w[1] == -alpha


def test_gl_weights_alpha_one_is_backward_difference():
    w = gl_weights(1.0, 6)
    assert w[0] == 1.0 and w[1] == -1.0
    assert np.max(np.abs(w[2:])) == 0.0


def test_gl_weights_partial_sums_tend_to_zero():
    # sum_j w_j = (1-1)^alpha = 0; partial sums shrink toward it.
    for alpha in (0.3, 0.5, 0.9):
        w = gl_weights(alpha, 5000)
        partial = np.cumsum(w)
        # Tail decays like J^(-alpha)/Gamma(1-alpha) -- slow, so only the
        # trend and a loose magnitude are asserted.
        assert abs(partial[-1]) < abs(partial[10])
        assert abs(partial[-1]) < 2.0 * 5000.0 ** (-alpha)


@pytest.mark.parametrize("count", [0, -1, 2.0, 2.5])
def test_gl_weights_count_must_be_a_positive_integer(count):
    # 0 gave an IndexError from w[0], -1 a ValueError from np.empty.
    with pytest.raises(DomainError, match="count must be an integer >= 1"):
        gl_weights(0.5, count)


# ---------------------------------------------------------------- derivative


def test_gl_derivative_alpha_one_of_identity():
    h = 0.01
    t = h * np.arange(1, 101)
    d = gl_derivative(t, 1.0, h)
    assert np.max(np.abs(d[1:] - 1.0)) <= 1e-10


def test_gl_derivative_of_constant_half_order():
    # D^{1/2} 1 = t^{-1/2} / Gamma(1/2); error shrinks under h-halving.
    errs = []
    for h in (0.01, 0.005):
        t = h * np.arange(1, int(round(1.0 / h)) + 1)
        d = gl_derivative(np.ones_like(t), 0.5, h)
        ref = t ** (-0.5) / math.gamma(0.5)
        errs.append(float(np.max(np.abs(d - ref)[len(t) // 10 :])))
    assert errs[1] < errs[0]


def test_gl_derivative_power_rule_half_order():
    # D^{1/2} t = t^{1/2} / Gamma(3/2).
    errs = []
    for h in (0.01, 0.005):
        t = h * np.arange(1, int(round(1.0 / h)) + 1)
        d = gl_derivative(t, 0.5, h)
        ref = np.sqrt(t) / math.gamma(1.5)
        errs.append(float(np.max(np.abs(d - ref)[len(t) // 10 :])))
    assert errs[1] < errs[0]


def test_gl_derivative_validation():
    with pytest.raises(DomainError):
        gl_derivative([1.0, 2.0], 0.5, 0.0)
    with pytest.raises(DomainError):
        gl_derivative([1.0], 0.5, 0.1)


def test_gl_derivative_at_a_subnormal_step():
    # h^(-0.998) at h = 5e-324 is past floating range, where Python's pow
    # raises OverflowError; the difference of tiny samples is not.  A numpy
    # float h, whose power gives inf rather than raising, behaves the same.
    alpha = 0.998
    for h in (5e-324, np.float64(5e-324)):
        d = gl_derivative([0.0, 1e-317, 2e-317], alpha, h)
        assert np.isfinite(d).all() and d[0] == 0.0
        assert d[1] == pytest.approx(math.exp(math.log(1e-317) - alpha * math.log(h)), rel=1e-12)
        with pytest.raises(OverflowError_, match="passes floating range"):
            gl_derivative([0.0, 1.0, 2.0], alpha, h)


def test_gl_derivative_past_floating_range_raises_without_a_warning():
    # 1.5e308 * 0.1^-0.5 overflows: an error, not a RuntimeWarning and inf.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OverflowError_, match="passes floating range"):
            gl_derivative([0.0, 1e308, -1e308], 0.5, 0.1)


# ---------------------------------------------------------------- residual


def _problem(A, x0, t0: float = 0.0, alpha: float = 1 / 3) -> CauchyProblem:
    return CauchyProblem(A=A, x0=x0, t0=t0, order=approximate_order(alpha, tol=1e-12))


def test_residual_exact_exponential_alpha_one():
    # At alpha = 1, GL is the first backward difference: truncation
    # ~ h/2 * max|x''| = 0.02 on the exact exponential.  The study's
    # alpha = 1 row uses an exact differentiator instead (see
    # test_study_alpha_one_row_is_machine_exact).
    t = 0.01 * np.arange(1, 101)
    traj = Trajectory(times=t, states=np.exp(-2.0 * t))
    nev = residual_nev(_problem([[-2.0]], [1.0], alpha=1.0), traj)
    assert nev <= 0.5 * 0.01 * 4.0 * 1.05


def test_residual_constant_trajectory_zero_matrix():
    # x = x0 is the solution for A = 0 at every order: x - x0 is 0.
    t = 0.01 * np.arange(1, 51)
    traj = Trajectory(times=t, states=np.ones((50, 2)))
    for alpha in (1 / 3, 1.0):
        assert residual_nev(_problem(np.zeros((2, 2)), [1.0, 1.0], alpha=alpha), traj) == 0.0


@pytest.mark.parametrize("alpha", [1 / 3, 3 / 7])
def test_residual_is_caputo_derivative_of_a_ramp(alpha):
    # x = x0 + (t - t0), A = 0: the residual is D^alpha of u = t - t0,
    # u^(1 - alpha)/Gamma(2 - alpha), largest at u_K; GL is O(h) there.
    # The lower terminal is t0 and x0 drops out, so neither moves nev.
    errors = []
    for h in (0.01, 0.005):
        u = h * np.arange(1, int(round(1.0 / h)) + 1)
        exact = u[-1] ** (1.0 - alpha) / math.gamma(2.0 - alpha)
        nevs = [residual_nev(_problem([[0.0]], [x0], t0, alpha),
                             Trajectory(times=t0 + u, states=x0 + u))
                for x0 in (0.0, 5.0) for t0 in (0.0, 0.3)]
        assert max(nevs) - min(nevs) <= 1e-12
        errors.append(abs(nevs[0] - exact))
        assert errors[-1] <= h
    assert errors[1] < errors[0]


def test_residual_of_a_diagonal_system_is_the_worse_component():
    # Components of a diagonal system are separate scalar problems; the
    # max-abs residual is the larger of theirs, bit for bit.
    order = approximate_order(3 / 7, tol=1e-12)
    grid = 0.2 + 0.01 * np.arange(1, 101)
    lams, x0 = (-2.0, 0.7), (1.0, -0.5)
    scalar = [solve_scalar_quad(lam, y0, order, 0.2, grid) for lam, y0 in zip(lams, x0)]
    each = [residual_nev(CauchyProblem(A=[[lam]], x0=[y0], t0=0.2, order=order), traj)
            for lam, y0, traj in zip(lams, x0, scalar)]
    stacked = Trajectory(times=grid, states=np.column_stack([t.values for t in scalar]))
    problem = CauchyProblem(A=np.diag(lams), x0=x0, t0=0.2, order=order)
    assert residual_nev(problem, stacked) == max(each)


@pytest.mark.parametrize("backend", [Quadrature.RECTANGLE, Quadrature.SIMPSON])
def test_study_nev_is_residual_nev(backend):
    a, x0, t0, h, K = -2.0, 1.5, 0.3, 0.01, 100
    rows = convergence_study(a, [1 / 3, 3 / 7], t0=t0, t_end=t0 + K * h, h=h,
                             backend=backend, x0=x0)
    grid = t0 + h * np.arange(1, K + 1)
    solve = solve_scalar_rect if backend is Quadrature.RECTANGLE else solve_scalar_quad
    for row in rows:
        order = approximate_order(row.alpha)
        traj = solve(a, x0, order, t0, grid)
        assert row.nev == residual_nev(CauchyProblem(A=[[a]], x0=[x0], t0=t0, order=order), traj)
        # Bit for bit the residual with the study's own h, which the
        # residual recovers from the grid as (t_K - t0)/K.
        d = gl_derivative(np.concatenate(([0.0], traj.values - x0)), order.value, h)[1:]
        assert row.nev == float(np.max(np.abs(d - a * traj.values)[1:]))


def test_residual_validation():
    problem = _problem([[0.0]], [1.0], t0=0.0)
    irregular = Trajectory(times=[0.1, 0.2, 0.5], states=np.ones((3, 1)))
    with pytest.raises(NonUniformGridError):
        residual_nev(problem, irregular)
    # Uniform, but not starting one step after t0.
    late = Trajectory(times=[0.2, 0.3, 0.4], states=np.ones((3, 1)))
    with pytest.raises(NonUniformGridError):
        residual_nev(problem, late)
    with pytest.raises(DomainError):
        residual_nev(problem, Trajectory(times=[0.1], states=np.ones((1, 1))))
    with pytest.raises(DomainError):
        residual_nev(problem, Trajectory(times=[0.1, 0.2], states=np.ones((2, 2))))
    # The study's alpha = 1 differentiator needs nonzero samples: x0 = 0
    # gives 0/0.
    with pytest.raises(DomainError):
        convergence_study(-2.0, [1.0], t0=0.0, t_end=0.5, h=0.01,
                          backend=Quadrature.RECTANGLE, x0=0.0)


# ---------------------------------------------------------------- stability


def test_stability_negative_spectrum():
    report = stability_verdict(np.diag([-2.0, -1.0]))
    assert report.verdict is Verdict.ASYMPTOTICALLY_STABLE
    assert report.eigenvalues == pytest.approx([-2.0, -1.0])


def test_stability_positive_eigenvalue():
    assert stability_verdict([[2.0]]).verdict is Verdict.UNSTABLE
    assert stability_verdict(np.diag([-1.0, 2.0])).verdict is Verdict.UNSTABLE


def test_stability_inconclusive_cases():
    rotation = stability_verdict([[0.0, 1.0], [-1.0, 0.0]])
    assert rotation.verdict is Verdict.INCONCLUSIVE
    assert rotation.non_real
    zero = stability_verdict(np.diag([0.0, -1.0]))
    assert zero.verdict is Verdict.INCONCLUSIVE


def test_stability_non_real_spectrum_with_positive_eigenvalue():
    # blockdiag([[0, 1], [-1, 0]], [[1]]): eigenvalues +-i and 1.  The
    # real positive eigenvalue decides, and the spectrum is not reported.
    A = np.zeros((3, 3))
    A[:2, :2] = [[0.0, 1.0], [-1.0, 0.0]]
    A[2, 2] = 1.0
    report = stability_verdict(A)
    assert report.verdict is Verdict.UNSTABLE
    assert report.non_real and report.eigenvalues is None


def test_stability_of_a_decaying_spiral():
    # lambda = -0.5 +- 2i: |arg lambda| > pi/2 >= alpha pi/2 at every alpha.
    report = stability_verdict([[-0.5, 2.0], [-2.0, -0.5]])
    assert report.verdict is Verdict.ASYMPTOTICALLY_STABLE
    assert report.non_real and report.eigenvalues is None


def test_stability_that_depends_on_alpha_is_inconclusive():
    # lambda = 1 +- 10i: |arg lambda| = 1.471 exceeds alpha pi/2 at
    # alpha = 1/3 (0.524) but not at alpha = 1 (1.571).
    report = stability_verdict([[1.0, 10.0], [-10.0, 1.0]])
    assert report.verdict is Verdict.INCONCLUSIVE
    assert report.non_real and report.eigenvalues is None


def test_stability_of_a_spiral_with_a_positive_real_eigenvalue():
    A = np.zeros((3, 3))
    A[:2, :2] = [[-0.5, 2.0], [-2.0, -0.5]]
    A[2, 2] = 0.5
    report = stability_verdict(A)
    assert report.verdict is Verdict.UNSTABLE
    assert report.non_real and report.eigenvalues is None


def test_stability_of_an_empty_system():
    # No eigenvalue is real and non-negative, so the first rule holds
    # vacuously; np.max of the empty imaginary parts raised ValueError.
    report = stability_verdict(np.zeros((0, 0)))
    assert report.verdict is Verdict.ASYMPTOTICALLY_STABLE
    assert report.eigenvalues == [] and not report.non_real


def test_stability_permutation_invariance():
    a = stability_verdict(np.diag([-3.0, -1.0, -2.0]))
    b = stability_verdict(np.diag([-1.0, -2.0, -3.0]))
    assert a.verdict is b.verdict
    assert a.eigenvalues == pytest.approx(b.eigenvalues)


# ---------------------------------------------------------------- study


def test_study_alpha_one_row_is_machine_exact():
    rows = convergence_study(-2.0, [1.0], t0=0.0, t_end=1.01, h=0.01,
                             backend=Quadrature.RECTANGLE)
    assert rows[0].sup_deviation <= 1e-9
    assert rows[0].nev <= 1e-9


def test_study_nev_contrast_between_extreme_orders():
    rows = convergence_study(-2.0, [1 / 3, 1.0], t0=0.0, t_end=1.01, h=0.01,
                             backend=Quadrature.RECTANGLE)
    assert rows[0].nev >= 1e6 * rows[1].nev
    assert rows[0].nev > 1.0  # large residual at the smallest order


def test_alpha_derivative_matches_a_central_difference():
    # (E_{1+e}(lam u^(1+e)) - E_{1-e}(lam u^(1-e))) / 2e errs by O(e^2).
    u, e = 0.01 * np.arange(1, 102), 1e-4
    for lam in (-5.0, -2.0, 2.0):
        diff = [(mittag_leffler(MLParams(1 + e), lam * v ** (1 + e))
                 - mittag_leffler(MLParams(1 - e), lam * v ** (1 - e))) / (2 * e)
                for v in u.tolist()]
        got = alpha_derivative_at_one(lam, u)
        assert np.max(np.abs(got - diff)) <= 1e-7 * max(1.0, np.max(np.abs(got)))
    with pytest.raises(ValueError):
        alpha_derivative_at_one(-2.0, [5.01])


def test_near_one_deviation_is_first_order_in_one_minus_alpha():
    # sup_u |x_alpha - e^(lam u)| = C (1 - alpha) + O((1 - alpha)^2), C the
    # largest |d/dalpha x| at alpha = 1: 0.4888 at lam = -2 on this grid.
    # The ratios read 1.0039 at 199/203 and 1.0004 at 1999/2003.
    rows = convergence_study(-2.0, [199 / 203, 1999 / 2003], t0=0.0, t_end=1.01, h=0.01,
                             backend=Quadrature.SIMPSON, order_tol=1e-12)
    C = first_order_constant(-2.0, 0.01 * np.arange(1, 102))
    assert C == pytest.approx(0.4888, abs=1e-4)
    for row in rows:
        ratio = row.sup_deviation / (C * (1.0 - row.alpha))
        assert abs(ratio - 1.0) <= 2.0 * (1.0 - row.alpha)


def test_study_row_order_preserved():
    alphas = [1.0, 1 / 3]
    rows = convergence_study(-2.0, alphas, t0=0.0, t_end=0.5, h=0.01,
                             backend=Quadrature.RECTANGLE)
    assert [r.alpha for r in rows] == alphas


def test_study_simpson_backend_runs():
    rows = convergence_study(
        -2.0, [1 / 3], t0=0.0, t_end=0.5, h=0.01, backend=Quadrature.SIMPSON
    )
    assert math.isfinite(rows[0].sup_deviation)


@pytest.mark.parametrize("backend", [Quadrature.RECTANGLE, Quadrature.SIMPSON])
def test_study_far_from_zero_matches_the_study_at_zero(backend):
    # The study's own grid t0 + h k, with t0 = 100, is uniform only up to
    # the rounding of t, which exceeds 1e-9 h.
    far = convergence_study(-2.0, [1 / 3, 3 / 7], t0=100.0, t_end=100.01, h=1e-5,
                            backend=backend)
    near = convergence_study(-2.0, [1 / 3, 3 / 7], t0=0.0, t_end=0.01, h=1e-5,
                             backend=backend)
    for a, b in zip(far, near):
        assert abs(a.sup_deviation - b.sup_deviation) <= 1e-9
        assert abs(a.nev - b.nev) <= 1e-9
    bent = 100.0 + 1e-5 * np.arange(1, 1001)
    bent[500:] += 3e-6  # one step of 1.3 h
    with pytest.raises(NonUniformGridError):
        residual_nev(_problem([[-2.0]], [1.0], t0=100.0),
                     Trajectory(times=bent, states=np.ones((1000, 1))))


@pytest.mark.parametrize("backend", list(Quadrature))
def test_study_backend_value_is_its_member(backend):
    # "rectangle" once ran the Simpson backend.
    by_value, by_member = (convergence_study(-2.0, [1 / 3, 3 / 7], t0=0.0, t_end=0.5, h=0.01,
                                             backend=b) for b in (backend.value, backend))
    assert by_value == by_member


@pytest.mark.parametrize("bad", ["bogus", None, 1])
def test_study_rejects_any_other_backend_before_any_solve(monkeypatch, bad):
    from fraclode import analysis

    def no_work(*args, **kwargs):
        raise AssertionError("the study built its grid or solved")

    for name in ("_step_grid", "solve_scalar_rect", "solve_scalar_quad"):
        monkeypatch.setattr(analysis, name, no_work)
    with pytest.raises(DomainError, match="'rectangle', 'simpson'"):
        convergence_study(-2.0, [1 / 3], t0=0.0, t_end=1.01, h=0.01, backend=bad)


def test_study_defaults_to_simpson():
    # The rectangle rule reads sup_dev 4653 here: x(1.01) = -4653 at
    # alpha = 0.3 (30001/100003), where the solution is 0.2896.
    assert inspect.signature(convergence_study).parameters["backend"].default \
        is Quadrature.SIMPSON
    [row] = convergence_study(-2.0, [0.3], 0.0, 1.01, 0.01)
    assert row == convergence_study(-2.0, [0.3], 0.0, 1.01, 0.01,
                                    backend=Quadrature.SIMPSON)[0]
    assert row.sup_deviation == pytest.approx(0.396, abs=1e-3)


def test_study_grid_limit_is_checked_before_the_grid_is_built(monkeypatch):
    from fraclode import solver

    def no_grid(*args, **kwargs):
        raise AssertionError("the study built its grid")

    monkeypatch.setattr(np, "arange", no_grid)
    for t0, t_end, h in ((-1e308, 1e308, 1.0), (0.0, 1.0, 1e-7),
                         (0.0, 1.0, 1.0 / (solver.MAX_GRID_POINTS + 1))):
        with pytest.raises(DomainError, match="exceeds the limit"):
            convergence_study(-2.0, [1 / 3], t0=t0, t_end=t_end, h=h,
                              backend=Quadrature.RECTANGLE)


def test_study_validation():
    with pytest.raises(DomainError):
        convergence_study(-2.0, [], t0=0.0, t_end=1.0, h=0.01, backend=Quadrature.RECTANGLE)
    with pytest.raises(DomainError):
        convergence_study(-2.0, [0.5], t0=0.0, t_end=0.0, h=0.01, backend=Quadrature.RECTANGLE)
