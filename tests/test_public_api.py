"""The package's public names and signatures.  Adding or removing a
name, a parameter, a dataclass field or an enum member is a deliberate
edit of PUBLIC or SIGNATURES below."""

import dataclasses
import enum
import inspect
import math
import time
import warnings

import numpy as np
import pytest

import fraclode
import fraclode as fl

PUBLIC = [
    "CauchyProblem",
    "ClusteredSpectrumError",
    "ComplexSpectrumError",
    "DomainError",
    "FraclodeError",
    "FractionalOrder",
    "MLParams",
    "NoRepresentationError",
    "NonConvergenceError",
    "NonUniformGridError",
    "OrderDomainError",
    "OverflowError_",
    "Quadrature",
    "QuadratureFailureError",
    "SingularEigenvectorsError",
    "SolveConfig",
    "SpectralDecomposition",
    "StabilityVerdict",
    "StudyRow",
    "Trajectory",
    "Verdict",
    "ZeroEigenvalueError",
    "approximate_order",
    "classical_exponential",
    "convergence_study",
    "eig_real_simple",
    "expm",
    "gl_derivative",
    "gl_weights",
    "mittag_leffler",
    "residual_nev",
    "scalar_closed_form",
    "solve_limit_perturbation",
    "solve_matrix",
    "solve_scalar_quad",
    "solve_scalar_rect",
    "stability_verdict",
]


def test_all_is_sorted_unique_resolvable_and_pinned():
    names = fraclode.__all__
    assert names == sorted(names)
    assert len(set(names)) == len(names)
    assert [name for name in names if not hasattr(fraclode, name)] == []
    assert names == PUBLIC


#: Parameter names of the public functions, field names of the public
#: dataclasses and member values of the public enums, in order.
SIGNATURES = {
    "CauchyProblem": ["A", "x0", "t0", "order"],
    "FractionalOrder": ["alpha", "p", "q", "achieved_error"],
    "MLParams": ["alpha", "beta"],
    "Quadrature": ["rectangle", "simpson"],
    "SolveConfig": ["grid", "quadrature"],
    "SpectralDecomposition": ["T", "lambdas", "T_inv", "recon_error"],
    "StabilityVerdict": ["verdict", "eigenvalues", "non_real"],
    "StudyRow": ["alpha", "sup_deviation", "nev"],
    "Trajectory": ["times", "states"],
    "Verdict": ["AsymptoticallyStable", "Unstable", "Inconclusive"],
    "approximate_order": ["alpha", "tol", "q_max"],
    "classical_exponential": ["problem", "times"],
    "convergence_study": ["a", "alphas", "t0", "t_end", "h", "backend", "x0", "order_tol"],
    "eig_real_simple": ["A"],
    "expm": ["A"],
    "gl_derivative": ["samples", "alpha", "h"],
    "gl_weights": ["alpha", "count"],
    "mittag_leffler": ["params", "z"],
    "residual_nev": ["problem", "traj"],
    "scalar_closed_form": ["lam", "y0", "order", "t0", "times"],
    "solve_limit_perturbation": ["problem", "B", "eps_ladder", "config"],
    "solve_matrix": ["problem", "config"],
    "solve_scalar_quad": ["lam", "y0", "order", "t0", "times"],
    "solve_scalar_rect": ["lam", "y0", "order", "t0", "grid"],
    "stability_verdict": ["A"],
}


def _signature(obj):
    if dataclasses.is_dataclass(obj):
        return [f.name for f in dataclasses.fields(obj)]
    if isinstance(obj, type) and issubclass(obj, enum.Enum):
        return [member.value for member in obj]
    if inspect.isfunction(obj):
        return list(inspect.signature(obj).parameters)
    assert issubclass(obj, fraclode.FraclodeError), obj  # an error class takes a message
    return None


def test_signatures_are_pinned():
    got = {name: _signature(getattr(fraclode, name)) for name in fraclode.__all__}
    assert {name: sig for name, sig in got.items() if sig is not None} == SIGNATURES


ORDER = fl.approximate_order(1 / 3)
PROBLEM = fl.CauchyProblem(A=[[-2.0]], x0=[1.0], t0=0.0, order=ORDER)
PROBLEM_1 = fl.CauchyProblem(A=[[-2.0]], x0=[1.0], t0=0.0, order=fl.approximate_order(1.0))
CONFIG = fl.SolveConfig(grid=[0.5, 1.0])
SCALAR = {"rect": fl.solve_scalar_rect, "quad": fl.solve_scalar_quad,
          "closed_form": fl.scalar_closed_form}


def _scalar_cases():
    for name, solve in SCALAR.items():
        yield f"{name}.lam", lambda v, s=solve: s(v, 1.0, ORDER, 0.0, [0.5, 1.0])
        yield f"{name}.y0", lambda v, s=solve: s(-2.0, v, ORDER, 0.0, [0.5, 1.0])
        yield f"{name}.t0", lambda v, s=solve: s(-2.0, 1.0, ORDER, v, [0.5, 1.0])
        yield f"{name}.grid", lambda v, s=solve: s(-2.0, 1.0, ORDER, 0.0, [0.5, v])


def _study(**kwargs):
    args = dict(a=-2.0, alphas=[1 / 3], t0=0.0, t_end=0.5, h=0.1, x0=1.0) | kwargs
    return fl.convergence_study(**args)


#: Each public entry point's float arguments, one value substituted.
NON_FINITE_CASES = dict([
    ("approximate_order.alpha", lambda v: fl.approximate_order(v)),
    ("approximate_order.tol", lambda v: fl.approximate_order(0.3, tol=v)),
    ("CauchyProblem.t0", lambda v: fl.CauchyProblem(A=[[-2.0]], x0=[1.0], t0=v, order=ORDER)),
    ("CauchyProblem.A", lambda v: fl.CauchyProblem(A=[[v]], x0=[1.0], t0=0.0, order=ORDER)),
    ("CauchyProblem.x0", lambda v: fl.CauchyProblem(A=[[-2.0]], x0=[v], t0=0.0, order=ORDER)),
    ("solve_matrix.grid", lambda v: fl.solve_matrix(PROBLEM, fl.SolveConfig(grid=[0.5, v]))),
    ("solve_matrix.grid.alpha_one",
     lambda v: fl.solve_matrix(PROBLEM_1, fl.SolveConfig(grid=[0.5, v]))),
    ("classical_exponential.times", lambda v: fl.classical_exponential(PROBLEM_1, [0.5, v])),
    ("Trajectory.times", lambda v: fl.Trajectory(times=[0.5, v], states=[1.0, 1.0])),
    *_scalar_cases(),
    ("convergence_study.a", lambda v: _study(a=v)),
    ("convergence_study.alphas", lambda v: _study(alphas=[v])),
    ("convergence_study.t0", lambda v: _study(t0=v)),
    ("convergence_study.t_end", lambda v: _study(t_end=v)),
    ("convergence_study.h", lambda v: _study(h=v)),
    ("convergence_study.x0", lambda v: _study(x0=v)),
    ("convergence_study.order_tol", lambda v: _study(order_tol=v)),
    ("gl_derivative.alpha", lambda v: fl.gl_derivative(np.ones(4), v, 0.1)),
    ("gl_derivative.h", lambda v: fl.gl_derivative(np.ones(4), 0.5, v)),
    ("MLParams.alpha", lambda v: fl.mittag_leffler(fl.MLParams(alpha=v), 0.5)),
    ("MLParams.beta", lambda v: fl.mittag_leffler(fl.MLParams(alpha=0.5, beta=v), 0.5)),
    ("mittag_leffler.z", lambda v: fl.mittag_leffler(fl.MLParams(alpha=0.5), v)),
    ("solve_limit_perturbation.eps", lambda v: fl.solve_limit_perturbation(
        PROBLEM, [[0.0]], [v, 1e-3], CONFIG)),
    ("expm.A", lambda v: fl.expm([[v]])),
    ("eig_real_simple.A", lambda v: fl.eig_real_simple([[v]])),
    ("stability_verdict.A", lambda v: fl.stability_verdict([[v]])),
])


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("case", sorted(NON_FINITE_CASES))
def test_non_finite_argument_raises_domain_error_at_once(case, value):
    start = time.perf_counter()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(fl.DomainError):
            NON_FINITE_CASES[case](value)
    assert time.perf_counter() - start < 1.0
