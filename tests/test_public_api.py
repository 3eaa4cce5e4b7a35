"""The package's public names.  Adding or removing one is a deliberate
edit of PUBLIC below."""

import fraclode

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
