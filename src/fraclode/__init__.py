"""fraclode: solver for the Caputo problem D^alpha x(t) = A x(t),
x(t0) = x0, alpha in (0, 1].

The order is represented as an odd-over-odd rational (2p+1)/(2q+1), which
keeps the solution E_alpha(A (t-t0)^alpha) x0 real through odd roots of
negative eigenvalues.  Two numerical backends (rectangle rule and
Gauss–Jacobi quadrature, named "simpson") share a solution formula built
from sections of the exponential; a Mittag-Leffler series serves as the
independent scalar oracle.
"""

from .analysis import (
    StabilityVerdict,
    StudyRow,
    Verdict,
    convergence_study,
    gl_derivative,
    gl_weights,
    residual_nev,
    stability_verdict,
)
from .errors import (
    ClusteredSpectrumError,
    ComplexSpectrumError,
    DomainError,
    FraclodeError,
    NonConvergenceError,
    NonUniformGridError,
    NoRepresentationError,
    OrderDomainError,
    OverflowError_,
    QuadratureFailureError,
    SingularEigenvectorsError,
    ZeroEigenvalueError,
)
from .linalg import (
    SpectralDecomposition,
    eig_real_simple,
    expm,
)
from .rational_order import FractionalOrder, approximate_order
from .solver import (
    CauchyProblem,
    Quadrature,
    SolveConfig,
    Trajectory,
    classical_exponential,
    scalar_closed_form,
    solve_limit_perturbation,
    solve_matrix,
    solve_scalar_quad,
    solve_scalar_rect,
)
from .specfun import MLParams, mittag_leffler

__version__ = "0.1.0"

__all__ = [
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
