"""Error taxonomy shared by all fraclode modules.

Class names double as the stable "variant" identifiers reported by the
CLI, so renaming one is a breaking change.
"""


class FraclodeError(Exception):
    """Base class for all package errors."""


class NoRepresentationError(FraclodeError):
    """No odd-over-odd rational within tolerance up to the denominator bound."""


class DomainError(FraclodeError):
    """Argument outside the documented accuracy domain."""


class NonConvergenceError(FraclodeError):
    """Iteration budget exhausted before the tolerance was met."""


class ComplexSpectrumError(FraclodeError):
    """Matrix has eigenvalues with non-negligible imaginary parts."""


class ClusteredSpectrumError(FraclodeError):
    """Minimum eigenvalue gap below the separation tolerance."""


class SingularEigenvectorsError(FraclodeError):
    """Eigenvector matrix numerically singular or too ill-conditioned."""


class ZeroEigenvalueError(FraclodeError):
    """(Near-)zero eigenvalue: outside the solver's domain, or a negative
    fractional power of it was requested."""


class OverflowError_(FraclodeError):
    """Result entries exceeded floating-point range."""


class OrderDomainError(FraclodeError):
    """Fractional-order parameters outside the representable domain."""


class QuadratureFailureError(FraclodeError):
    """Quadrature did not reach its tolerance: the Gauss–Jacobi rules did
    not settle within their node cap, the Simpson backend's rounding floor
    exceeds SIMPSON_TOL, or adaptive_simpson passed its depth bound."""


class NonUniformGridError(FraclodeError):
    """Operation requires a uniform time grid."""
