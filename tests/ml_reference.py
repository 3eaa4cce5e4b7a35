"""The Mittag-Leffler series as `fraclode.specfun.mittag_leffler` summed it
one scalar z per call, before it took arrays and tabled its Gamma values.

The tests hold the array evaluator to this loop bit for bit: the same
terms, the same stopping rule, the same fsum and rounding check, and the
same error class and message at the same point.
"""

import math

from fraclode.errors import DomainError, NonConvergenceError
from fraclode.specfun import ML_MAX_ABS_Z, ML_ROUNDING_TOL


def series_term(z, k, g):
    """z^k / Gamma(g), routed through logs to dodge intermediate overflow."""
    if g <= 0.0 and g == math.floor(g):
        return 0.0  # 1/Gamma vanishes at poles
    if z == 0.0:
        return 1.0 / math.gamma(g) if k == 0 else 0.0
    sign = -1.0 if (z < 0.0 and k % 2 == 1) else 1.0
    if g < 171.0:
        denom = math.gamma(g)  # finite here: poles were screened above
        if denom == 0.0:
            return 0.0
        mag = math.exp(k * math.log(abs(z)) - math.log(abs(denom)))
        return sign * math.copysign(mag, denom)
    # Large g: Gamma overflows but the term itself is tame.
    return sign * math.exp(k * math.log(abs(z)) - math.lgamma(g))


def per_point_ml(params, z):
    """E_{alpha,beta}(z) for one scalar z, term by term."""
    if abs(z) > ML_MAX_ABS_Z:
        raise DomainError(f"|z| = {abs(z)} outside documented domain |z| <= {ML_MAX_ABS_Z}")
    terms = []
    prev = math.inf
    for k in range(params.max_terms):
        g = params.alpha * k + params.beta
        try:
            t = series_term(z, k, g)
        except OverflowError as exc:
            raise NonConvergenceError(
                f"series term k={k} for E_({params.alpha},{params.beta})({z}) "
                f"overflowed double range"
            ) from exc
        terms.append(t)
        at = abs(t)
        if at <= params.tail_tol and at <= prev and k > 0:
            result = math.fsum(terms)
            rounding = math.fsum(abs(t) for t in terms) * 2.0 ** -52
            if rounding > ML_ROUNDING_TOL * max(1.0, abs(result)):
                raise NonConvergenceError(
                    f"series for E_({params.alpha},{params.beta})({z}) cancels: "
                    f"rounding bound {rounding:.3e} exceeds "
                    f"{ML_ROUNDING_TOL:g} * max(1, |{result:.6g}|)"
                )
            return result
        prev = at
    raise NonConvergenceError(
        f"series for E_({params.alpha},{params.beta})({z}) did not reach "
        f"tail_tol={params.tail_tol} within {params.max_terms} terms"
    )


def per_point_outcome(params, zs):
    """The loop's values over zs in order, or (class, message) of the
    first point that raises."""
    values = []
    for z in zs:
        try:
            values.append(per_point_ml(params, z))
        except (DomainError, NonConvergenceError) as exc:
            return type(exc), str(exc)
    return values
