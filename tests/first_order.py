"""The first-order law by which the solution tends to the exponential as
the order tends to one.

With x0 = 1 the solution is x_alpha(u) = E_alpha(lam u^alpha), and at
alpha = 1

    d/dalpha E_alpha(lam u^alpha) = lam u e^(lam u) ln u
                                    - sum_{k>=1} k psi(k+1) (lam u)^k / k!,

where psi(k+1) = H_k - gamma.  So sup_u |x_alpha(u) - e^(lam u)| is
C (1 - alpha) + O((1 - alpha)^2), with C = max_u |d/dalpha x_alpha(u)|.
"""

import math

import numpy as np

#: Largest |lam u| at which the alternating series is summed: its terms
#: reach about 10^4 there, so its rounding stays near 1e-12.
MAX_ABS_LAMBDA_U = 10.0
#: Terms summed: the next, below 10^80 / 79!, is under 1e-36.
TERMS = 80


def alpha_derivative_at_one(lam, u):
    """d/dalpha E_alpha(lam u^alpha) at alpha = 1, for each u > 0."""
    u = np.asarray(u, dtype=float)
    x = lam * u
    if not np.all(np.abs(x) <= MAX_ABS_LAMBDA_U):
        raise ValueError(f"|lam u| must be at most {MAX_ABS_LAMBDA_U}")
    j = np.arange(1, TERMS)
    psi = np.cumsum(1.0 / j) - np.euler_gamma  # psi(k + 1) for k = 1, 2, ...
    # k (lam u)^k / k! = x^k / (k - 1)! = x * prod_{i < k} (x / i)
    ratios = np.hstack([np.ones((x.size, 1)), x.reshape(-1, 1) / j[:-1]])
    terms = psi * x.reshape(-1, 1) * np.cumprod(ratios, axis=1)
    series = np.array([math.fsum(row) for row in terms.tolist()])
    return x * np.exp(x) * np.log(u) - series.reshape(x.shape)


def first_order_constant(lam, u):
    """C(lam, T) = max over the grid u of |d/dalpha x_alpha(u)| at alpha = 1."""
    return float(np.max(np.abs(alpha_derivative_at_one(lam, u))))
