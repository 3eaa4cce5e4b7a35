"""Tests for the odd-over-odd rational order representation."""

import math
import sys
import time
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fraclode import (
    DomainError,
    FractionalOrder,
    NoRepresentationError,
    OrderDomainError,
    approximate_order,
)

# (alpha, expected p, expected q) -- exact odd/odd rationals recover exactly.
EXACT_CASES = [
    (1 / 3, 0, 1),
    (3 / 7, 1, 3),
    (199 / 203, 99, 101),
    (1999 / 2003, 999, 1001),
    (1.0, 0, 0),
]


@pytest.mark.parametrize("alpha,p,q", EXACT_CASES)
def test_exact_recovery(alpha, p, q):
    order = approximate_order(alpha, tol=1e-12, q_max=10**4)
    assert (order.p, order.q) == (p, q)
    assert order.achieved_error <= 1e-12
    assert order.value == pytest.approx(alpha, abs=1e-12)


def test_one_half_needs_large_denominator():
    # Best per-q error for alpha=1/2 is 0.5/(2q+1); first q within 1e-3
    # is q=250 with numerator 251.
    order = approximate_order(0.5, tol=1e-3, q_max=10**5)
    assert (order.p, order.q) == (125, 250)
    assert order.achieved_error == pytest.approx(251 / 501 - 0.5, abs=1e-15)


def test_numerator_denominator_odd():
    for alpha in (0.1, 0.25, 0.734, 0.999):
        order = approximate_order(alpha, tol=1e-4, q_max=10**5)
        assert order.numerator % 2 == 1
        assert order.denominator % 2 == 1
        assert order.achieved_error <= 1e-4


def _brute_force_min_q(alpha: float, tol: float, q_max: int) -> int:
    for q in range(q_max + 1):
        den = 2 * q + 1
        best = min(abs(m / den - alpha) for m in range(1, den + 1, 2))
        if best <= tol:
            return q
    raise AssertionError("no representation in brute-force range")


def test_minimality_against_brute_force():
    import random

    rng = random.Random(20260826)
    for _ in range(20):
        alpha = rng.uniform(0.05, 1.0)
        tol = 10.0 ** rng.uniform(-4, -2)
        order = approximate_order(alpha, tol=tol, q_max=1000)
        assert order.q == _brute_force_min_q(alpha, tol, 1000)
        assert order.achieved_error <= tol


@given(p=st.integers(0, 200), q=st.integers(0, 200))
@settings(max_examples=80, deadline=None)
def test_idempotence_on_exact_rationals(p, q):
    if p > q:
        p, q = q, p
    alpha = (2 * p + 1) / (2 * q + 1)
    order = approximate_order(alpha, tol=1e-15, q_max=10**4)
    assert order.achieved_error <= 1e-15
    assert abs(order.value - alpha) <= 1e-15


@pytest.mark.parametrize("tol", [1.0, 1.1e307, 1e308, sys.float_info.max])
def test_tol_of_one_or_more_gives_alpha_one_without_overflow(tol):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        order = approximate_order(0.3, tol=tol)
    assert (order.p, order.q) == (0, 0)
    assert order.achieved_error == pytest.approx(0.7)


def test_alpha_domain_errors():
    for bad in (0.0, -0.5, 1.0000001, 2.0):
        with pytest.raises(DomainError):
            approximate_order(bad)
    with pytest.raises(DomainError):
        approximate_order(0.5, tol=0.0)
    with pytest.raises(DomainError):
        approximate_order(0.5, tol=1e-6, q_max=0)
    # A float budget was scanned as if it were an integer.
    for q_max in (10.5, 10.0, "10"):
        with pytest.raises(DomainError, match="q_max must be an integer >= 1"):
            approximate_order(0.3, q_max=q_max)


def test_no_representation_in_small_budget():
    with pytest.raises(NoRepresentationError):
        approximate_order(0.5, tol=1e-9, q_max=10)


def test_order_invariants_enforced():
    with pytest.raises(OrderDomainError):
        FractionalOrder(alpha=1.5, p=2, q=1, achieved_error=0.0)
    with pytest.raises(OrderDomainError):
        FractionalOrder(alpha=0.5, p=-1, q=1, achieved_error=0.0)


def test_value_properties():
    order = FractionalOrder(alpha=1 / 3, p=0, q=1, achieved_error=0.0)
    assert order.numerator == 1
    assert order.denominator == 3
    assert math.isclose(order.value, 1 / 3)


def _scan(alpha: float, tol: float, q_max: int):
    """(p, q, error) by the plain per-q scan, or None past q_max."""
    for q in range(q_max + 1):
        den = 2 * q + 1
        m0 = 2 * round((alpha * den - 1.0) / 2.0) + 1
        best = None
        for m in (m0 - 2, m0, m0 + 2):
            if 1 <= m <= den:
                cand = (abs(m / den - alpha), (m - 1) // 2)
                best = cand if best is None or cand < best else best
        if best is not None and best[0] <= tol:
            return best[1], q, best[0]
    return None


def _searched(alpha: float, tol: float, q_max: int):
    try:
        order = approximate_order(alpha, tol=tol, q_max=q_max)
    except NoRepresentationError:
        return None
    return order.p, order.q, order.achieved_error


# Exact odd fractions, fractions nudged off them, and plain floats: the
# first are found early, the others often scan to q_max and are rejected.
_odd_fraction = st.integers(0, 2000).flatmap(
    lambda q: st.integers(0, q).map(lambda p: (2 * p + 1) / (2 * q + 1)))
_alpha = st.one_of(
    _odd_fraction,
    st.tuples(_odd_fraction, st.floats(-1e-6, 1e-6)).map(lambda t: t[0] + t[1]).filter(
        lambda a: 0.0 < a <= 1.0),
    st.floats(1e-9, 1.0, exclude_min=True),
)


@given(alpha=_alpha, log_tol=st.floats(-13.0, -2.0), q_max=st.sampled_from([10, 10**3, 10**5]))
@settings(max_examples=60, deadline=None)
def test_search_matches_plain_scan(alpha, log_tol, q_max):
    tol = 10.0 ** log_tol
    assert _searched(alpha, tol, q_max) == _scan(alpha, tol, q_max)


# The numpy blocks run over q = 0..15, 16..31, 32..63, ..., 32768..65535,
# then 2^16 wide from 65536 (rational_order.MAX_BLOCK).
@pytest.mark.parametrize("alpha,tol,q_max", [
    (1.0, 1e-12, 1), (29 / 31, 1e-13, 10**3), (29 / 33, 1e-13, 10**3),
    (61 / 63, 1e-13, 10**3), (63 / 65, 1e-13, 10**3),
    (2045 / 2047, 1e-13, 10**4), (2047 / 2049, 1e-13, 10**4),
    (131069 / 131071, 1e-14, 2 * 10**5), (131071 / 131073, 1e-14, 2 * 10**5),
    (262143 / 262145, 1e-14, 2 * 10**5),
    (0.5, 1e-3, 10**5), (0.5, 1e-6, 10**5), (0.5, 1e-6, 31), (0.5, 1e-6, 32),
    (0.3, 1e-6, 10**5), (0.7, 1e-6, 10**5), (0.9, 1e-6, 10**5),
    (1 / 3 + 1e-15, 1e-16, 10**3),
])
def test_search_matches_plain_scan_at_block_edges(alpha, tol, q_max):
    assert _searched(alpha, tol, q_max) == _scan(alpha, tol, q_max)


def test_rejection_does_not_scan_in_python():
    # The plain scan takes about 0.1 s to reject 1/2 at the default
    # tolerance and q_max; the block search takes a few ms.
    elapsed = []
    for _ in range(3):
        start = time.perf_counter()
        with pytest.raises(NoRepresentationError):
            approximate_order(0.5)
        elapsed.append(time.perf_counter() - start)
    assert min(elapsed) < 0.05
