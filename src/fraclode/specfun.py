"""Scalar special functions: the m-sections of the exponential and a
series-based Mittag-Leffler evaluator.

The Mittag-Leffler routine is deliberately independent of the solver
modules; it serves as the reference oracle the solution formulas are
checked against.
"""

from __future__ import annotations

import math
import sys
import threading
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NonConvergenceError

#: Documented accuracy domain for the plain power series.
ML_MAX_ABS_Z = 30.0
#: Largest rounding bound 2^-52 sum_k |t_k| of the series, relative to
#: max(1, |result|), that mittag_leffler accepts.
ML_ROUNDING_TOL = 1e-10
#: exp_section stops once a bound puts every later term below SECTION_TOL
#: times the partial sum.
SECTION_TOL = 1e-17
_LOG_SECTION_TOL = math.log(SECTION_TOL)
#: The series stops at the second of two consecutive shrinking terms below this.
ML_TAIL_TOL = 1e-16
#: Most terms mittag_leffler forms at once for a block of points.
ML_BLOCK_ELEMENTS = 2 ** 14
#: Most terms of one point's series (read at each call, so tests can patch it).
ML_MAX_TERMS = 200_000
#: Most Gamma-table entries, summed over its tables, that mittag_leffler
#: keeps across calls: 2^18 holds the table of one series that runs to
#: ML_MAX_TERMS terms (doubled to 262 144 entries, about 25 MB as three
#: lists of floats).  The least recently used tables go first, and a
#: table larger than the bound is not kept.
_ML_TABLE_ENTRIES = 2 ** 18
#: (alpha, beta) -> (lg, sign for z > 0, sign for z < 0), least recently
#: used first.  A kept table is never grown: a call grows its own copy.
_tables: OrderedDict = OrderedDict()
_tables_lock = threading.Lock()


def exp_section(x, m: int, j) -> np.ndarray:
    """H_{m,j}(x) = sum_{i>=0} x^(j+m*i) / (j+m*i)!, elementwise.

    The j-th m-section of the exponential: sum_j H_{m,j} = exp and
    H_{1,0} = exp.  Every term is bounded by X^k / k!, X = max|x|, a
    bound that rises until k passes X.  For x < 0 and m > 1 the terms
    cancel, so the absolute accuracy there is about 1e-16 * e^|x|.

    j may also be a 1-D sequence of ints: the result is then the stack
    (len(j),) + x.shape of those sections, each slice with the bits of
    exp_section(x, m, j_t), from one log|x|, one power loop and one stop
    rule.

    Each element's next term after t_p is bounded: |t_{p+m}| <= |t_p| phi,
    phi = X^m p! / (p+m)!, which falls as p grows and is below 1 past the
    peak.  Wherever phi < 1 the sum may stop at p once
    rho phi <= SECTION_TOL, rho = max |t_p| / |total| over the elements.
    Every later term is then at most 1e-17 |total|, below half an ulp of
    total (at least 2^-54 |total|, about 5.5e-17 |total|), and would leave
    it unchanged, so this stop and any later one return the bits of the
    sum that stops at the first term past the peak below SECTION_TOL times
    each element's partial sum.  A stack checks all its sections at once,
    with the phi of its least power, the largest, so it stops only where
    each section's own check would allow a stop.  At the first power each
    total is its own term, so rho <= 1, and where phi <= SECTION_TOL there
    the sum stops without forming rho.  phi is taken in logs.  A failed
    check predicts rho at the next powers as its own rho times their
    phi's, and no power is checked before that prediction times phi
    reaches SECTION_TOL.  An exact cancellation, total = 0 under a term
    t_p != 0, makes rho infinite; that check predicts nothing, so the next
    power is checked.  A non-finite element raises DomainError: no bound
    holds.
    """
    x = np.asarray(x, dtype=float)
    stacked = not isinstance(j, (int, np.integer))
    js = ([int(v) for v in j] if np.ndim(j) == 1 else [-1]) if stacked else [j]
    if m < 1 or (js and not 0 <= min(js) <= max(js) < m):
        raise DomainError(f"need m >= 1 and j, or each j of a 1-D sequence, in [0, m), "
                          f"got m={m}, j={j}")
    if m == 1:
        return np.exp(x)[None].repeat(len(js), axis=0) if stacked else np.exp(x)
    if not stacked:
        return _sections(x, m, js, x.shape)
    # The rows by parity, then j, as _sections takes them.
    order = sorted(range(len(js)), key=lambda t: (js[t] % 2, js[t]))
    rows = _sections(x, m, [js[t] for t in order], (len(js),) + x.shape)
    return rows if order == sorted(order) else rows[np.argsort(order)]


def _sections(x: np.ndarray, m: int, js: list[int], shape: tuple) -> np.ndarray:
    """exp_section(x, m, j) for m > 1: one section where shape is x.shape,
    else the stack of rows j in js, ordered by parity, then j.  So the
    rows of j = 0 lead, and at each power the rows at odd powers, whose
    terms take the sign of x, are rows[:evens] or rows[evens:]."""
    n, evens = len(js), len(js) - sum([v % 2 for v in js])
    j_min = min(js, default=0)
    stacked = len(shape) > x.ndim
    lo, hi = (float(x.min()), float(x.max())) if x.size else (0.0, 0.0)
    big = max(hi, -lo)
    if not math.isfinite(big):
        raise DomainError(f"x must be finite, got an element with |x| = {big}")
    total, scratch, term = np.empty(shape), np.empty(shape), np.empty(shape)
    zeros = slice(js.count(0)) if stacked else ...  # the rows of j = 0
    if big == 0.0 or not n:  # x^0 / 0! = 1; every other term is 0
        total[...] = 0.0
        if j_min == 0:
            total[zeros] = 1.0
        return total
    log_abs = np.abs(x, out=np.empty(x.shape))  # an array even where x is 0-d
    with np.errstate(divide="ignore"):
        np.log(log_abs, out=log_abs)
    log_big = math.log(big)
    # (total, term, scratch, parity of j) of each run of rows of one parity.
    runs = [(total, term, scratch, js[0] % 2)] if evens in (0, n) else [
        (total[:evens], term[:evens], scratch[:evens], 0),
        (total[evens:], term[evens:], scratch[evens:], 1)]
    base, predicted = 0, -math.inf  # log rho predicted at the powers; -inf: none
    log_fact = math.lgamma(j_min + 1)  # log p!, p = j_min + base, the least power
    while True:
        if stacked:
            # At base 0 a power 0 is formed as the power 1 (0 log 0 is NaN),
            # and its term set to x^0 / 0! = 1 below.
            powers = [max(v + base, 1) for v in js]
            column = np.array([powers, [math.lgamma(p + 1) for p in powers]]).reshape(
                (2, n) + (1,) * x.ndim)
            np.multiply(log_abs, column[0], out=term)
            term -= column[1]
            np.exp(term, out=term)
        elif base or j_min:
            np.multiply(log_abs, j_min + base, out=term)
            term -= log_fact
            np.exp(term, out=term)
        if not base and j_min == 0:
            term[zeros] = 1.0
        # The first power starts the sum as 0 + t: total never holds -0.0,
        # so the sign of a zero term is moot.
        for tot, ter, scr, parity in runs:
            partial = tot if base else 0.0
            if lo >= 0.0 or (parity + base) % 2 == 0:  # no x < 0, or an even power
                np.add(partial, ter, out=tot)
            elif hi <= 0.0:
                np.subtract(partial, ter, out=tot)
            else:
                np.add(partial, np.copysign(ter, x, out=scr), out=tot)
        log_fact_next = math.lgamma(j_min + base + m + 1)
        log_phi = m * log_big - log_fact_next + log_fact
        if log_phi < 0.0 and predicted + log_phi <= _LOG_SECTION_TOL:
            phi = math.exp(log_phi)
            if not base and phi <= SECTION_TOL:  # each total is its term: rho <= 1
                return total
            with np.errstate(divide="ignore", invalid="ignore"):
                # 0/0 is NaN, which fmax skips; t/0 is inf.  No x < 0: total >= 0.
                np.divide(term, total if lo >= 0.0 else np.abs(total, out=scratch),
                          out=scratch)
            rho = float(np.fmax.reduce(scratch, axis=None, initial=0.0))
            if rho * phi <= SECTION_TOL:
                return total
            predicted = math.log(rho) if rho < math.inf else -math.inf
        predicted += log_phi
        base, log_fact = base + m, log_fact_next


@dataclass(frozen=True)
class MLParams:
    """Series parameters for E_{alpha,beta}; ML_MAX_TERMS caps the series."""

    alpha: float
    beta: float = 1.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.alpha) and math.isfinite(self.beta)):
            raise DomainError(f"alpha and beta must be finite, got {self.alpha}, {self.beta}")
        if self.alpha <= 0.0:
            raise DomainError(f"alpha must be positive, got {self.alpha}")


def mittag_leffler(params: MLParams, z: float | np.ndarray) -> float | np.ndarray:
    """E_{alpha,beta}(z) by direct series with exact (fsum) accumulation.

    z is a scalar (returns a float) or an array (returns one of its
    shape).  A non-finite z, alpha or beta raises DomainError before any
    series work.  The terms' Gamma values are tabled once per (alpha,
    beta) and kept across calls (_table, _keep): lg[k] =
    log|Gamma(alpha k + beta)|, +inf at a pole, where 1/Gamma is 0, and
    sign[k], the sign of Gamma, kept as is for z > 0 and times (-1)^k for
    z < 0.  Each term of a point z != 0 is then
    sign[k] * exp(k log|z| - lg[k]), summed in order until two
    consecutive terms are below ML_TAIL_TOL and shrinking, a pole's zero
    term not counting; z = 0 gives 1/Gamma(beta).  A term that overflows
    or whose Gamma over- or underflows off a pole, a sum past double range
    and ML_MAX_TERMS terms without a stop raise NonConvergenceError.  The
    first point that fails raises.

    One former, _ml_magnitudes, forms every term, k log|z| - lg[k]
    (log|z| from math.log) exponentiated by np.exp, and finds every stop.
    An array is summed a block of points at a time.  The largest |z| of a
    window of points is formed alone first, from twice the previous
    window's term count on (64 at first): its term magnitudes bound
    every other point's, so its term count n covers the window and no
    term up to n overflows.  The block is as much of the window as holds
    at most ML_BLOCK_ELEMENTS terms.  _ml_block sums all its points at
    once and returns a point's sum only where it is certified to be
    math.fsum's; any other point takes math.fsum, in index order, and
    the first that fails raises.  A point that does not stop within n
    terms is summed alone, and so is every point of a window whose
    largest |z| does not stop or has a term or a magnitude sum past
    double range: that window raises at its first failing point without
    summing the points past it.  A window whose largest |z| only cancels
    is summed as a block.

    The sum is exact, so the error is the terms' own rounding, about
    2^-52 sum_k |t_k|; each np.exp term is within 1 ulp of math.exp's.
    For z >= 0 every term is positive and that is a relative error of a
    few ulps.  For z < 0 the series alternates and sum_k |t_k| =
    E_{alpha,beta}(|z|) can exceed the result by many orders of
    magnitude; whenever 2^-52 sum_k |t_k| > ML_ROUNDING_TOL *
    max(1, |result|), NonConvergenceError is raised instead of returning
    a value.  A returned value is thus accurate to a small multiple of
    1e-10 absolute, relative once |result| > 1: against 80-digit mpmath
    on z = -15, -14.99, ..., 0 the worst error was 4.3e-10, at alpha = 1
    and z = -12.86.  At
    beta = 1 this admits z < 0 while E_alpha(|z|) stays below about 4e5:
    |z| up to about 13 at alpha = 1, 3.5 at alpha = 1/2, 2.9 at 3/7 and
    2.25 at 1/3.  Arguments with |z| > 30 are rejected.
    """
    zs = np.asarray(z, dtype=float)
    finite = np.isfinite(zs)
    if not finite.all():
        raise DomainError(f"z must be finite, got {zs[~finite][0]}")
    table = _table(params)
    try:
        if zs.ndim == 0:
            return _ml_point(params, float(zs), table)
        flat = zs.ravel()
        out = np.empty(flat.size)
        # A short first block: where an early point fails, the call raises
        # without summing the far end of the array first.
        start, rows, probe = 0, 16, 64
        while start < flat.size:
            rows, n = _ml_span(params, flat[start:start + rows], table, probe)
            block = flat[start:start + rows]
            if n:
                out[start:start + rows] = _ml_block(params, block, n, table)
                # The next window, and its probe: twice this window's term
                # count, which along a sorted grid covers the next window's.
                rows, probe = max(1, ML_BLOCK_ELEMENTS // n), max(64, 2 * n)
            else:
                out[start:start + rows] = [_ml_point(params, zi, table)
                                           for zi in block.tolist()]
            start += block.size
        return out.reshape(zs.shape)
    finally:
        _keep(params, table)


def _table(params: MLParams) -> tuple[list[float], list[float], list[float]]:
    """A copy of the Gamma table kept for (alpha, beta), or an empty one:
    the call grows its own copy, so no call reads a table that another
    grows."""
    key = (params.alpha, params.beta)
    with _tables_lock:
        kept = _tables.get(key)
        if kept is None:
            return [], [], []
        _tables.move_to_end(key)
    lg, pos, neg = kept
    return list(lg), list(pos), list(neg)


def _keep(params: MLParams, table: tuple) -> None:
    """Keep a call's table for (alpha, beta) where it is longer than the
    one kept, then drop the least recently used tables until at most
    _ML_TABLE_ENTRIES entries are kept.  A table whose three lists differ
    in length, as an interrupt inside _grow can leave them, is not kept."""
    key, size = (params.alpha, params.beta), len(table[0])
    if not 0 < size <= _ML_TABLE_ENTRIES or not size == len(table[1]) == len(table[2]):
        return
    with _tables_lock:
        kept = _tables.get(key)
        if kept is not None and len(kept[0]) >= size:
            return
        _tables[key] = table
        _tables.move_to_end(key)
        total = sum(len(lg) for lg, _, _ in _tables.values())
        while total > _ML_TABLE_ENTRIES:
            total -= len(_tables.popitem(last=False)[1][0])


def _ml_span(params: MLParams, window: np.ndarray, table: tuple,
             probe: int) -> tuple[int, int]:
    """(rows, n): the block is the first rows points of window, and n is
    the term count of the window's largest |z|, which bounds every point's
    terms, with rows * n <= ML_BLOCK_ELEMENTS unless rows = 1.  That
    point's terms are formed probe at a time first (_ml_terms).  n = 0
    where that point is 0, outside the domain or does not stop, or where a
    term or its sum passes double range: the window is then summed a point
    at a time, which raises at its first failing point without summing the
    rest.  A sum that only cancels keeps its n: _ml_block raises at the
    block's first failing point, in index order, as that loop would."""
    abs_z = np.abs(window)
    big = float(abs_z.max())
    if big == 0.0 or big > ML_MAX_ABS_Z:
        return window.size, 0
    z = float(window[int(abs_z.argmax())])
    try:
        terms = _ml_terms(params, z, table, probe)
        if terms is None:
            return window.size, 0
        # Past double range math.fsum raises OverflowError, which _ml_block
        # would let escape; below it no sum of the window's points passes it.
        math.fsum(map(abs, terms))
    except (NonConvergenceError, OverflowError):
        return window.size, 0
    return min(window.size, max(1, ML_BLOCK_ELEMENTS // len(terms))), len(terms)


def _ml_block(params: MLParams, block: np.ndarray, n: int, table: tuple) -> np.ndarray:
    """The values of a block whose points' terms are bounded by a series
    that stops within n terms, their terms and stops from _ml_magnitudes.

    Each row's signed terms, zeroed past its stop, are summed at once by
    _certified_sums.  A row takes that sum where it is certified to be
    math.fsum's and its rough rounding bound passes; the other rows take
    the per-point code in index order, so the first failing point raises
    as a loop over the points would: z = 0 and rows with no stop within n
    terms go to _ml_point, and every other row to math.fsum and, past the
    rough bound, to _ml_sum's exact check.
    """
    abs_z = np.abs(block)
    abs_z[abs_z == 0.0] = 1.0  # a zero is summed alone below, its row unread
    # Only a zero's row can overflow: the series _ml_span summed bounds the rest.
    mag, ends = _ml_magnitudes(params, np.array(list(map(math.log, abs_z.tolist()))), n, table)
    # The rounding bound from the row's whole magnitude sum, past its stop
    # too, is at least the exact one to within n ulps: a row below half
    # the check's limit passes it, and only the others take an exact fsum.
    # The largest |z|, whose sum _ml_span checked, bounds these sums.
    rough = mag.sum(axis=1) * 2.0 ** -52
    # Sign the terms in place; the magnitudes are not needed past here.
    pos, neg = (np.array(column[:n]) for column in table[1:])
    mag *= np.where(block[:, None] < 0.0, neg, pos)
    ends[block == 0.0] = 0  # a zero's row is summed alone
    mag[np.arange(n) >= ends[:, None]] = 0.0
    values, certified = _certified_sums(mag)
    alone = ~certified | (rough > 0.5 * ML_ROUNDING_TOL * np.maximum(1.0, np.abs(values)))
    for i in np.flatnonzero(alone).tolist():
        zi, end = float(block[i]), int(ends[i])
        if not end:  # z = 0, or no stop within n terms
            values[i] = _ml_point(params, zi, table)
            continue
        terms = mag[i, :end].tolist()
        result = math.fsum(terms)
        if rough[i] > 0.5 * ML_ROUNDING_TOL * max(1.0, abs(result)):
            result = _ml_sum(params, zi, terms)
        values[i] = result
    return values


#: _certified_sums certifies no row whose largest |term| times its term
#: count reaches this.  Below it no partial sum, math.fsum's or the
#: cascade's, can pass double range: each is within a few ulps of a sum
#: of some of the terms.
_CERTIFIED_MAGNITUDE = 2.0 ** 1020


def _certified_sums(terms: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(res, certified) for the rows of terms, at least one column wide:
    res[i] is row i's sum, and certified[i] proves it is the correctly
    rounded exact sum, which math.fsum returns.

    The rows are summed by a pairwise cascade of error-free TwoSums
    (Knuth): at each level the first half of the columns is added to the
    second, and every rounding error e = x + y - fl(x + y) is kept, so the
    row's exact sum is p + sum(e), p the cascade's last sum (Ogita, Rump &
    Oishi, SIAM J. Sci. Comput. 26, 2005).  res = fl(p + s), s = sum(e)
    in plain floats, level by level, whose error from the exact sum(e),
    in any order of addition, is below
    gamma_N sum|e|, gamma_N = N u / (1 - N u), u = 2^-53, N the term
    count.  With r = p + s - res exactly (TwoSum), |exact - res| is below
    |r| + d, d = 2 gamma_N sum|e|, and where that is below half the
    spacing of |res| the exact sum rounds to res.  Never certified: res =
    0, whose sign fsum takes from its own order, and every subnormal res,
    as half their spacing rounds to 0; a non-finite res, whose spacing is
    NaN; a power of two |res|, whose lower neighbour is half as far; and a
    row whose largest |term| times N reaches _CERTIFIED_MAGNITUDE, where
    fsum may overflow.
    """
    rows, width = terms.shape
    gamma = width * 2.0 ** -53 / (1.0 - width * 2.0 ** -53)
    # Column-major, so each half of a level is one contiguous block.
    level = np.ascontiguousarray(terms.T)
    s, size = np.zeros(rows), np.zeros(rows)  # sum(e) and sum|e|, level by level
    with np.errstate(over="ignore", invalid="ignore"):
        bounded = np.maximum(level.max(axis=0), -level.min(axis=0)) * width < _CERTIFIED_MAGNITUDE
        while width > 1:
            half, odd = width // 2, width % 2
            x, y = level[:half], level[half:2 * half]
            sums = np.empty((half + odd, rows))
            total = np.add(x, y, out=sums[:half])
            back = total - x
            err = total - back
            np.subtract(x, err, out=err)
            np.subtract(y, back, out=back)
            err += back  # (x - (total - back)) + (y - back)
            s += err.sum(axis=0)
            size += np.abs(err, out=err).sum(axis=0)
            if odd:  # the last column joins the next level
                sums[half] = level[width - 1]
            level, width = sums, half + odd
        p = level[0]
        res = p + s
        back = res - p
        r = (p - (res - back)) + (s - back)
        bound = np.abs(r) + 2.0 * gamma * size
        certified = ((bound < 0.5 * np.spacing(np.abs(res))) & bounded
                     & (np.abs(np.frexp(res)[0]) != 0.5))
    return res, certified


def _ml_magnitudes(params: MLParams, log_z: np.ndarray, n: int, table: tuple) -> tuple:
    """(mag, ends) for the points whose log|z| are log_z, the table grown
    to n entries: mag[i, k] = |t_k| = exp(k log_z[i] - lg[k]) for k < n,
    inf where a term overflows, and ends[i] the count of terms up to and
    including row i's stop, 0 where it does not stop within n terms.  A
    row stops at the first k > 0 off a pole with |t_k| <= ML_TAIL_TOL and
    |t_k| <= |t_{k-1}|: terms decay super-geometrically once alpha k +
    beta outgrows |z|, and two consecutive small, shrinking terms bound
    the tail.  A pole's zero term bounds nothing."""
    while len(table[0]) < n:
        _grow(params, table)
    lg = np.array(table[0][:n])
    mag = np.multiply.outer(log_z, np.arange(n))  # k log|z|, as k * log_z rounds
    mag -= lg
    with np.errstate(over="ignore"):  # an overflow raises where a series reaches it
        np.exp(mag, out=mag)
    stops = np.zeros(mag.shape, dtype=bool)
    stops[:, 1:] = (mag[:, 1:] <= ML_TAIL_TOL) & (mag[:, 1:] <= mag[:, :-1]) & (lg[1:] != math.inf)
    return mag, np.where(stops.any(axis=1), stops.argmax(axis=1) + 1, 0)


#: log|Gamma| tabled where Gamma overflows or underflows to 0 off a pole:
#: exp(k log|z| - it) overflows in turn, so the term raises only if a
#: point's series reaches it.
_GAMMA_OUT_OF_RANGE = -sys.float_info.max


def _grow(params: MLParams, table: tuple) -> None:
    """Double the table (lg, sign for z > 0, sign for z < 0), 64 entries at first."""
    lg, pos, neg = table
    for k in range(len(lg), max(64, 2 * len(lg))):
        g = params.alpha * k + params.beta
        log_gamma, sign = math.inf, 1.0
        try:
            if g <= 0.0 and g == math.floor(g):
                pass  # a pole: 1/Gamma is 0
            elif g < 171.0:
                denom = math.gamma(g)
                if denom == 0.0:  # underflow: 1/Gamma is out of range
                    raise OverflowError
                log_gamma, sign = math.log(abs(denom)), math.copysign(1.0, denom)
            else:  # Gamma overflows but the term itself is tame
                log_gamma = math.lgamma(g)
        except OverflowError:
            log_gamma = _GAMMA_OUT_OF_RANGE
        lg.append(log_gamma)
        pos.append(sign)
        neg.append(-sign if k % 2 else sign)


def _ml_point(params: MLParams, z: float, table: tuple) -> float:
    """One point of mittag_leffler, summing the terms up to the stop."""
    if abs(z) > ML_MAX_ABS_Z:
        raise DomainError(f"|z| = {abs(z)} outside documented domain |z| <= {ML_MAX_ABS_Z}")
    terms = _ml_terms(params, z, table)
    if terms is None:
        raise NonConvergenceError(
            f"series for E_({params.alpha},{params.beta})({z}) did not reach "
            f"tail_tol={ML_TAIL_TOL} within {ML_MAX_TERMS} terms"
        )
    return _ml_sum(params, z, terms)


def _ml_sum(params: MLParams, z: float, terms: list[float]) -> float:
    """fsum of a point's terms, or NonConvergenceError where a sum passes
    double range or the rounding bound 2^-52 sum_k |t_k| exceeds
    ML_ROUNDING_TOL * max(1, |sum|)."""
    try:
        result = math.fsum(terms)
        rounding = math.fsum(map(abs, terms)) * 2.0 ** -52
    except OverflowError as exc:
        raise NonConvergenceError(
            f"series for E_({params.alpha},{params.beta})({z}) sums past double range"
        ) from exc
    if rounding > ML_ROUNDING_TOL * max(1.0, abs(result)):
        raise NonConvergenceError(
            f"series for E_({params.alpha},{params.beta})({z}) cancels: "
            f"rounding bound {rounding:.3e} exceeds "
            f"{ML_ROUNDING_TOL:g} * max(1, |sum|)"
        )
    return result


def _ml_terms(params: MLParams, z: float, table: tuple,
              probe: int = 64) -> list[float] | None:
    """The series' terms up to and including the first that stops it, or
    None if ML_MAX_TERMS is reached first; grows table as needed.  The
    magnitudes come from _ml_magnitudes on the one point, over its first
    probe, 2 probe, 4 probe, ... terms, until the first stop or the first
    overflow."""
    k = 0  # the term that overflows
    try:
        if z == 0.0:  # 1/Gamma(beta), then a zero term that stops the series
            g = params.beta
            denom = math.inf if g <= 0.0 and g == math.floor(g) else math.gamma(g)
            if denom == 0.0 or math.isinf(1.0 / denom):  # 1/Gamma out of range
                raise OverflowError
            return [1.0 / denom, 0.0] if ML_MAX_TERMS > 1 else None
        log_z = np.array([math.log(abs(z))])
        n = min(probe, ML_MAX_TERMS)
        while True:
            mag, ends = _ml_magnitudes(params, log_z, n, table)
            end = int(ends[0])
            mag = mag[0, :end or n]
            over = mag == math.inf
            if over.any():
                k = int(over.argmax())
                raise OverflowError
            if end:
                return (mag * (table[2] if z < 0.0 else table[1])[:end]).tolist()
            if n == ML_MAX_TERMS:
                return None
            n = min(2 * n, ML_MAX_TERMS)
    except OverflowError as exc:
        raise NonConvergenceError(
            f"series term k={k} for E_({params.alpha},{params.beta})({z}) "
            f"overflowed double range"
        ) from exc
