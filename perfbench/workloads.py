"""The benchmark's four workloads and the checks of their outputs.

A workload is a list of operations; one pass runs each of them once.
Inputs come from the seed alone.  The seed moves only what leaves the
cost unchanged (initial values, eigenvectors), so passes cost the same
on every seed and the per-layer counts repeat exactly.  Reference
values are computed while the workload is built, before any timing.
"""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

import numpy as np

import checks
import reference

F = Fraction
#: The paper's alpha ladder.
LADDER = (F(1, 3), F(3, 7), F(199, 203), F(1999, 2003), F(1))
#: Orders are solved exactly, not to the CLI's default 1e-6.
ORDER_TOL = 1e-12
#: The CLI documents this order tolerance for `solve` and uses it in `table`.
CLI_ORDER_TOL = 1e-6
#: Times shared by the h and 4h lattices, for the rectangle rate check.
FIXED_TIMES = (0.2, 0.4, 0.6, 0.8, 1.0)
#: Distinct real spectra of both signs.  Their magnitudes stay below
#: about 2, where |lambda^(n/m)| u keeps the exp-sections of the negative
#: eigenvalues free of cancellation trouble.
SPECTRUM_20 = tuple(sorted([-(0.3 + 0.2 * i) for i in range(10)]
                           + [0.3 + 0.2 * i for i in range(10)]))
SPECTRUM_3 = (-1.7, -0.6, 1.3)


@dataclass
class Op:
    """One timed operation.  `check(out, outs)` gets its result and every
    result of the same pass by name; it returns None or a failure reason.
    `fault` names the program fault that makes the operation fail today;
    such failures count in `failed` and leave `correct` true.  `corrupt`
    turns a result into wrong ones its check must reject (the harness
    self-check); by default the largest state is scaled by 1 + 1e-6."""

    name: str
    kind: str
    run: Callable[[], object]
    check: Callable[[object, dict], str | None]
    fault: str | None = None
    corrupt: Callable[[object], list] | None = None


@dataclass
class Workload:
    ops: list[Op]
    #: Operations of a traced pass; the same as `ops` except for `cli`,
    #: whose commands a trace can only see in-process.
    traced_ops: list[Op] = field(default_factory=list)
    #: Peak RSS of this process, or of its children for `cli`.
    rss_of_children: bool = False
    #: Whether the speed factor scales the pass times; not for `cli`,
    #: whose time goes to process start-up, which the kernel does not track.
    scaled: bool = True

    def __post_init__(self) -> None:
        if not self.traced_ops:
            self.traced_ops = self.ops


def _solution(alpha: Fraction, lam: float, us) -> np.ndarray:
    return np.array([float(v) for v in reference.caputo_scalar(alpha, lam, us)])


def _cross_check(rng, cases) -> None:
    """Compare a seeded subsample of series values with Talbot inversion."""
    for i in rng.choice(len(cases), size=min(4, len(cases)), replace=False):
        alpha, lam, u = cases[i]
        series = reference.caputo_scalar(alpha, lam, [u])[0]
        contour = reference.talbot(alpha, lam, u)
        if abs(contour - series) > 1e-20 * max(1.0, abs(series)):
            raise RuntimeError(f"reference series and Talbot inversion disagree at "
                               f"alpha={alpha}, lam={lam}, u={u}: {series} vs {contour}")


def _order(fl, alpha: Fraction):
    return fl.approximate_order(float(alpha), tol=ORDER_TOL)


# ---------------------------------------------------------------- scalar

_SCALAR_PATHS = {"rect": "solve_scalar_rect", "simpson": "solve_scalar_quad",
                 "closed_form": "scalar_closed_form"}


def _scalar_ops(fl, lam: float, y0: float, alpha: Fraction, h: float, K: int,
                paths=("rect", "simpson", "closed_form"), checked=None,
                faults=None) -> list[Op]:
    """Ops solving D^alpha y = lam y, y(0) = y0, on t = h, 2h, ..., K h.

    `checked` are the grid indices compared with the reference (all by
    default).  The rectangle result is checked by its convergence rate
    at FIXED_TIMES against a solve at step 4h.
    """
    grid = h * np.arange(1, K + 1)
    idx = np.arange(K) if checked is None else np.asarray(checked)
    ref = y0 * _solution(alpha, lam, grid[idx])
    z = lam * grid[idx] ** float(alpha)
    q = checks.order_q(alpha)
    fixed = [int(round(t / h)) for t in FIXED_TIMES]  # lattice index k, t = k h
    ref_fixed = y0 * _solution(alpha, lam, [k * h for k in fixed])
    faults = faults or {}

    def check(path):
        def run_check(out, outs):
            if q == 0:
                return checks.close(out[idx], ref, checks.EXACT_RTOL, f"{path} at alpha = 1")
            if path == "simpson":
                return checks.close(out[idx], ref, checks.simpson_rtol(alpha), "simpson")
            if path == "closed_form":
                return checks.closed_form(out[idx], ref, z, y0)
            coarse = float(np.max(np.abs(coarse_at_fixed() - ref_fixed)))
            fine = float(np.max(np.abs(out[fixed_idx] - ref_fixed)))
            return checks.rect_rate(fine, coarse, q)
        return run_check

    fixed_idx = np.array(fixed) - 1
    coarse_cache: list[np.ndarray] = []

    def coarse_at_fixed() -> np.ndarray:
        """The rectangle solution at step 4h, at FIXED_TIMES (made once)."""
        if not coarse_cache:
            coarse = fl.solve_scalar_rect(lam, y0, _order(fl, alpha), 0.0,
                                          4 * h * np.arange(1, K // 4 + 1)).values
            coarse_cache.append(coarse[np.array(fixed) // 4 - 1])
        return coarse_cache[0]

    def stalled(out):
        """A rectangle series that stops converging: step h gives step 4h's values."""
        bad = np.array(out, dtype=float)
        bad[fixed_idx] = coarse_at_fixed()
        return [("rectangle series stalled at step 4h", bad)]

    def runner(path):
        name = _SCALAR_PATHS[path]
        return lambda: getattr(fl, name)(lam, y0, _order(fl, alpha), 0.0, grid).values

    return [Op(name=f"{path} lam={lam:g} alpha={alpha}", kind=path, run=runner(path),
               check=check(path), fault=faults.get(path),
               corrupt=stalled if path == "rect" and q > 0 else None)
            for path in paths]


def ladder(fl, rng) -> Workload:
    """The paper's example: the alpha ladder at lam = -2 and +2 on K = 101
    points, a stiff rung at lam = -5, and the convergence study."""
    y0 = float(rng.uniform(0.5, 2.0))
    h, K = 0.01, 101
    ops: list[Op] = []
    for lam in (-2.0, 2.0):
        for alpha in LADDER:
            ops += _scalar_ops(fl, lam, y0, alpha, h, K)
    # The stiff rung's inputs do not depend on the seed: its failures are
    # the same in every run.
    ml_fault = ("specfun.mittag_leffler cancels in its alternating series for "
                "alpha <= 1/2 and z < -2.5")
    ops += _scalar_ops(fl, -5.0, 1.0, F(1, 3), h, K, paths=("simpson", "closed_form"),
                       faults={"closed_form": ml_fault})
    ops += _scalar_ops(fl, -5.0, 1.0, F(3, 7), h, K, paths=("simpson", "closed_form"),
                       faults={"closed_form": ml_fault,
                               "simpson": "exp_section cancels at |r|u ~ 43, so "
                                          "adaptive Simpson raises QuadratureFailureError"})
    ops += _study_ops(fl, y0, h, K)
    _cross_check(rng, [(a, lam, u) for a in LADDER[:4] for lam in (-2.0, 2.0)
                       for u in (0.05, 0.5, 1.0)]
                 + [(a, -5.0, u) for a in LADDER[:2] for u in (0.05, 0.5, 1.0)])
    return Workload(ops=ops)


def _ladder_reference(alphas, y0: float, grid, h: float):
    """Sup-deviation from y0 e^(-2u) and Caputo residual of the reference
    solution at lam = -2, per alpha (0 at alpha = 1, whose residual the
    study takes with an exact differentiator)."""
    sup, nev = [], []
    for a in alphas:
        x = y0 * _solution(a, -2.0, grid)
        sup.append(float(np.max(np.abs(x - y0 * np.exp(-2.0 * grid)))))
        nev.append(reference.caputo_residual(float(a), -2.0, h, x, y0) if a < 1 else 0.0)
    return sup, nev


def _study_ops(fl, y0: float, h: float, K: int) -> list[Op]:
    """convergence_study at lam = -2 on both backends over the ladder."""
    grid = h * np.arange(1, K + 1)
    ref_sup, ref_nev = _ladder_reference(LADDER, y0, grid, h)
    alphas = [float(a) for a in LADDER]

    def runner(backend):
        return lambda: fl.convergence_study(-2.0, alphas, 0.0, h * K, h,
                                            backend=getattr(fl.Quadrature, backend),
                                            x0=y0, order_tol=ORDER_TOL)

    def check_rect(rows, outs):
        if abs(rows[-1].sup_deviation) > 1e-14 * y0:
            return f"study: rectangle sup_dev {rows[-1].sup_deviation:.3e} at alpha = 1"
        return None

    def check_simpson(rows, outs):
        rect = outs.get("study rect")
        if not rect:
            return "study: the rectangle rows of this pass are missing"
        return checks.ladder([r.sup_deviation for r in rows], ref_sup, LADDER, y0, h,
                             [r.nev for r in rows], ref_nev,
                             nev_rect=[r.nev for r in rect])

    def with_sup(rows, index, value):
        rows = list(rows)
        rows[index] = dataclasses.replace(rows[index], sup_deviation=value)
        return rows

    def corrupt_rect(rows):
        return [("nonzero sup_dev at alpha = 1", with_sup(rows, -1, 1e-3 * y0))]

    def corrupt_simpson(rows):
        return [("non-monotone ladder", with_sup(rows, 2, 2.0 * rows[1].sup_deviation)),
                ("one sup_dev scaled by 1 + 1e-6",
                 with_sup(rows, 0, rows[0].sup_deviation * (1 + 1e-6)))]

    return [Op("study rect", "study", runner("RECTANGLE"), check_rect,
               corrupt=corrupt_rect),
            Op("study simpson", "study", runner("SIMPSON"), check_simpson,
               corrupt=corrupt_simpson)]


def long_grid(fl, rng) -> Workload:
    """K = 10^4 points, h = 1e-4, lam = -2, three orders, three paths."""
    y0 = float(rng.uniform(0.5, 2.0))
    h, K = 1e-4, 10_000
    # A seeded subsample on the 4h lattice, plus the fixed times and ends.
    sub = 4 * rng.choice(np.arange(1, K // 4 + 1), size=256, replace=False) - 1
    fixed = [int(round(t / h)) - 1 for t in FIXED_TIMES]
    checked = np.unique(np.concatenate([sub, fixed, [0, K - 1]]))
    ops: list[Op] = []
    for alpha in LADDER[:3]:
        ops += _scalar_ops(fl, -2.0, y0, alpha, h, K, checked=checked)
    _cross_check(rng, [(a, -2.0, u) for a in LADDER[:3] for u in (1e-4, 0.3, 1.0)])
    return Workload(ops=ops)


# ---------------------------------------------------------------- matrix

def _similar(rng, spectrum):
    """A = S diag(spectrum) S^-1 with S = U diag(sigma) V^T, cond(S) in [10, 100]."""
    n = len(spectrum)
    U, _ = np.linalg.qr(rng.standard_normal((n, n)))
    V, _ = np.linalg.qr(rng.standard_normal((n, n)))
    S = U @ np.diag(np.geomspace(1.0, 10.0 ** rng.uniform(1.0, 2.0), n)) @ V.T
    lam = np.array(spectrum)
    return S, lam, S @ np.diag(lam) @ np.linalg.inv(S)


def matrix(fl, rng) -> Workload:
    """Dense non-normal A with a distinct real spectrum, n = 20 and 3."""
    h, K = 0.01, 101
    grid = h * np.arange(1, K + 1)
    ops: list[Op] = []
    for spectrum in (SPECTRUM_20, SPECTRUM_3):
        S, lam, A = _similar(rng, spectrum)
        x0 = rng.uniform(-1.0, 1.0, len(lam))
        y0 = np.linalg.solve(S, x0)
        n = len(lam)
        for alpha in (F(1, 3), F(3, 7), F(199, 203), F(1)):
            modes = np.array([_solution(alpha, l, grid) for l in lam]).T  # K x n
            ref = (modes * y0) @ S.T
            ops += _matrix_ops(fl, A, x0, S, lam, y0, alpha, grid, ref, n)
    return Workload(ops=ops)


def _matrix_ops(fl, A, x0, S, lam, y0, alpha, grid, ref, n) -> list[Op]:
    def runner(backend):
        def run():
            problem = fl.CauchyProblem(A=A, x0=x0, t0=0.0, order=_order(fl, alpha))
            config = fl.SolveConfig(grid=grid, quadrature=getattr(fl.Quadrature, backend))
            return fl.solve_matrix(problem, config).states
        return run

    if alpha == 1:
        check = lambda out, outs: checks.close(out, ref, checks.EXACT_RTOL,  # noqa: E731
                                               "classical")
        return [Op(f"classical n={n}", "classical", runner("RECTANGLE"), check)]

    expected: list[np.ndarray] = []

    def check_rect(out, outs):
        if not expected:  # S times per-eigenvalue scalar solves, made once
            order = _order(fl, alpha)
            modes = np.array([fl.solve_scalar_rect(l, c, order, 0.0, grid).values
                              for l, c in zip(lam, y0)]).T
            expected.append(modes @ S.T)
        return checks.close(out, expected[0], checks.COVARIANCE_RTOL,
                            "similarity covariance")

    check_simpson = lambda out, outs: checks.close(  # noqa: E731
        out, ref, checks.simpson_rtol(alpha), "simpson")
    return [Op(f"rect n={n} alpha={alpha}", "rect", runner("RECTANGLE"), check_rect),
            Op(f"simpson n={n} alpha={alpha}", "simpson", runner("SIMPSON"), check_simpson)]


# ---------------------------------------------------------------- cli

def cli(fl, rng, root: str, tmp: str) -> Workload:
    """Fresh `python -m fraclode` processes: a scalar Simpson solve, an
    n = 3 alpha = 1 solve and the paper's ladder through `table`."""
    y0 = float(rng.uniform(0.5, 2.0))
    S, lam, A = _similar(rng, SPECTRUM_3)
    x0 = rng.uniform(-1.0, 1.0, 3)
    times = 0.01 + 0.01 * np.arange(101)  # how the CLI expands its grid object
    grid = {"start": 0.01, "end": 1.01, "step": 0.01}
    specs = {
        "solve_simpson": {"A": [[-2.0]], "x0": [y0], "t0": 0.0, "alpha": 1 / 3,
                          "grid": grid, "method": "simpson"},
        "solve_classical": {"A": A.tolist(), "x0": x0.tolist(), "t0": 0.0,
                            "alpha": 1.0, "grid": grid},
        "table": {"a": -2.0, "alphas": [float(a) for a in LADDER],
                  "interval": [0.01, 1.01], "h": 0.01, "method": "simpson"},
    }
    paths = {}
    for name, spec in specs.items():
        paths[name] = os.path.join(tmp, f"{name}.json")
        with open(paths[name], "w", encoding="utf-8") as fh:
            json.dump(spec, fh)

    # References.  `table` solves each alpha at the order the CLI documents
    # (within 1e-6), so its 1999/2003 row is 999/1001.
    ref_simpson = y0 * _solution(F(1, 3), -2.0, times)
    ref_classical = (np.exp(np.outer(times, lam)) * np.linalg.solve(S, x0)) @ S.T
    table_orders = [reference.odd_order(float(a), CLI_ORDER_TOL) for a in LADDER]
    ref_sup, ref_nev = _ladder_reference(table_orders, 1.0, 0.01 * np.arange(1, 102), 0.01)

    first: dict[str, bytes] = {}

    def check_csv(name, header, verify):
        def run_check(result, outs):
            code, data = result
            if code != 0:
                return f"{name}: exit code {code}"
            first.setdefault(name, data)
            if (msg := checks.identical(data, first[name])) is not None:
                return f"{name}: {msg}"
            table, msg = checks.parse_csv(data, header)
            return msg if msg is not None else verify(table)
        return run_check

    def verify_trajectory(ref, rtol):
        def verify(table):
            if (msg := checks.close(table[:, 0], times, 1e-15, "csv times")) is not None:
                return msg
            return checks.close(table[:, 1:], ref.reshape(len(times), -1), rtol, "csv states")
        return verify

    def verify_table(table):
        if list(table[:, 0]) != specs["table"]["alphas"]:
            return f"table: alpha column {list(table[:, 0])}"
        return checks.ladder(table[:, 1], ref_sup, table_orders, 1.0, 0.01, table[:, 2],
                             ref_nev)

    commands = {
        "solve_simpson": (["solve", "--config", paths["solve_simpson"]], "cli_solve",
                          ["t", "x1"],
                          verify_trajectory(ref_simpson, checks.simpson_rtol(F(1, 3)))),
        "solve_classical": (["solve", "--config", paths["solve_classical"]], "cli_solve",
                            ["t", "x1", "x2", "x3"],
                            verify_trajectory(ref_classical, checks.EXACT_RTOL)),
        "table": (["table", "--config", paths["table"]], "cli_table",
                  ["alpha", "sup_dev", "nev"], verify_table),
    }
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))

    def in_subprocess(argv, out):
        def run():
            code = subprocess.run([sys.executable, "-m", "fraclode", *argv, "--out", out],
                                  cwd=root, env=env, stdout=subprocess.DEVNULL,
                                  stderr=subprocess.DEVNULL, check=False).returncode
            return code, _read(out)
        return run

    def in_process(argv, out):
        def run():
            code = fl.cli.main([*argv, "--out", out])
            return code, _read(out)
        return run

    def corrupt(result):
        code, data = result
        lines = data.decode("utf-8").split("\n")
        cells = lines[1].split(",")
        cells[-1] = repr(float(cells[-1]) * (1 + 1e-6))
        lines[1] = ",".join(cells)
        return [("exit code 3", (3, data)),
                ("one CSV value scaled by 1 + 1e-6", (0, "\n".join(lines).encode()))]

    ops, traced = [], []
    for name, (argv, kind, header, verify) in commands.items():
        out = os.path.join(tmp, f"{name}.csv")
        check = check_csv(name, header, verify)
        ops.append(Op(name, kind, in_subprocess(argv, out), check, corrupt=corrupt))
        traced.append(Op(name, kind, in_process(argv, out), check, corrupt=corrupt))
    return Workload(ops=ops, traced_ops=traced, rss_of_children=True, scaled=False)


def _read(path: str) -> bytes:
    try:
        with open(path, "rb") as fh:
            data = fh.read()
        os.remove(path)
        return data
    except OSError:
        return b""


WORKLOADS = {"ladder": ladder, "long_grid": long_grid, "matrix": matrix, "cli": cli}
