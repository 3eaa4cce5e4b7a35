"""Acceptance gate: one test per stated criterion, each printing a single
PASS/FAIL line with the measured quantity.

The solver returns the Caputo solution E_alpha(A (t-t0)^alpha) x0.
Criterion 4 runs the alpha ladder on both backends: 4(i) reads the
deviation from e^{a(t-t0)} off the accurate Simpson rows (the rectangle
rule's O(h^(1/(2q+1))) discretization error is larger than the gaps
between neighbouring rungs, so it cannot rank them), and 4(iii) compares
the Caputo residuals of the two backends row by row.
"""

import json
import math
import time

import numpy as np
import pytest

from fraclode import (
    CauchyProblem,
    ComplexSpectrumError,
    Quadrature,
    SolveConfig,
    approximate_order,
    classical_exponential,
    convergence_study,
    gl_derivative,
    MLParams,
    mittag_leffler,
    scalar_closed_form,
    solve_limit_perturbation,
    solve_matrix,
    solve_scalar_quad,
    solve_scalar_rect,
)
from fraclode.cli import main as cli_main

ALPHA_LADDER = [1 / 3, 3 / 7, 199 / 203, 1999 / 2003, 1.0]


def report(name: str, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} -- {detail}")
    assert ok, f"{name}: {detail}"


def _random_simple(rng, n):
    lams = np.sort(rng.uniform(-1.5, 1.5, size=n))
    while np.min(np.diff(lams)) < 0.2:
        lams = np.sort(rng.uniform(-1.5, 1.5, size=n))
    T = rng.uniform(-1.0, 1.0, size=(n, n)) + 2.0 * np.eye(n)
    A = T @ np.diag(lams) @ np.linalg.inv(T)
    if np.max(np.abs(A)) > 2.0:
        A *= 2.0 / np.max(np.abs(A))
    return A


def test_criterion_1_classical_reduction():
    start = time.time()
    rng = np.random.default_rng(2026)
    order1 = approximate_order(1.0, 1e-12, 10)
    grid = np.linspace(0.1, 2.0, 100)
    worst = 0.0
    for i in range(20):
        n = int(rng.integers(2, 5))
        A = _random_simple(rng, n)
        x0 = rng.uniform(-1.0, 1.0, n)
        problem = CauchyProblem(A=A, x0=x0, t0=0.0, order=order1)
        got = solve_matrix(problem, SolveConfig(grid=grid, quadrature=Quadrature.RECTANGLE))
        ref = classical_exponential(problem, grid)
        worst = max(worst, float(np.max(np.abs(got.states - ref.states))))
    elapsed = time.time() - start
    report(
        "1 (classical reduction)",
        worst <= 1e-10 and elapsed < 5.0,
        f"max-abs error {worst:.3e} (tol 1e-10), {elapsed:.2f}s",
    )


def test_criterion_2_scalar_oracle_agreement():
    start = time.time()
    grid = np.linspace(0.1, 1.1, 101)
    worst = 0.0
    for lam in (2.0, -2.0):
        for alpha in (1 / 3, 3 / 7):
            order = approximate_order(alpha, 1e-12, 10)
            got = solve_scalar_quad(lam, 1.0, order, 0.0, grid).values
            ref = scalar_closed_form(lam, 1.0, order, 0.0, grid).values
            worst = max(worst, float(np.max(np.abs(got - ref) / np.abs(ref))))
    elapsed = time.time() - start
    report(
        "2 (scalar oracle agreement)",
        worst <= 1e-6 and elapsed < 10.0,
        f"sup rel error {worst:.3e} (tol 1e-6), {elapsed:.2f}s",
    )


def test_criterion_3_rectangle_convergence():
    start = time.time()
    order = approximate_order(1 / 3, 1e-12, 10)
    errs = []
    for h in (0.02, 0.01, 0.005):
        grid = h * np.arange(1, int(round(1.0 / h)) + 1)
        got = solve_scalar_rect(-2.0, 1.0, order, 0.0, grid).values
        ref = scalar_closed_form(-2.0, 1.0, order, 0.0, grid).values
        errs.append(float(np.max(np.abs(got - ref))))
    ratios = [b / a for a, b in zip(errs, errs[1:])]
    elapsed = time.time() - start
    report(
        "3 (rectangle-scheme convergence)",
        all(r < 1.0 for r in ratios) and elapsed < 10.0,
        f"errors {[f'{e:.4f}' for e in errs]}, ratios {[f'{r:.3f}' for r in ratios]}, {elapsed:.2f}s",
    )


@pytest.fixture(scope="module")
def trend_studies():
    start = time.time()
    # order_tol=1e-12 makes every rung solve the order it names (the
    # default 1e-6 would solve 1999/2003 at 999/1001).
    rect = convergence_study(-2.0, ALPHA_LADDER, t0=0.0, t_end=1.01, h=0.01,
                             backend=Quadrature.RECTANGLE, order_tol=1e-12)
    simpson = convergence_study(-2.0, ALPHA_LADDER, t0=0.0, t_end=1.01, h=0.01,
                                backend=Quadrature.SIMPSON, order_tol=1e-12)
    return rect, simpson, time.time() - start


def test_criterion_4i_sup_deviation_trend(trend_studies):
    _, simpson, elapsed = trend_studies
    devs = [r.sup_deviation for r in simpson]
    ok = all(b < a for a, b in zip(devs, devs[1:])) and elapsed < 30.0
    report(
        "4(i) (sup-deviation strictly decreasing in alpha)",
        ok,
        f"Simpson deviations {[f'{d:.3e}' for d in devs]}, {elapsed:.2f}s total",
    )


def test_criterion_4ii_nev_contrast(trend_studies):
    rect, _, elapsed = trend_studies
    nev_first, nev_last = rect[0].nev, rect[-1].nev
    ok = nev_last <= 1e-6 * nev_first and elapsed < 30.0
    report(
        "4(ii) (nev contrast alpha=1 vs alpha=1/3)",
        ok,
        f"nev(1/3)={nev_first:.3e}, nev(1)={nev_last:.3e}, "
        f"ratio {nev_last / nev_first:.3e} (need <= 1e-6), {elapsed:.2f}s total",
    )


def test_criterion_4iii_simpson_improves_nev(trend_studies):
    rect, simpson, elapsed = trend_studies
    pairs = [
        (r.alpha, s.nev, r.nev)
        for r, s in zip(rect, simpson)
        if r.alpha < 1.0
    ]
    ok = all(s <= r for _, s, r in pairs) and elapsed < 30.0
    detail = ", ".join(f"alpha={a:.4g}: simpson {s:.3e} vs rect {r:.3e}" for a, s, r in pairs)
    report(
        "4(iii) (Simpson nev <= rectangle nev row-wise)",
        ok,
        f"{detail}, {elapsed:.2f}s total",
    )


def test_criterion_5_decoupling_and_similarity():
    start = time.time()
    order = approximate_order(1 / 3, 1e-12, 10)
    grid = 0.01 * np.arange(1, 101)
    problem = CauchyProblem(A=np.diag([-2.0, 3.0]), x0=[1.0, 1.0], t0=0.0, order=order)
    traj = solve_matrix(problem, SolveConfig(grid=grid, quadrature=Quadrature.RECTANGLE))
    worst_diag = 0.0
    for j, lam in enumerate((-2.0, 3.0)):
        scalar = solve_scalar_rect(lam, 1.0, order, 0.0, grid).values
        worst_diag = max(
            worst_diag,
            float(np.max(np.abs(traj.states[:, j] - scalar) / (1.0 + np.abs(scalar)))),
        )

    rng = np.random.default_rng(5)
    A = np.array([[0.0, 1.0], [2.0, 1.0]])
    x0 = np.array([1.0, 0.0])
    base = solve_matrix(
        CauchyProblem(A=A, x0=x0, t0=0.0, order=order),
        SolveConfig(grid=grid, quadrature=Quadrature.RECTANGLE),
    )
    worst_conj = 0.0
    for _ in range(10):
        P = rng.uniform(-1.0, 1.0, size=(2, 2)) + 2.0 * np.eye(2)
        conj = solve_matrix(
            CauchyProblem(A=P @ A @ np.linalg.inv(P), x0=P @ x0, t0=0.0, order=order),
            SolveConfig(grid=grid, quadrature=Quadrature.RECTANGLE),
        )
        expected = base.states @ P.T
        worst_conj = max(
            worst_conj,
            float(np.max(np.abs(conj.states - expected) / (1.0 + np.abs(expected)))),
        )
    elapsed = time.time() - start
    report(
        "5 (diagonal decoupling & similarity covariance)",
        worst_diag <= 1e-12 and worst_conj <= 1e-8 and elapsed < 5.0,
        f"decoupling rel {worst_diag:.3e} (tol 1e-12), "
        f"covariance rel {worst_conj:.3e} (tol 1e-8), {elapsed:.2f}s",
    )


def test_criterion_6_odd_rational_representation():
    start = time.time()
    expected = {
        1 / 3: (0, 1),
        3 / 7: (1, 3),
        199 / 203: (99, 101),
        1999 / 2003: (999, 1001),
        1.0: (0, 0),
    }
    exact_ok = all(
        (lambda o: (o.p, o.q) == pq)(approximate_order(a, 1e-12, 10**4))
        for a, pq in expected.items()
    )

    import random

    rng = random.Random(99)
    minimal_ok = True
    for _ in range(50):
        alpha = rng.uniform(0.05, 1.0)
        tol = 10.0 ** rng.uniform(-2.5, -1.5)
        order = approximate_order(alpha, tol=tol, q_max=1000)
        # Independent brute-force oracle: scan every odd numerator.
        for q in range(order.q):
            den = 2 * q + 1
            best = min(abs(m / den - alpha) for m in range(1, den + 1, 2))
            if best <= tol:
                minimal_ok = False
                break
    elapsed = time.time() - start
    report(
        "6 (odd-rational representation)",
        exact_ok and minimal_ok and elapsed < 5.0,
        f"exact recovery {exact_ok}, q-minimality (50 random) {minimal_ok}, {elapsed:.2f}s",
    )


def test_criterion_7_perturbation_path():
    start = time.time()
    order1 = approximate_order(1.0, 1e-12, 10)
    problem = CauchyProblem(
        A=[[1.0, 1.0], [0.0, 1.0]], x0=[1.0, 1.0], t0=0.0, order=order1
    )
    grid = np.linspace(0.1, 1.5, 100)
    traj, gaps = solve_limit_perturbation(
        problem, np.diag([0.0, 1.0]), [1e-2, 1e-3, 1e-4],
        SolveConfig(grid=grid, quadrature=Quadrature.RECTANGLE),
    )
    gaps_ok = all(b < a for a, b in zip(gaps, gaps[1:]))
    ref = classical_exponential(problem, grid)
    err = float(np.max(np.abs(traj.states - ref.states)))

    rotation_ok = False
    try:
        solve_limit_perturbation(
            CauchyProblem(A=[[0.0, 1.0], [-1.0, 0.0]], x0=[1.0, 0.0], t0=0.0, order=order1),
            np.diag([1.0, 0.0]),
            [1e-2, 1e-3],
            SolveConfig(grid=grid, quadrature=Quadrature.RECTANGLE),
        )
    except ComplexSpectrumError:
        rotation_ok = True
    elapsed = time.time() - start
    report(
        "7 (perturbation path)",
        gaps_ok and err <= 1e-3 and rotation_ok and elapsed < 5.0,
        f"gaps {[f'{g:.3e}' for g in gaps]}, expm error {err:.3e} (tol 1e-3), "
        f"rotation raises ComplexSpectrum {rotation_ok}, {elapsed:.2f}s",
    )


def test_criterion_8_special_function_suite():
    start = time.time()
    exp_ok = all(
        abs(mittag_leffler(MLParams(alpha=1.0), z) - math.exp(z))
        <= 1e-12 * max(1.0, math.exp(z))
        for z in np.linspace(-5.0, 5.0, 101)
    )
    erfc_ok = all(
        abs(mittag_leffler(MLParams(alpha=0.5), z) - math.exp(z * z) * math.erfc(-z)) <= 1e-8
        for z in (0.5, 1.0, 2.0)
    )
    # Gamma(z + 1) = z Gamma(z), read through E_{1,b}(0) = 1/Gamma(b).
    inv_gamma = lambda b: mittag_leffler(MLParams(alpha=1.0, beta=b), 0.0)
    rec_ok = all(
        abs(inv_gamma(z) - z * inv_gamma(z + 1.0)) <= 1e-10 * abs(inv_gamma(z))
        for z in np.arange(0.5, 10.01, 0.5)
    )

    gl_ok = True
    for alpha, ref_fn in (
        (0.5, lambda t: np.sqrt(t) / math.gamma(1.5)),
        (1.0, lambda t: np.ones_like(t)),
    ):
        errs = []
        for h in (0.01, 0.005):
            t = h * np.arange(1, int(round(1.0 / h)) + 1)
            d = gl_derivative(t, alpha, h)
            errs.append(float(np.max(np.abs(d - ref_fn(t))[len(t) // 10 :])))
        # alpha = 1 is the exact backward difference of t: already at
        # roundoff for every h, so "error decreases" degenerates there.
        if not (errs[1] < errs[0] or errs[1] <= 1e-10):
            gl_ok = False
    elapsed = time.time() - start
    report(
        "8 (special-function suite)",
        exp_ok and erfc_ok and rec_ok and gl_ok and elapsed < 5.0,
        f"E1==exp {exp_ok}, E_1/2 erfc identity {erfc_ok}, Gamma recurrence {rec_ok}, "
        f"GL power rules converge {gl_ok}, {elapsed:.2f}s",
    )


def test_criterion_9_cli_determinism_and_exit_codes(tmp_path):
    start = time.time()
    spec = tmp_path / "p.json"
    spec.write_text(
        json.dumps(
            {
                "A": [[-2.0]],
                "x0": [1.0],
                "alpha": 1 / 3,
                "grid": {"start": 0.01, "end": 1.01, "step": 0.01},
            }
        )
    )
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    code0a = cli_main(["solve", "--config", str(spec), "--out", str(out1)])
    code0b = cli_main(["solve", "--config", str(spec), "--out", str(out2)])
    solve_det = out1.read_bytes() == out2.read_bytes()

    case = tmp_path / "case.json"
    case.write_text(
        json.dumps({"a": -2.0, "alphas": [1 / 3, 1.0], "interval": [0.01, 1.01], "h": 0.01})
    )
    t1, t2 = tmp_path / "t1.csv", tmp_path / "t2.csv"
    cli_main(["table", "--config", case.as_posix(), "--out", str(t1)])
    cli_main(["table", "--config", case.as_posix(), "--out", str(t2)])
    table_det = t1.read_bytes() == t2.read_bytes()

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"x0": [1.0], "alpha": 0.5, "grid": [0.5]}))
    code2 = cli_main(["solve", "--config", str(bad), "--out", str(tmp_path / "x.csv")])

    singular = tmp_path / "sing.json"
    singular.write_text(
        json.dumps({"A": [[0.0, 0.0], [0.0, 1.0]], "x0": [1.0, 1.0], "alpha": 1 / 3,
                    "grid": [0.5, 1.0]})
    )
    code3 = cli_main(["solve", "--config", str(singular), "--out", str(tmp_path / "y.csv")])

    stab = tmp_path / "stab.json"
    stab.write_text(json.dumps({"A": [[2.0]]}))
    code4 = cli_main(["stability", "--config", str(stab)])
    rot = tmp_path / "rot.json"
    rot.write_text(json.dumps({"A": [[0.0, 1.0], [-1.0, 0.0]]}))
    code5 = cli_main(["stability", "--config", str(rot)])

    codes = (code0a, code0b, code2, code3, code4, code5)
    ok = (
        codes == (0, 0, 2, 3, 4, 5)
        and solve_det
        and table_det
        and (time.time() - start) < 5.0
    )
    report(
        "9 (CLI determinism & exit codes)",
        ok,
        f"exit codes {codes} (expect (0, 0, 2, 3, 4, 5)), "
        f"solve byte-identical {solve_det}, table byte-identical {table_det}, "
        f"{time.time() - start:.2f}s",
    )
