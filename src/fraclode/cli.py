"""Command-line front end.

Subcommands:
  solve      JSON problem spec -> CSV trajectory `t,x1,...,xn`
  table      alpha-ladder convergence study -> CSV `alpha,sup_dev,nev`
  mlf        print E_{alpha,beta}(z)
  stability  print the spectrum-based stability verdict

Exit codes: 0 success, 2 schema error, 3 solver/numeric error,
4 unstable verdict, 5 inconclusive verdict.  All CSV output uses '.' as
the decimal separator, '\n' newlines and 17 significant digits, so
repeated runs are byte-identical.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from .analysis import Verdict, convergence_study, stability_verdict
from .errors import DomainError, FraclodeError
from .rational_order import DEFAULT_TOL, approximate_order
from .solver import (
    CauchyProblem,
    Quadrature,
    SolveConfig,
    _check_times,
    _step_count,
    _step_grid,
    solve_limit_perturbation,
    solve_matrix,
)
from .specfun import MLParams, mittag_leffler

EXIT_OK = 0
EXIT_SCHEMA = 2
EXIT_SOLVER = 3
EXIT_UNSTABLE = 4
EXIT_INCONCLUSIVE = 5

#: The fields each command reads; any other field is a schema error.
SOLVE_FIELDS = ("A", "x0", "t0", "alpha", "tol", "grid", "method", "eps_ladder", "B")
TABLE_FIELDS = ("a", "alphas", "interval", "h", "method")


class SchemaError(Exception):
    def __init__(self, field: str, message: str) -> None:
        super().__init__(f"field '{field}': {message}")
        self.field = field


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _require(spec: dict, field: str):
    if field not in spec:
        raise SchemaError(field, "missing required field")
    return spec[field]


def _number(value, field: str) -> float:
    """A finite JSON number; null, booleans, strings and the rest are
    schema errors naming `field`."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(field, f"must be a number, got {json.dumps(value)}")
    try:
        x = float(value)
    except OverflowError:
        raise SchemaError(field, f"number {value} is out of floating range") from None
    if not math.isfinite(x):
        raise SchemaError(field, f"must be finite, got {value}")
    return x


def _numbers(value, field: str) -> list[float]:
    """A JSON list of finite numbers, or one number standing for a list of one."""
    return [_number(v, field) for v in (value if isinstance(value, list) else [value])]


def _positive(value, field: str) -> float:
    x = _number(value, field)
    if x <= 0.0:
        raise SchemaError(field, f"must be positive, got {value}")
    return x


def _check_fields(spec: dict, fields: tuple[str, ...]) -> None:
    """A schema error naming the first field of spec not in fields."""
    for field in spec:
        if field not in fields:
            raise SchemaError(field, f"unknown field; the fields read are {', '.join(fields)}")


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            spec = json.load(fh)
    except OSError as exc:
        raise SchemaError("<file>", f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SchemaError("<file>", f"invalid JSON in {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise SchemaError("<file>", f"{path} is not UTF-8 text: {exc}") from exc
    except RecursionError as exc:
        raise SchemaError("<file>", f"JSON in {path} nests too deeply: {exc}") from exc
    if not isinstance(spec, dict):
        raise SchemaError("<file>", "top-level JSON value must be an object")
    return spec


def _parse_matrix(spec: dict, field: str):
    """A nonempty square JSON list of rows, each entry checked by `_number`."""
    rows = _require(spec, field)
    if not (isinstance(rows, list) and rows
            and all(isinstance(row, list) and len(row) == len(rows) for row in rows)):
        raise SchemaError(field, f"must be a square matrix, got {json.dumps(rows)}")
    return np.array([[_number(v, field) for v in row] for row in rows])


def _parse_grid(spec: dict, t0: float) -> np.ndarray:
    grid = _require(spec, "grid")
    try:
        if isinstance(grid, dict):
            for key in ("start", "end", "step"):
                if key not in grid:
                    raise SchemaError("grid", f"missing '{key}' in grid object")
            start, end, step = (_number(grid[k], "grid") for k in ("start", "end", "step"))
            if step <= 0.0 or end < start:
                raise SchemaError("grid", "need step > 0 and end >= start")
            times = _step_grid(start, end, step)
        elif isinstance(grid, list):
            times = _numbers(grid, "grid")
        else:
            raise SchemaError("grid", "must be {start,end,step} or a list of times")
        return _check_times(times, t0)
    except DomainError as exc:
        raise SchemaError("grid", str(exc)) from exc


def _parse_method(spec: dict) -> Quadrature:
    """The backend spec's method names, or SolveConfig's default where it names none."""
    try:
        return Quadrature(spec.get("method", SolveConfig.quadrature))
    except DomainError as exc:
        raise SchemaError("method", str(exc)) from None


def _parse_problem(spec: dict):
    _check_fields(spec, SOLVE_FIELDS)
    A = _parse_matrix(spec, "A")
    x0 = np.array(_numbers(_require(spec, "x0"), "x0"))
    if x0.shape[0] != A.shape[0]:
        raise SchemaError("x0", f"length {x0.shape[0]} does not match A dimension {A.shape[0]}")
    t0 = _number(spec.get("t0", 0.0), "t0")
    alpha = _number(_require(spec, "alpha"), "alpha")
    tol = _positive(spec.get("tol", DEFAULT_TOL), "tol")
    try:
        order = approximate_order(alpha, tol=tol)
    except FraclodeError as exc:
        raise SchemaError("alpha", str(exc)) from exc
    times = _parse_grid(spec, t0)
    config = SolveConfig(grid=times, quadrature=_parse_method(spec))
    problem = CauchyProblem(A=A, x0=x0, t0=t0, order=order)
    eps_ladder = spec.get("eps_ladder")
    if eps_ladder is None:
        if "B" in spec:
            raise SchemaError("B", "read only with eps_ladder")
        return problem, config, None, None
    if not isinstance(eps_ladder, list) or len(eps_ladder) < 2:
        raise SchemaError("eps_ladder", "must be a list with at least two entries")
    B = _parse_matrix(spec, "B")
    if B.shape != A.shape:
        raise SchemaError("B", f"shape {B.shape} does not match A shape {A.shape}")
    return problem, config, _numbers(eps_ladder, "eps_ladder"), B


def _write_csv(path: str, header: list[str], rows) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(x) for x in row))
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")
    except OSError as exc:
        raise SchemaError("--out", f"cannot write {path}: {exc}") from exc


def cmd_solve(args) -> int:
    spec = _load_json(args.config)
    problem, config, eps_ladder, B = _parse_problem(spec)
    if eps_ladder is not None:
        traj, gaps = solve_limit_perturbation(problem, B, eps_ladder, config)
        print("ladder gaps: " + ", ".join(_fmt(g) for g in gaps), file=sys.stderr)
    else:
        traj = solve_matrix(problem, config)
    header = ["t"] + [f"x{i + 1}" for i in range(problem.n)]
    _write_csv(args.out, header,
               ([t, *row] for t, row in zip(traj.times, traj.states)))
    return EXIT_OK


def cmd_table(args) -> int:
    spec = _load_json(args.config)
    _check_fields(spec, TABLE_FIELDS)
    a = _number(_require(spec, "a"), "a")
    alphas = _require(spec, "alphas")
    if not isinstance(alphas, list) or not alphas:
        raise SchemaError("alphas", "must be a nonempty list")
    alphas = _numbers(alphas, "alphas")
    if any(not (0.0 < x <= 1.0) for x in alphas):
        raise SchemaError("alphas", "entries must lie in (0, 1]")
    interval = _require(spec, "interval")
    if not (isinstance(interval, list) and len(interval) == 2):
        raise SchemaError("interval", "must be [start, end]")
    start, end = _numbers(interval, "interval")
    if end <= start:
        raise SchemaError("interval", "need end > start")
    h = _positive(_require(spec, "h"), "h")
    # x(t0) is given one step before the first reported point.
    t0 = start - h
    try:
        _step_count(t0, end, h)  # the study's grid limit, before the study runs
    except DomainError as exc:
        raise SchemaError("h", str(exc)) from exc
    rows = convergence_study(a, alphas, t0, end, h, backend=_parse_method(spec))
    _write_csv(args.out, ["alpha", "sup_dev", "nev"],
               ([r.alpha, r.sup_deviation, r.nev] for r in rows))
    return EXIT_OK


def cmd_mlf(args) -> int:
    params = MLParams(alpha=args.alpha, beta=args.beta)
    print(_fmt(mittag_leffler(params, args.z)))
    return EXIT_OK


def cmd_stability(args) -> int:
    spec = _load_json(args.config)
    A = _parse_matrix(spec, "A")
    report = stability_verdict(A)
    print(report.verdict.value)
    return {Verdict.ASYMPTOTICALLY_STABLE: EXIT_OK, Verdict.UNSTABLE: EXIT_UNSTABLE,
            Verdict.INCONCLUSIVE: EXIT_INCONCLUSIVE}[report.verdict]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fraclode",
        description="Linear constant-coefficient fractional-order ODE solver",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    method = (f"'method' is {' or '.join(repr(q.value) for q in Quadrature)}, by default "
              f"{SolveConfig.quadrature.value!r}; simpson is Gauss-Jacobi quadrature of the "
              "integrals, rectangle the literal left-endpoint rule, which converges only "
              "like h^(1/(2q+1))")

    # No abbreviated flags: `--h 0.01` would otherwise print the help and exit 0.
    p_solve = sub.add_parser(
        "solve", allow_abbrev=False, help="solve a Cauchy problem from a JSON spec",
        description="Solve D^alpha x = A x, x(t0) = x0, from a JSON spec of A, x0, alpha, "
                    f"grid and the optional t0 (0), tol (order tolerance, {DEFAULT_TOL:g}), "
                    "method and eps_ladder with B, and write t,x1,...,xn.  'grid' is a "
                    "list of times or {start, end, step}, the times start + k step up "
                    f"to end.  {method}.  With eps_ladder the gaps between rungs "
                    "go to stderr.  Any other field is a schema error.")
    p_solve.add_argument("--config", required=True, help="JSON problem spec")
    p_solve.add_argument("--out", required=True, help="output CSV path")
    p_solve.set_defaults(func=cmd_solve)

    p_table = sub.add_parser(
        "table", allow_abbrev=False, help="alpha-ladder convergence study",
        description="Solve D^alpha x = a x for each alpha of a case {a, alphas, interval "
                    "[start, end], h, method}, with no other field, on the times "
                    f"start + k h up to end, and write alpha,sup_dev,nev.  {method}.  "
                    "Each alpha is approximated by (2p+1)/(2q+1) "
                    f"to the default order tolerance {DEFAULT_TOL:g}, so a row "
                    "labelled 1999/2003 is solved at 999/1001.")
    p_table.add_argument("--config", required=True, help="JSON case spec")
    p_table.add_argument("--out", required=True, help="output CSV path")
    p_table.set_defaults(func=cmd_table)

    p_mlf = sub.add_parser("mlf", allow_abbrev=False, help="evaluate E_{alpha,beta}(z)")
    p_mlf.add_argument("alpha", type=float)
    p_mlf.add_argument("beta", type=float)
    p_mlf.add_argument("z", type=float)
    p_mlf.set_defaults(func=cmd_mlf)

    p_stab = sub.add_parser("stability", allow_abbrev=False, help="stability verdict for A")
    p_stab.add_argument("--config", required=True, help="JSON spec containing A")
    p_stab.set_defaults(func=cmd_stability)

    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv[:1] == ["mlf"] and not {"-h", "--help", "--"} & set(argv):
        # argparse takes "-2e-1" or "-inf" for an option; past "--" every
        # argument is a positional one, so mlf reads any number.
        argv.insert(1, "--")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SchemaError as exc:
        print(f"schema error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except FraclodeError as exc:
        print(f"solver error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    raise SystemExit(main())
