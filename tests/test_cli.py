"""End-to-end CLI tests: exit-code taxonomy, CSV shape, byte determinism."""

import json
import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

CLI = [sys.executable, "-m", "fraclode"]


def run_cli(*args):
    return subprocess.run(CLI + list(args), capture_output=True, text=True)


def write_spec(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def read_csv(path):
    lines = path.read_text(encoding="utf-8").strip().split("\n")
    header = lines[0].split(",")
    rows = [[float(x) for x in line.split(",")] for line in lines[1:]]
    return header, np.array(rows)


BASIC_SPEC = {
    "A": [[-2.0]],
    "x0": [1.0],
    "t0": 0.0,
    "alpha": 1 / 3,
    "grid": {"start": 0.01, "end": 1.01, "step": 0.01},
}


def test_solve_decaying_scalar(tmp_path):
    spec = write_spec(tmp_path, "p.json", BASIC_SPEC)
    out = tmp_path / "out.csv"
    result = run_cli("solve", "--config", spec, "--out", str(out))
    assert result.returncode == 0, result.stderr
    header, rows = read_csv(out)
    assert header == ["t", "x1"]
    assert rows.shape == (101, 2)
    assert np.all(np.diff(rows[:, 1]) < 0.0)  # monotone decreasing


def test_solve_byte_identical_reruns(tmp_path):
    spec = write_spec(tmp_path, "p.json", BASIC_SPEC)
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run_cli("solve", "--config", spec, "--out", str(out1)).returncode == 0
    assert run_cli("solve", "--config", spec, "--out", str(out2)).returncode == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_solve_alpha_one_matches_exponential(tmp_path):
    payload = dict(BASIC_SPEC, alpha=1.0, A=[[-2.0]])
    spec = write_spec(tmp_path, "p.json", payload)
    out = tmp_path / "out.csv"
    assert run_cli("solve", "--config", spec, "--out", str(out)).returncode == 0
    _, rows = read_csv(out)
    ref = np.exp(-2.0 * rows[:, 0])
    assert np.max(np.abs(rows[:, 1] - ref)) <= 1e-10


def test_solve_schema_error_names_field(tmp_path):
    payload = {k: v for k, v in BASIC_SPEC.items() if k != "A"}
    spec = write_spec(tmp_path, "p.json", payload)
    result = run_cli("solve", "--config", spec, "--out", str(tmp_path / "o.csv"))
    assert result.returncode == 2
    assert "'A'" in result.stderr


@pytest.mark.parametrize("field", ["x0", "alpha", "t0", "tol"])
@pytest.mark.parametrize("value", [None, "abc", True, [None], float("nan")])
def test_solve_non_numeric_field_is_schema_error(tmp_path, capsys, field, value):
    # In-process, so an escaping ValueError or TypeError fails the test
    # with its traceback instead of being read as some exit code.
    from fraclode.cli import main

    spec = write_spec(tmp_path, "p.json", dict(BASIC_SPEC, method="simpson", **{field: value}))
    assert main(["solve", "--config", spec, "--out", str(tmp_path / "o.csv")]) == 2
    assert f"'{field}'" in capsys.readouterr().err


@pytest.mark.parametrize("field", ["A", "B"])
@pytest.mark.parametrize("entry", ["-2", True, None, [1.0], float("inf")])
def test_solve_non_numeric_matrix_entry_is_schema_error(tmp_path, capsys, field, entry):
    from fraclode.cli import main

    payload = dict(BASIC_SPEC, B=[[1.0]], eps_ladder=[1e-2, 1e-3])
    payload[field] = [[entry]]
    spec = write_spec(tmp_path, "p.json", payload)
    assert main(["solve", "--config", spec, "--out", str(tmp_path / "o.csv")]) == 2
    assert f"'{field}'" in capsys.readouterr().err


@pytest.mark.parametrize("matrix", [[["-2"]], [[True]], [[1.0, 0.0], [0.0]], [], [[]], -2.0])
def test_stability_malformed_matrix_is_schema_error(tmp_path, capsys, matrix):
    from fraclode.cli import main

    spec = write_spec(tmp_path, "s.json", {"A": matrix})
    assert main(["stability", "--config", spec]) == 2
    assert "'A'" in capsys.readouterr().err


def test_solve_nonpositive_tolerance_is_schema_error(tmp_path, capsys):
    from fraclode.cli import main

    spec = write_spec(tmp_path, "p.json", dict(BASIC_SPEC, tol=0.0))
    assert main(["solve", "--config", spec, "--out", str(tmp_path / "o.csv")]) == 2
    assert "'tol'" in capsys.readouterr().err


@pytest.mark.parametrize("field, value", [
    ("metod", "rectangle"),
    ("simpson_tol", 1e-10),
    ("sum_range", "from_zero"),
    ("sum_range", "from_one"),
    ("B", [[1.0]]),  # B is read only with eps_ladder
    ("", 0),
])
def test_solve_unknown_field_is_schema_error(tmp_path, capsys, field, value):
    from fraclode.cli import main

    spec = write_spec(tmp_path, "p.json", dict(BASIC_SPEC, **{field: value}))
    out = tmp_path / "o.csv"
    assert main(["solve", "--config", spec, "--out", str(out)]) == 2
    assert f"field '{field}'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("field", ["t0", "tol", "metod", "A"])
def test_table_unknown_field_is_schema_error(tmp_path, capsys, field):
    from fraclode.cli import main

    case = {"a": -2.0, "alphas": [1 / 3], "interval": [0.02, 0.5], "h": 0.02, field: 0.1}
    spec = write_spec(tmp_path, "case.json", case)
    assert main(["table", "--config", spec, "--out", str(tmp_path / "t.csv")]) == 2
    assert f"field '{field}'" in capsys.readouterr().err


def test_stability_reads_only_a_of_a_solve_spec(tmp_path, capsys):
    from fraclode.cli import main

    payload = dict(BASIC_SPEC, method="simpson", tol=1e-6, B=[[1.0]], eps_ladder=[1e-2, 1e-3],
                   metod="rectangle")
    spec = write_spec(tmp_path, "p.json", payload)
    assert main(["stability", "--config", spec]) == 0
    assert capsys.readouterr().out.strip() == "AsymptoticallyStable"


def test_solve_bad_method_is_schema_error(tmp_path):
    spec = write_spec(tmp_path, "p.json", dict(BASIC_SPEC, method="trapezoid"))
    result = run_cli("solve", "--config", spec, "--out", str(tmp_path / "o.csv"))
    assert result.returncode == 2
    assert "method" in result.stderr


@pytest.mark.parametrize("command", ["solve", "table"])
@pytest.mark.parametrize("method", ["trapezoid", None, 1, "SIMPSON"])
def test_any_other_method_is_schema_error_listing_the_backends(tmp_path, capsys, command,
                                                               method):
    from fraclode.cli import main

    payload = (BASIC_SPEC if command == "solve" else
               {"a": -2.0, "alphas": [1 / 3], "interval": [0.02, 0.5], "h": 0.01})
    spec = write_spec(tmp_path, "p.json", dict(payload, method=method))
    assert main([command, "--config", spec, "--out", str(tmp_path / "o.csv")]) == 2
    err = capsys.readouterr().err
    assert "field 'method'" in err and "'rectangle', 'simpson'" in err


def test_table_without_method_is_simpson(tmp_path):
    from fraclode.cli import main

    outs = {}
    for method in (None, "simpson"):
        case = {"a": -2.0, "alphas": [1 / 3, 3 / 7], "interval": [0.02, 0.5], "h": 0.01}
        spec = write_spec(tmp_path, f"{method}.json",
                          case if method is None else dict(case, method=method))
        outs[method] = tmp_path / f"{method}.csv"
        assert main(["table", "--config", spec, "--out", str(outs[method])]) == 0
    assert outs[None].read_bytes() == outs["simpson"].read_bytes()


@pytest.mark.parametrize("grid", [
    {"start": 0.01, "end": 1000.0, "step": 1e-8},  # 1e11 points
    {"start": 1e-300, "end": 1e308, "step": 1e-300},  # a count beyond float range
])
def test_solve_grid_over_point_limit_is_schema_error(tmp_path, capsys, grid):
    from fraclode.cli import main

    spec = write_spec(tmp_path, "p.json", dict(BASIC_SPEC, grid=grid))
    assert main(["solve", "--config", spec, "--out", str(tmp_path / "o.csv")]) == 2
    assert "'grid'" in capsys.readouterr().err


def test_solve_rect_lattice_over_limit_is_solver_error(tmp_path, capsys):
    from fraclode.cli import main

    # Three points, but the rectangle lattice t0 + k h, h = 5e-7, reaches k = 2e9.
    payload = dict(BASIC_SPEC, grid=[5e-7, 1e-6, 1000.0], method="rectangle")
    spec = write_spec(tmp_path, "p.json", payload)
    assert main(["solve", "--config", spec, "--out", str(tmp_path / "o.csv")]) == 3
    assert "DomainError" in capsys.readouterr().err


@pytest.mark.parametrize("A, alpha, method", [
    ([[0.5]], 3 / 7, "simpson"),
    ([[2.0]], 3 / 7, "rectangle"),
    ([[2.0]], 1.0, "simpson"),
    ([[-2.0]], 1.0, "simpson"),
    ([[-2.0]], 1 / 3, "rectangle"),
    ([[-2.0]], 1 / 3, "simpson"),
])
def test_far_t0_exits_cleanly(tmp_path, A, alpha, method):
    # t0 = -1e308 is schema-valid, and u = t - t0 = 1e308 puts e^(|r| u)
    # far past floating range: each solve either returns finite values or
    # exits 3 at once, and warns of nothing.
    payload = dict(BASIC_SPEC, A=A, alpha=alpha, method=method, t0=-1e308, grid=[0.01])
    spec = write_spec(tmp_path, "p.json", payload)
    out = tmp_path / "o.csv"
    result = subprocess.run(CLI + ["solve", "--config", spec, "--out", str(out)],
                            capture_output=True, text=True, timeout=10)
    assert result.returncode in (0, 3), result.stderr
    assert "Warning" not in result.stderr
    if result.returncode == 0:
        assert np.isfinite(read_csv(out)[1]).all()


def test_solve_overflowing_x0_exits_3_without_warning(tmp_path):
    payload = dict(BASIC_SPEC, A=[[2.0]], x0=[1e308], alpha=1 / 3, grid=[1.0])
    spec = write_spec(tmp_path, "p.json", payload)
    result = run_cli("solve", "--config", spec, "--out", str(tmp_path / "o.csv"))
    assert result.returncode == 3
    assert "OverflowError_" in result.stderr
    assert "Warning" not in result.stderr


def test_solve_spectrum_near_floating_range_exits_3_without_warning(tmp_path):
    # The eigenvalue gap of diag(1e308, -1e308) overflows; the solve
    # still fails on the range of r = lambda^3 alone.
    payload = dict(BASIC_SPEC, A=[[1e308, 0.0], [0.0, -1e308]], x0=[1.0, 1.0])
    spec = write_spec(tmp_path, "p.json", payload)
    result = run_cli("solve", "--config", spec, "--out", str(tmp_path / "o.csv"))
    assert result.returncode == 3
    assert "OverflowError_" in result.stderr
    assert "Warning" not in result.stderr


def test_table_far_from_zero(tmp_path):
    from fraclode.cli import main

    payload = {"a": -2.0, "alphas": [1 / 3, 1.0], "interval": [100.00001, 100.01],
               "h": 1e-5}
    spec = write_spec(tmp_path, "case.json", payload)
    out = tmp_path / "t.csv"
    assert main(["table", "--config", spec, "--out", str(out)]) == 0
    assert np.isfinite(read_csv(out)[1]).all()


def test_table_grid_over_point_limit_is_schema_error(tmp_path, capsys):
    from fraclode.cli import main

    payload = {"a": -2.0, "alphas": [1 / 3], "interval": [0.0, 1000.0], "h": 1e-9}
    spec = write_spec(tmp_path, "case.json", payload)
    assert main(["table", "--config", spec, "--out", str(tmp_path / "t.csv")]) == 2
    assert "'h'" in capsys.readouterr().err


def test_import_leaves_numpy_fft_unloaded():
    # The rectangle backend reaches numpy.fft at call time, so importing
    # fraclode does not pay for loading it.
    code = "import sys, fraclode; print('numpy.fft' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"


def test_solve_singular_matrix_is_solver_error(tmp_path):
    payload = dict(BASIC_SPEC, A=[[0.0, 0.0], [0.0, 1.0]], x0=[1.0, 1.0])
    spec = write_spec(tmp_path, "p.json", payload)
    result = run_cli("solve", "--config", spec, "--out", str(tmp_path / "o.csv"))
    assert result.returncode == 3
    assert "ZeroEigenvalue" in result.stderr


def test_solve_eps_ladder_path(tmp_path):
    payload = {
        "A": [[1.0, 1.0], [0.0, 1.0]],
        "B": [[0.0, 0.0], [0.0, 1.0]],
        "eps_ladder": [1e-2, 1e-3, 1e-4],
        "x0": [1.0, 1.0],
        "t0": 0.0,
        "alpha": 1.0,
        "grid": {"start": 0.1, "end": 1.5, "step": 0.05},
    }
    spec = write_spec(tmp_path, "p.json", payload)
    out = tmp_path / "out.csv"
    result = run_cli("solve", "--config", spec, "--out", str(out))
    assert result.returncode == 0, result.stderr
    _, rows = read_csv(out)
    ref = np.stack(
        [
            [math.exp(t) * (1.0 + t) + 0.0, math.exp(t)]
            for t in rows[:, 0]
        ]
    )
    # expm([[1,1],[0,1]]t) [1,1] = e^t [1+t, 1]
    assert np.max(np.abs(rows[:, 1:] - ref)) <= 1e-3
    # The gaps between the three rungs go to stderr, with no flag asking.
    gaps = result.stderr.strip().removeprefix("ladder gaps: ").split(", ")
    assert len(gaps) == 2 and all(0.0 < float(g) < 1.0 for g in gaps)


def test_solve_grid_object_stops_at_end(tmp_path):
    # (0.38 - 0.1)/0.1 = 2.8 steps: the grid holds two, not a third to 0.4.
    payload = dict(BASIC_SPEC, grid={"start": 0.1, "end": 0.38, "step": 0.1})
    spec = write_spec(tmp_path, "p.json", payload)
    out = tmp_path / "out.csv"
    assert run_cli("solve", "--config", spec, "--out", str(out)).returncode == 0
    _, rows = read_csv(out)
    assert list(rows[:, 0]) == [0.1 + 0.1 * k for k in range(3)]


def test_solve_explicit_grid_list(tmp_path):
    payload = dict(BASIC_SPEC, grid=[0.1, 0.2, 0.5], method="simpson")
    spec = write_spec(tmp_path, "p.json", payload)
    out = tmp_path / "out.csv"
    assert run_cli("solve", "--config", spec, "--out", str(out)).returncode == 0
    _, rows = read_csv(out)
    assert rows[:, 0] == pytest.approx([0.1, 0.2, 0.5])


def test_table_replica_case(tmp_path):
    case = {
        "a": -2.0,
        "alphas": [1 / 3, 3 / 7, 199 / 203, 1999 / 2003, 1.0],
        "interval": [0.01, 1.01],
        "h": 0.01,
    }
    spec = write_spec(tmp_path, "case.json", case)
    out = tmp_path / "table.csv"
    result = run_cli("table", "--config", spec, "--out", str(out))
    assert result.returncode == 0, result.stderr
    header, rows = read_csv(out)
    assert header == ["alpha", "sup_dev", "nev"]
    assert rows.shape == (5, 3)
    # The alpha = 1 row has the smallest residual by a wide margin.
    assert rows[-1, 2] == np.min(rows[:, 2])
    assert rows[-1, 2] <= 1e-6 * rows[0, 2]
    # Determinism.
    out2 = tmp_path / "table2.csv"
    assert run_cli("table", "--config", spec, "--out", str(out2)).returncode == 0
    assert out.read_bytes() == out2.read_bytes()


def test_table_study_stops_at_the_interval_end(tmp_path):
    # The study's times are 0, 0.1, ..., 0.9 up to 0.97, not on to 1.0.
    # At a = 2 the 1/3 row's sup_dev and nev peak at the last time.
    from fraclode.cli import main

    outs = []
    for end in (0.97, 0.9, 1.0):
        case = {"a": 2.0, "alphas": [1 / 3, 1.0], "interval": [0.0, end], "h": 0.1}
        spec = write_spec(tmp_path, f"{end}.json", case)
        outs.append(tmp_path / f"{end}.csv")
        assert main(["table", "--config", spec, "--out", str(outs[-1])]) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes() != outs[2].read_bytes()


def test_table_reads_method_and_h_from_the_case(tmp_path):
    from fraclode.cli import main

    outs = {}
    for method in ("simpson", "rectangle"):
        case = {"a": -2.0, "alphas": [1 / 3], "interval": [0.02, 0.5], "h": 0.01,
                "method": method}
        spec = write_spec(tmp_path, f"{method}.json", case)
        outs[method] = tmp_path / f"{method}.csv"
        assert main(["table", "--config", spec, "--out", str(outs[method])]) == 0
        assert read_csv(outs[method])[1].shape == (1, 3)
    assert outs["simpson"].read_bytes() != outs["rectangle"].read_bytes()


@pytest.mark.parametrize("argv", [("table", "--method", "simpson"), ("table", "--h", "0.01"),
                                  ("stability", "--verbose"), ("solve", "--h"),
                                  ("solve", "--verb"), ("solve", "--verbose"),
                                  ("table", "--verbose")])
def test_removed_or_abbreviated_flags_are_usage_errors(tmp_path, argv):
    # The case's own method and h are the only ones, no command prints a
    # banner, and no flag is read as the abbreviation of another.
    if argv[0] == "solve":
        case, rest = BASIC_SPEC, ["--out", str(tmp_path / "o.csv")]
    elif argv[0] == "table":
        case = {"a": -2.0, "alphas": [1 / 3], "interval": [0.02, 0.5], "h": 0.02}
        rest = ["--out", str(tmp_path / "t.csv")]
    else:
        case, rest = {"A": [[-2.0]]}, []
    spec = write_spec(tmp_path, "case.json", case)
    result = run_cli(argv[0], "--config", spec, *rest, *argv[1:])
    assert result.returncode == 2
    assert "unrecognized arguments" in result.stderr


@pytest.mark.parametrize("h", [float("nan"), float("inf"), 0.0])
def test_table_non_finite_or_zero_h_is_schema_error(tmp_path, capsys, h):
    from fraclode.cli import main

    case = {"a": -2.0, "alphas": [1 / 3], "interval": [0.02, 0.5], "h": h}
    spec = write_spec(tmp_path, "case.json", case)
    assert main(["table", "--config", spec, "--out", str(tmp_path / "t.csv")]) == 2
    assert "'h'" in capsys.readouterr().err


def test_table_empty_alphas_is_schema_error(tmp_path):
    case = {"a": -2.0, "alphas": [], "interval": [0.01, 1.01], "h": 0.01}
    spec = write_spec(tmp_path, "case.json", case)
    result = run_cli("table", "--config", spec, "--out", str(tmp_path / "t.csv"))
    assert result.returncode == 2
    assert "alphas" in result.stderr


def test_mlf_values():
    result = run_cli("mlf", "1", "1", "1")
    assert result.returncode == 0
    assert float(result.stdout.strip()) == pytest.approx(math.e, rel=1e-15)
    result = run_cli("mlf", "0.5", "1", "0")
    assert float(result.stdout.strip()) == pytest.approx(1.0, rel=1e-15)
    result = run_cli("mlf", "0.5", "1", "1")
    assert float(result.stdout.strip()) == pytest.approx(
        math.exp(1.0) * math.erfc(-1.0), abs=1e-8
    )


def test_mlf_sum_past_double_range_is_solver_error():
    # E_{1/2}(26.7) is about e^713: every term is finite, the sum is not.
    result = run_cli("mlf", "0.5", "1", "26.7")
    assert result.returncode == 3
    assert "NonConvergenceError" in result.stderr and "Traceback" not in result.stderr


def test_mlf_reads_negative_numbers_in_exponent_notation():
    # argparse takes -2e-1 for an option flag unless mlf ends the options.
    plain = run_cli("mlf", "0.5", "1", "-0.2")
    assert (plain.returncode, plain.stdout) == (0, "0.80901951990158072\n")
    for z in ("-2e-1", "-.2E0"):
        result = run_cli("mlf", "0.5", "1", z)
        assert (result.returncode, result.stdout) == (0, plain.stdout)
    result = run_cli("mlf", "-1e-1", "1", "0.5")
    assert result.returncode == 3 and "alpha must be positive" in result.stderr
    result = run_cli("mlf", "0.5", "-h")
    assert result.returncode == 0 and "usage: fraclode mlf" in result.stdout


@pytest.mark.parametrize("args", [("inf", "1", "0.5"), ("0.5", "nan", "1"), ("0.5", "1", "nan"),
                                  ("0.5", "1", "-inf"), ("-inf", "1", "0.5")])
def test_mlf_non_finite_argument_is_solver_error(args):
    result = run_cli("mlf", *args)
    assert result.returncode == 3
    assert "DomainError" in result.stderr and "must be finite" in result.stderr


def test_stability_exit_codes(tmp_path):
    stable = write_spec(tmp_path, "s.json", {"A": [[-2.0, 0.0], [0.0, -1.0]]})
    result = run_cli("stability", "--config", stable)
    assert result.returncode == 0
    assert result.stdout.strip() == "AsymptoticallyStable"

    unstable = write_spec(tmp_path, "u.json", {"A": [[2.0]]})
    result = run_cli("stability", "--config", unstable)
    assert result.returncode == 4
    assert result.stdout.strip() == "Unstable"

    rotation = write_spec(tmp_path, "r.json", {"A": [[0.0, 1.0], [-1.0, 0.0]]})
    result = run_cli("stability", "--config", rotation)
    assert result.returncode == 5
    assert result.stdout.strip() == "Inconclusive"

    # blockdiag([[0, 1], [-1, 0]], [[1]]): eigenvalues +-i and 1.
    mixed = write_spec(tmp_path, "m.json", {"A": [[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0],
                                                  [0.0, 0.0, 1.0]]})
    result = run_cli("stability", "--config", mixed)
    assert result.returncode == 4
    assert result.stdout.strip() == "Unstable"


def test_stability_of_a_decaying_spiral_exits_zero(tmp_path):
    # lambda = -0.5 +- 2i: stable at every alpha in (0, 1].
    spiral = write_spec(tmp_path, "s.json", {"A": [[-0.5, 2.0], [-2.0, -0.5]]})
    result = run_cli("stability", "--config", spiral)
    assert result.returncode == 0
    assert result.stdout.strip() == "AsymptoticallyStable"


def test_invalid_json_is_schema_error(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    result = run_cli("solve", "--config", str(path), "--out", str(tmp_path / "o.csv"))
    assert result.returncode == 2


def test_solve_method_defaults_to_simpson(tmp_path):
    # An omitted method is simpson.  At alpha = 0.3 (30001/100003 at the
    # default order tolerance) the rectangle rule returns about -4653 at
    # t = 1.01, where the solution is 0.2896.
    from fraclode import approximate_order, scalar_closed_form
    from fraclode.cli import main

    outs = {}
    for method in (None, "simpson", "rectangle"):
        payload = dict(BASIC_SPEC) if method is None else dict(BASIC_SPEC, method=method)
        spec = write_spec(tmp_path, f"{method}.json", payload)
        outs[method] = tmp_path / f"{method}.csv"
        assert main(["solve", "--config", spec, "--out", str(outs[method])]) == 0
    assert outs[None].read_bytes() == outs["simpson"].read_bytes()
    assert outs[None].read_bytes() != outs["rectangle"].read_bytes()

    spec = write_spec(tmp_path, "p03.json", dict(BASIC_SPEC, alpha=0.3, grid=[1.01]))
    assert main(["solve", "--config", spec, "--out", str(tmp_path / "p03.csv")]) == 0
    _, rows = read_csv(tmp_path / "p03.csv")
    ref = scalar_closed_form(-2.0, 1.0, approximate_order(0.3), 0.0, [1.01]).values
    assert rows[:, 1] == pytest.approx(ref, rel=1e-9)
    assert ref[0] == pytest.approx(0.2896, abs=1e-4)


# ------------------------------------------------------------------ fuzz

#: JSON values no numeric field accepts.
_JUNK = st.one_of(st.none(), st.booleans(), st.text(max_size=3),
                  st.sampled_from([[], [None], {}, {"x": 1}, float("nan"), float("inf"),
                                   -float("inf"), 1e308, -1e308, 10**400, [[1.0, 2.0]]]))
_ABSENT = object()


def _mostly(valid, other, odds: int = 5):
    """`valid`, or `other` about once in `odds` draws (i = 1, not the
    i = 0 that hypothesis draws and shrinks towards most)."""
    return st.integers(0, odds - 1).flatmap(lambda i: other if i == 1 else valid)


def _field(valid, invalid=st.nothing()):
    """A field: usually valid, sometimes invalid, junk or absent."""
    return _mostly(valid, st.one_of(invalid, _JUNK, st.just(_ABSENT)))


def _optional(valid, invalid=st.nothing()):
    """An optional field: usually absent, else valid, invalid or junk."""
    return _mostly(st.just(_ABSENT), st.one_of(valid, invalid, _JUNK), odds=2)


def _rare(value):
    """A field the command does not read: absent but about once in ten draws."""
    return _mostly(st.just(_ABSENT), value, odds=10)


_NUM = st.floats(-3.0, 3.0, allow_nan=False)
#: Orders whose odd fractions are small, so a fuzzed solve stays cheap;
#: 0.5 has none at the default tolerance.
_ALPHA = st.sampled_from([1 / 3, 3 / 7, 199 / 203, 1.0, 0.5])
_BAD_ALPHA = st.sampled_from([0.0, -0.3, 1.5])


def _matrix(n):
    return st.lists(st.lists(_NUM, min_size=n, max_size=n), min_size=n, max_size=n)


@st.composite
def _solve_spec(draw):
    n = draw(st.integers(1, 3))
    grid = st.one_of(
        st.builds(lambda s, h, k: {"start": s / 100, "step": h / 100, "end": (s + h * k) / 100},
                  st.integers(1, 100), st.integers(1, 20), st.integers(0, 60)),
        st.lists(st.integers(1, 150), min_size=1, max_size=5, unique=True).map(
            lambda ks: [k / 100 for k in sorted(ks)]))
    bad_grid = st.one_of(
        st.builds(lambda s, h, k: {"start": s / 100, "step": h / 100, "end": (s + h * k) / 100},
                  st.integers(-2, 2), st.integers(-1, 1), st.integers(-2, 2)),
        st.lists(st.integers(-5, 150), max_size=4).map(lambda ks: [k / 100 for k in ks]))
    fields = {
        "A": _field(_matrix(n), st.lists(st.lists(_NUM, max_size=3), max_size=3)),
        "x0": _field(st.lists(_NUM, min_size=n, max_size=n), st.lists(_NUM, max_size=4)),
        "t0": _optional(st.sampled_from([0.0, 0.005, -0.5]), st.just(1.2)),
        "alpha": _field(_ALPHA, _BAD_ALPHA),
        "grid": _field(grid, bad_grid),
        "method": _optional(st.sampled_from(["simpson", "rectangle"]),
                            st.sampled_from(["trapezoid", None])),
        "tol": _optional(st.sampled_from([1e-12, 1e-3]), st.sampled_from([0.0, -1.0])),
        "eps_ladder": _optional(st.just([1e-2, 1e-3]),
                                st.lists(st.sampled_from([1e-2, 0.0, -1e-2]), max_size=3)),
        "B": _optional(_matrix(n), _matrix(n % 3 + 1)),
        # Fields solve does not read.
        "simpson_tol": _rare(st.sampled_from([1e-10, 0.0])),
        "sum_range": _rare(st.just("from_zero")),
        "metod": _rare(st.just("rectangle")),
    }
    spec = {k: draw(v) for k, v in fields.items()}
    return {k: v for k, v in spec.items() if v is not _ABSENT}


@st.composite
def _table_spec(draw):
    interval = st.tuples(st.integers(1, 30), st.integers(1, 30)).map(
        lambda t: [t[0] / 50, (t[0] + t[1]) / 50])
    fields = {
        "a": _field(_NUM),
        "alphas": _field(st.lists(_ALPHA, min_size=1, max_size=3),
                         st.lists(_BAD_ALPHA, max_size=2)),
        "interval": _field(interval, st.lists(st.integers(-5, 5), max_size=3)),
        "h": _field(st.sampled_from([0.02, 0.1]), st.sampled_from([0.0, -0.1, 1e-9])),
        "method": _optional(st.sampled_from(["simpson", "rectangle"]), st.just("trapezoid")),
        # Fields table does not read.
        "t0": _rare(st.just(0.0)),
        "x0": _rare(st.just([1.0])),
    }
    spec = {k: draw(v) for k, v in fields.items()}
    return {k: v for k, v in spec.items() if v is not _ABSENT}


def _run_in_process(command, spec, tmp_path_factory):
    """Exit code of `fraclode command` on spec, run in-process: anything
    the CLI lets escape fails the test with its traceback."""
    import contextlib
    import io

    from fraclode.cli import main

    tmp = tmp_path_factory.mktemp("fuzz")
    path = tmp / "spec.json"
    path.write_text(json.dumps(spec), encoding="utf-8")
    with contextlib.redirect_stderr(io.StringIO()):
        return main([command, "--config", str(path), "--out", str(tmp / "out.csv")])


@given(spec=_solve_spec())
@settings(max_examples=80, deadline=None)
def test_fuzzed_solve_specs_exit_cleanly(spec, tmp_path_factory):
    from fraclode.cli import SOLVE_FIELDS

    expected = (2,) if set(spec) - set(SOLVE_FIELDS) else (0, 2, 3)
    assert _run_in_process("solve", spec, tmp_path_factory) in expected


@given(spec=_table_spec())
@settings(max_examples=60, deadline=None)
def test_fuzzed_table_specs_exit_cleanly(spec, tmp_path_factory):
    from fraclode.cli import TABLE_FIELDS

    expected = (2,) if set(spec) - set(TABLE_FIELDS) else (0, 2, 3)
    assert _run_in_process("table", spec, tmp_path_factory) in expected
