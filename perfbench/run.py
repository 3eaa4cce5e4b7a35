"""Benchmark of fraclode, run from the root of a source checkout:

    python3 perfbench/run.py --workload ladder --seed 1 --seconds 20 --trace 0

Builds the workload's inputs from the seed, computes their references,
then runs whole passes of the workload's operations until --seconds have
passed (at least MIN_PASSES), checks every result and prints one JSON
line: `correct`, `attempted`, `failed` and `metrics`.  With --trace 0 the
metrics are the end-to-end ones; with --trace 1 they are the per-layer
ones, from traced passes, plus the untraced time per operation kind.
The program is imported from ./src; it is never installed.

Times of in-process work are wall times scaled to a reference machine
speed.  After each operation a fixed calibration kernel, which uses no
fraclode code, runs for CAL_SHARE of that operation's time; the ratio of
its nominal to its measured duration scales the times of the same pass.
The speed of a shared two-vCPU machine can drift by 25% over minutes,
and this removes most of that drift.  The `cli` workload's operations,
fresh processes, are reported as measured: the kernel does not track
process start-up.  `setup_s` is timed inside each fresh interpreter,
around the import alone, and scaled by the run's median speed factor.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

# One BLAS thread, set before numpy loads, and inherited by every child.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402  (after the BLAS pins)

MIN_PASSES = 3
SETUP_IMPORTS = 7
KINDS = ("simpson", "rect", "closed_form", "classical", "study", "cli_solve", "cli_table")
#: Share of the timed work's duration spent in the calibration kernel.
CAL_SHARE = 0.1
#: Duration of one calibration call at the reference speed (about the
#: median on a shared two-vCPU Intel Xeon machine).
CAL_NOMINAL_S = 1.4e-3
_CAL_X = np.linspace(-3.0, 3.0, 101)


def calibration_call() -> float:
    """Fixed work of the kind most of fraclode's time goes to: numpy calls
    on short arrays and Python arithmetic."""
    acc = 0.0
    for i in range(400):
        acc += float(np.exp(_CAL_X * (0.01 * i)).sum()) + math.lgamma(1.5 + i)
    return acc


class Speed:
    """Machine speed, sampled by the calibration kernel after timed work."""

    def __init__(self) -> None:
        self.seconds = 0.0
        self.calls = 0

    def sample(self, worked: float) -> None:
        calls = max(1, round(CAL_SHARE * worked / CAL_NOMINAL_S))
        start = time.perf_counter()
        for _ in range(calls):
            calibration_call()
        self.seconds += time.perf_counter() - start
        self.calls += calls

    @property
    def factor(self) -> float:
        """Turns wall seconds into seconds at the reference speed."""
        return CAL_NOMINAL_S * self.calls / self.seconds


#: Times `import fraclode` inside a fresh interpreter, without its start-up.
_TIMED_IMPORT = ("import time; start = time.perf_counter(); import fraclode; "
                 "print(time.perf_counter() - start)")


def fresh_imports(root: str, count: int, importtime: bool) -> list:
    """Seconds `import fraclode` takes in fresh interpreters, or, with
    importtime, the cumulative import times of fraclode and scipy.linalg
    in ms."""
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    cmd = [sys.executable] + (["-X", "importtime", "-c", "import fraclode"] if importtime
                              else ["-c", _TIMED_IMPORT])
    out = []
    for _ in range(count):
        proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True,
                              check=True)
        if not importtime:
            out.append(float(proc.stdout))
            continue
        cumulative = {}
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if line.startswith("import time:") and len(parts) == 3 and parts[1].strip().isdigit():
                cumulative.setdefault(parts[2].strip(), int(parts[1]) / 1e3)
        out.append((cumulative["fraclode"], cumulative.get("scipy.linalg", 0.0)))
    return out


def run_pass(ops, calibrate: bool = True):
    """Run every op once, each followed by a calibration sample unless
    `calibrate` is false.  Returns per-op (wall seconds, output, error)
    and the pass's speed factor (1 without calibration)."""
    results = []
    speed = Speed() if calibrate else None
    for op in ops:
        start = time.perf_counter()
        try:
            out, err = op.run(), None
        except Exception as exc:  # recorded and counted as a failure
            out, err = None, f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
        results.append((seconds, out, err))
        if speed:
            speed.sample(seconds)
    return results, speed.factor if speed else 1.0


def check_pass(ops, results, tally) -> None:
    outs = {op.name: out for op, (_, out, err) in zip(ops, results) if err is None}
    for op, (_, out, err) in zip(ops, results):
        tally["attempted"] += 1
        reason = err if err is not None else op.check(out, outs)
        if reason is None:
            continue
        tally["failed"] += 1
        if op.fault is None:
            tally["correct"] = False
            tally["unexpected"].setdefault(op.name, reason)
        else:
            tally["expected"].setdefault(op.name, f"{reason} [{op.fault}]")


def kind_seconds(ops, results, factor: float) -> dict[str, float]:
    """Seconds per kind in one pass at the reference speed; cli kinds per
    invocation."""
    total = dict.fromkeys(KINDS, 0.0)
    count = dict.fromkeys(KINDS, 0)
    for op, (seconds, _, _) in zip(ops, results):
        total[op.kind] += seconds * factor
        count[op.kind] += 1
    for kind in ("cli_solve", "cli_table"):
        if count[kind]:
            total[kind] /= count[kind]
    return total


def pass_seconds(results, factor: float) -> float:
    return factor * sum(seconds for seconds, _, _ in results)


def median(values) -> float:
    return float(statistics.median(values))


def more_passes(done: list, count: int, start: float, budget: float) -> bool:
    """Whether to start another pass: until `count` passes are done, then
    while the run would end nearer to its budget with one more pass."""
    if len(done) < count:
        return True
    mean = (time.perf_counter() - start) / len(done)
    return time.perf_counter() - start + mean / 2 < budget


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "fraclode", "__init__.py")):
        print(f"error: no fraclode sources under {src}; run from a checkout's root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    import fraclode
    import fraclode.cli  # noqa: F401  (traced in-process by the cli workload)
    import workloads
    from tracing import Tracer

    if not os.path.abspath(fraclode.__file__).startswith(src + os.sep):
        print(f"error: imported fraclode from {fraclode.__file__}, not {src}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    tmp = os.path.join(root, ".perfbench_tmp", str(os.getpid()))
    os.makedirs(tmp, exist_ok=True)
    try:
        if args.trace:
            imports = fresh_imports(root, 5, importtime=True)
        else:
            setup = fresh_imports(root, SETUP_IMPORTS, importtime=False)

        rng = np.random.default_rng(args.seed)
        build = workloads.WORKLOADS[args.workload]
        wl = build(fraclode, rng, root, tmp) if args.workload == "cli" else build(fraclode, rng)

        tally = {"attempted": 0, "failed": 0, "correct": True, "unexpected": {},
                 "expected": {}}
        untraced, traced, paired_plain, layers = [], [], [], []
        checked = []  # (ops, results) to check once timing is over
        start = time.perf_counter()
        # A traced run spends half its time on untraced passes, for the
        # time per kind, and half on traced ones.
        budget = args.seconds / 2 if args.trace else args.seconds
        min_passes = 2 if args.trace else MIN_PASSES
        while more_passes(untraced, min_passes, start, budget):
            results, factor = run_pass(wl.ops)
            untraced.append((results, factor if wl.scaled else 1.0, factor))
            checked.append((wl.ops, results))
        if args.trace:
            # Traced passes alternate with untraced ones of the same ops,
            # so their difference is the tracing overhead.
            tracer = Tracer()
            start = time.perf_counter()
            while more_passes(traced, 1, start, args.seconds - budget):
                results, factor = run_pass(wl.traced_ops)
                paired_plain.append(pass_seconds(results, factor if wl.scaled else 1.0))
                checked.append((wl.traced_ops, results))
                tracer.install()
                try:
                    results, factor = run_pass(wl.traced_ops)
                    factor = factor if wl.scaled else 1.0
                    traced.append(pass_seconds(results, factor))
                    layers.append(tracer.snapshot(factor))
                finally:
                    tracer.uninstall()
                checked.append((wl.traced_ops, results))

        for ops, results in checked:
            check_pass(ops, results, tally)
        usage = resource.getrusage(resource.RUSAGE_CHILDREN if wl.rss_of_children
                                   else resource.RUSAGE_SELF)
        n_ops = len(wl.ops)
        # Imports are too short to sample the speed each on its own; the
        # run's median speed factor scales them.
        run_factor = median(speed for _, _, speed in untraced)
        if args.trace:
            metrics = per_layer(layers, [(a * run_factor, b * run_factor) for a, b in imports],
                                traced, paired_plain,
                                [kind_seconds(wl.ops, r, f) for r, f, _ in untraced],
                                run_factor)
        else:
            metrics = {
                "setup_s": {"value": median(setup) * run_factor, "unit": "s"},
                "solves_per_s": {"value": median(n_ops / pass_seconds(r, f)
                                                 for r, f, _ in untraced),
                                 "unit": "1/s"},
                "peak_rss_mb": {"value": usage.ru_maxrss * 1024 / 1e6, "unit": "MB"},
            }
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(tmp))
        except OSError:
            pass

    for name, reason in tally["expected"].items():
        print(f"known fault, counted as failed: {name}: {reason}", file=sys.stderr)
    for name, reason in tally["unexpected"].items():
        print(f"FAILED: {name}: {reason}", file=sys.stderr)
    print(f"{args.workload}: {len(untraced)} untraced and {len(traced)} traced passes "
          f"of {n_ops} operations", file=sys.stderr)
    print(json.dumps({"correct": tally["correct"], "attempted": tally["attempted"],
                      "failed": tally["failed"], "metrics": metrics}))
    return 0


def per_layer(layers, imports, traced, paired_plain, kinds, run_factor) -> dict:
    metrics = {}
    for key in layers[0]:
        values = [layer[key] for layer in layers]
        if key.endswith("ms"):
            metrics[key] = {"value": median(values), "unit": "ms"}
        else:
            if any(v != values[0] for v in values):
                print(f"warning: {key} differs between traced passes: {values}",
                      file=sys.stderr)
            unit = "ratio" if key.endswith("per_matrix_solve") else "count"
            metrics[key] = {"value": values[0], "unit": unit}
    metrics["cli.import_fraclode_ms"] = {"value": median(i[0] for i in imports), "unit": "ms"}
    metrics["cli.import_scipy_linalg_ms"] = {"value": median(i[1] for i in imports),
                                             "unit": "ms"}
    for kind in KINDS:
        metrics[f"{kind}_s"] = {"value": median(k[kind] for k in kinds), "unit": "s"}
    metrics["calibration.speed_factor"] = {"value": run_factor, "unit": "ratio"}
    metrics["trace.overhead_pct"] = {
        "value": 100.0 * (median(traced) / median(paired_plain) - 1.0), "unit": "%"}
    return metrics


if __name__ == "__main__":
    sys.exit(main())
