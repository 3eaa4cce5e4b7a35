"""Self-check of the benchmark's checkers, run from the root of a checkout:

    python3 perfbench/selfcheck.py

Runs one pass of every workload, shows that each check accepts the
program's genuine result, then feeds it corrupted results (a state
scaled by 1 + 1e-6, a rectangle series that stops converging, a
non-monotone ladder, a changed CSV value, a failing exit code) and shows
that it rejects every one.  A check that cannot fail proves nothing.
Exits 1 if any corrupted result passes or any genuine one fails.
"""

from __future__ import annotations

import os
import shutil
import sys

import run  # noqa: I001  (pins BLAS threads before numpy loads)
import numpy as np

import checks
import workloads


def scale_largest(out):
    bad = np.array(out, dtype=float)
    i = np.unravel_index(np.argmax(np.abs(bad)), bad.shape)
    bad[i] *= 1 + 1e-6
    return [("largest state scaled by 1 + 1e-6", bad)]


def unit_cases():
    """Each clause of the composite checkers, failing on its own."""
    sup = [0.4, 0.3, 0.01, 0.001, 0.0]
    nev = [0.1, 0.1, 0.01, 0.01, 0.0]
    ladder = workloads.LADDER
    yield "ladder: non-monotone", checks.ladder(
        [0.4, 0.3, 0.31, 0.001, 0.0], [0.4, 0.3, 0.31, 0.001, 0.0], ladder, 1.0, 0.01, nev, nev)
    yield "ladder: nonzero at alpha = 1", checks.ladder(
        sup[:4] + [1e-3], sup[:4] + [1e-3], ladder, 1.0, 0.01, nev, nev)
    yield "ladder: nev scaled by 1 + 1e-6", checks.ladder(
        sup, sup, ladder, 1.0, 0.01, [nev[0] * (1 + 1e-6)] + nev[1:], nev)
    yield "ladder: Simpson nev above rectangle nev", checks.ladder(
        sup, sup, ladder, 1.0, 0.01, nev, nev, nev_rect=[0.2, 0.2, 0.005, 0.02, 0.0])
    yield "rectangle: slower than documented", checks.rect_rate(0.95, 1.0, 1)
    yield "rectangle: stalled near alpha = 1", checks.rect_rate(1.0, 1.0, 101)
    yield "closed form: error 1e-9", checks.closed_form([1.0 + 1e-9], [1.0], [-1.0], 1.0)
    yield "csv: wrong header", checks.parse_csv(b"t,x2\n0.1,1\n", ["t", "x1"])[1]
    yield "csv: bytes differ", checks.identical(b"t,x1\n0.1,1\n", b"t,x1\n0.1,2\n")


def main() -> int:
    root = os.getcwd()
    sys.path.insert(0, os.path.join(root, "src"))
    import fraclode
    import fraclode.cli  # noqa: F401

    tmp = os.path.join(root, ".perfbench_tmp", f"selfcheck-{os.getpid()}")
    os.makedirs(tmp, exist_ok=True)
    bad = 0
    try:
        for name, build in workloads.WORKLOADS.items():
            # Corrupted results go to a second build of the same inputs, so
            # no state kept from the genuine results (the cli's first
            # bytes) can decide the verdict.
            wl, fresh = [build(fraclode, np.random.default_rng(0), root, tmp) if name == "cli"
                         else build(fraclode, np.random.default_rng(0)) for _ in range(2)]
            for ops, fresh_ops in ([(wl.ops, fresh.ops), (wl.traced_ops, fresh.traced_ops)]
                                   if name == "cli" else [(wl.ops, fresh.ops)]):
                results, _ = run.run_pass(ops, calibrate=False)
                outs = {op.name: out for op, (_, out, err) in zip(ops, results) if err is None}
                for op, fresh_op, (_, out, err) in zip(ops, fresh_ops, results):
                    if err is not None:
                        verdict = "known fault" if op.fault else "UNEXPECTED ERROR"
                        bad += op.fault is None
                        print(f"{name}: {op.name}: {verdict}: {err}")
                        continue
                    genuine = op.check(out, outs)
                    if genuine is not None:
                        verdict = "known fault" if op.fault else "GENUINE RESULT REJECTED"
                        bad += op.fault is None
                        print(f"{name}: {op.name}: {verdict}: {genuine}")
                        continue
                    for label, corrupted in (op.corrupt or scale_largest)(out):
                        reason = fresh_op.check(corrupted, outs)
                        bad += reason is None
                        print(f"{name}: {op.name}: {label}: "
                              f"{'rejected: ' + reason if reason else 'ACCEPTED'}")
        for label, reason in unit_cases():
            bad += reason is None
            print(f"unit: {label}: {'rejected: ' + reason if reason else 'ACCEPTED'}")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(tmp))
        except OSError:
            pass
    verdict = f"FAILED, {bad} problems" if bad else "every corrupted result rejected"
    print(f"self-check: {verdict}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
