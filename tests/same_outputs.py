"""Compare every benchmark output of this checkout with another's:

    python tests/same_outputs.py OTHER_CHECKOUT

Runs each operation of the `ladder`, `long_grid` and `matrix` workloads
of perfbench/workloads.py, at seeds 1 and 2, once, and the `cli`
operations in process (their traced form).  Each tree runs in its own
interpreter, with its own src/ and perfbench/ first on the path, so the
two trees' workloads are read unchanged.  Values must be equal under
np.array_equal with the same np.signbit, raised errors must have the
same class and message, and the CLI's CSVs the same bytes.  Prints the
count compared and each output that differs; exits 1 on any difference.
The file name does not match test_*.py, so pytest does not collect it.
"""

from __future__ import annotations

import dataclasses
import os
import pickle
import subprocess
import sys
import tempfile

WORKLOADS = ("ladder", "long_grid", "matrix", "cli")
SEEDS = (1, 2)


def _plain(value):
    """value as tuples, dicts, bytes and numpy arrays, which pickle
    without fraclode: dataclasses become dicts of their fields."""
    import numpy as np

    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {f.name: _plain(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, (list, tuple)):
        return tuple(_plain(v) for v in value)
    if isinstance(value, (bytes, str)):
        return value
    return np.array(value)


def dump(tree: str, path: str) -> None:
    """Run every operation on `tree` and pickle {name: ("value" | "error", ...)}."""
    sys.path[:0] = [os.path.join(tree, "src"), os.path.join(tree, "perfbench")]
    import numpy as np

    import fraclode
    import fraclode.cli  # noqa: F401  (the cli operations call it in process)
    import workloads

    results = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name in WORKLOADS:
            for seed in SEEDS:
                rng = np.random.default_rng(seed)
                build = workloads.WORKLOADS[name]
                wl = build(fraclode, rng, tree, tmp) if name == "cli" else build(fraclode, rng)
                for op in wl.traced_ops:
                    try:
                        out = ("value", _plain(op.run()))
                    except Exception as exc:  # compared by class and message
                        out = ("error", type(exc).__name__, str(exc))
                    results[f"{name} seed={seed} {op.name}"] = out
    with open(path, "wb") as fh:
        pickle.dump(results, fh)


def same(a, b) -> bool:
    import numpy as np

    if type(a) is not type(b):
        return False
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(same(a[k], b[k]) for k in a)
    if isinstance(a, tuple):
        return len(a) == len(b) and all(same(x, y) for x, y in zip(a, b))
    if isinstance(a, np.ndarray):
        if a.dtype != b.dtype or a.shape != b.shape:
            return False
        if a.dtype.kind == "f":
            return (np.array_equal(a, b, equal_nan=True)
                    and np.array_equal(np.signbit(a), np.signbit(b)))
        return np.array_equal(a, b)
    return a == b


def main(argv: list[str]) -> int:
    if len(argv) == 3 and argv[0] == "--dump":
        dump(argv[1], argv[2])
        return 0
    if len(argv) != 1:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    trees = (here, os.path.abspath(argv[0]))
    # One BLAS thread, as perfbench/run.py pins it.
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    results = []
    with tempfile.TemporaryDirectory() as tmp:
        for i, tree in enumerate(trees):
            path = os.path.join(tmp, f"{i}.pickle")
            subprocess.run([sys.executable, os.path.abspath(__file__), "--dump", tree, path],
                           cwd=tree, env=env, check=True)
            with open(path, "rb") as fh:
                results.append(pickle.load(fh))
    ours, theirs = results
    differ = [name for name in sorted(ours.keys() | theirs.keys())
              if name not in ours or name not in theirs or not same(ours[name], theirs[name])]
    for name in differ:
        print(f"differs: {name}")
    errors = sum(out[0] == "error" for out in ours.values())
    print(f"compared {len(ours.keys() | theirs.keys())} outputs ({errors} raised errors) "
          f"of {trees[0]} and {trees[1]}: {len(differ)} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
