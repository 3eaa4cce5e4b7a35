"""The benchmark's tracer wraps fraclode functions by name; every name it
lists must exist, or `perfbench/run.py --trace 1` fails on AttributeError."""

import importlib
import importlib.util
import pathlib
import sys

TRACING = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_every_traced_target_resolves(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ as it is
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TARGETS
    missing = [f"{mod}.{fn}" for mod, fn in tracing.TARGETS
               if not callable(getattr(importlib.import_module(f"fraclode.{mod}"), fn, None))]
    assert missing == []
