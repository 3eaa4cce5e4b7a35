"""Per-layer tracing from outside the program.

`Tracer.install` replaces public functions of the fraclode modules with
timing wrappers, in every fraclode module namespace that holds them (the
package imports functions by name, so patching only the defining module
would miss the calls between layers).  A span's self time is its
duration minus the time of the wrapped spans it called.
"""

from __future__ import annotations

import functools
import sys
import time

import numpy as np

#: (module, function) pairs that are wrapped; the span is "module.function".
TARGETS = [
    ("rational_order", "approximate_order"),
    ("specfun", "exp_section"),
    ("specfun", "mittag_leffler"),
    ("quadrature", "adaptive_simpson"),
    ("linalg", "eig_real_simple"),
    ("linalg", "expm"),
    ("solver", "solve_scalar_rect"),
    ("solver", "solve_scalar_quad"),
    ("solver", "solve_matrix"),
    ("solver", "solve_via_spectral"),
    ("solver", "classical_exponential"),
    ("analysis", "convergence_study"),
    ("analysis", "gl_derivative"),
    ("cli", "main"),
]

_SCALAR_SOLVES = ("solver.solve_scalar_rect", "solver.solve_scalar_quad")


class SpanStats:
    __slots__ = ("calls", "total", "child")

    def __init__(self) -> None:
        self.calls = 0
        self.total = 0.0
        self.child = 0.0


class Tracer:
    """Collects call counts and inclusive and self times per span name."""

    def __init__(self) -> None:
        self.stats: dict[str, SpanStats] = {}
        self.counts: dict[str, int] = {}
        self._stack: list[list] = []  # [name, child seconds]
        self._patches: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.stats = {f"{mod}.{fn}": SpanStats() for mod, fn in TARGETS}
        self.counts = {"specfun.exp_section.elements": 0,
                       "quadrature.integrand.evals": 0,
                       "quadrature.integrand.points": 0,
                       "solver.scalar_solves_in_matrix_solves": 0}

    def _count_integrand(self, f):
        def counted(v):
            out = f(v)
            self.counts["quadrature.integrand.evals"] += 1
            self.counts["quadrature.integrand.points"] += int(np.size(out))
            return out
        return counted

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if name == "specfun.exp_section":
                self.counts["specfun.exp_section.elements"] += int(np.size(args[0]))
            elif name == "quadrature.adaptive_simpson":
                args = (self._count_integrand(args[0]),) + args[1:]
            elif name in _SCALAR_SOLVES and any(
                    frame[0] == "solver.solve_matrix" for frame in self._stack):
                self.counts["solver.scalar_solves_in_matrix_solves"] += 1
            frame = [name, 0.0]
            self._stack.append(frame)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self._stack.pop()
                if self._stack:
                    self._stack[-1][1] += elapsed
                span = self.stats[name]
                span.calls += 1
                span.total += elapsed
                span.child += frame[1]
        return wrapper

    def install(self) -> None:
        """Wrap every target wherever a fraclode module holds it."""
        modules = [m for key, m in sys.modules.items()
                   if key == "fraclode" or key.startswith("fraclode.")]
        self.reset()
        for mod_name, fn_name in TARGETS:
            original = getattr(sys.modules[f"fraclode.{mod_name}"], fn_name)
            wrapper = self._wrap(f"{mod_name}.{fn_name}", original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, attr, value))
                        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patches):
            setattr(module, attr, value)
        self._patches.clear()

    def snapshot(self, factor: float) -> dict[str, float]:
        """This pass's per-layer figures; times in ms, multiplied by the
        pass's speed factor."""
        s = self.stats
        ms = lambda name: 1e3 * factor * s[name].total  # noqa: E731
        self_ms = lambda name: 1e3 * factor * (s[name].total - s[name].child)  # noqa: E731
        matrix_solves = s["solver.solve_matrix"].calls
        return {
            "specfun.exp_section.calls": s["specfun.exp_section"].calls,
            "specfun.exp_section.ms": ms("specfun.exp_section"),
            "specfun.exp_section.elements": self.counts["specfun.exp_section.elements"],
            "quadrature.adaptive_simpson.calls": s["quadrature.adaptive_simpson"].calls,
            "quadrature.adaptive_simpson.ms": ms("quadrature.adaptive_simpson"),
            "quadrature.integrand.evals": self.counts["quadrature.integrand.evals"],
            "quadrature.integrand.points": self.counts["quadrature.integrand.points"],
            "solver.solve_scalar_rect.calls": s["solver.solve_scalar_rect"].calls,
            "solver.solve_scalar_rect.self_ms": self_ms("solver.solve_scalar_rect"),
            "solver.solve_scalar_quad.calls": s["solver.solve_scalar_quad"].calls,
            "solver.solve_scalar_quad.self_ms": self_ms("solver.solve_scalar_quad"),
            "specfun.mittag_leffler.calls": s["specfun.mittag_leffler"].calls,
            "specfun.mittag_leffler.ms": ms("specfun.mittag_leffler"),
            "linalg.eig_real_simple.calls": s["linalg.eig_real_simple"].calls,
            "linalg.eig_real_simple.ms": ms("linalg.eig_real_simple"),
            "solver.solve_via_spectral.self_ms": self_ms("solver.solve_via_spectral"),
            "solver.scalar_solves_per_matrix_solve": (
                self.counts["solver.scalar_solves_in_matrix_solves"] / matrix_solves
                if matrix_solves else 0.0),
            "linalg.expm.calls": s["linalg.expm"].calls,
            "linalg.expm.ms": ms("linalg.expm"),
            "solver.classical_exponential.ms": ms("solver.classical_exponential"),
            "rational_order.approximate_order.calls":
                s["rational_order.approximate_order"].calls,
            "rational_order.approximate_order.ms": ms("rational_order.approximate_order"),
            "analysis.convergence_study.self_ms": self_ms("analysis.convergence_study"),
            "analysis.gl_derivative.ms": ms("analysis.gl_derivative"),
            "cli.main_ms": ms("cli.main"),
        }
