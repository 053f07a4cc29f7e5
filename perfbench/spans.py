"""Outside-in tracing: the benchmark rebinds public functions of the program's
modules to timing wrappers, records one span per call in memory, and turns
the spans of a pass into per-layer metrics.  No program file changes.

A span is (name, start, end, parent, case, phase): parent is the index of
the enclosing span (-1 at top level), case the id shared by every span of
one benchmark case, phase "setup" or "solve".
"""

from __future__ import annotations

import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

from jacbif import continuation, jacobi, linearization, output


def program_modules() -> list:
    return [m for n, m in sorted(sys.modules.items()) if n == "jacbif" or n.startswith("jacbif.")]


def rebind(home, name: str, make_wrapper):
    """Replace ``home.name`` by ``make_wrapper(original)`` in every program
    module that imported the same object (``from .jacobi import jacobi_table``
    binds it again in each importer).  Returns a function that undoes it."""
    orig = getattr(home, name)
    new = make_wrapper(orig)
    touched = [home] + [m for m in program_modules() if m is not home and vars(m).get(name) is orig]
    for mod in touched:
        setattr(mod, name, new)

    def restore():
        for mod in touched:
            setattr(mod, name, orig)

    return restore


def program_caches() -> list:
    """The lru_cache'd functions defined by the program's modules."""
    seen = {}
    for mod in program_modules():
        for obj in vars(mod).values():
            if hasattr(obj, "cache_clear") and getattr(obj, "__module__", None) == mod.__name__:
                seen[id(obj)] = obj
    return list(seen.values())


# Functions traced by name: (home module, attribute, span name).
FUNCTIONS = (
    (jacobi, "gauss_jacobi_rule", "jacobi.gauss_jacobi_rule"),
    (jacobi, "exact_coeffs", "jacobi.exact_coeffs"),
    (jacobi, "integrate_relative", "jacobi.integrate_relative"),
    (linearization, "linearization_coeffs", "linearization.linearization_coeffs"),
    (linearization, "sign_classification", "linearization.sign_classification"),
    (continuation, "discretization", "continuation.discretization"),
    (continuation, "count_crossings", "continuation.count_crossings"),
    (continuation, "count_critical_points", "continuation.count_critical_points"),
    (continuation, "critical_point_list", "continuation.critical_point_list"),
    (continuation, "solve_at_phase", "continuation.solve_at_phase"),
    (continuation, "branch_switch", "continuation.branch_switch"),
    (continuation, "continue_branch", "continuation.continue_branch"),
    (continuation, "detect_fold", "continuation.detect_fold"),
    (continuation, "find_degenerate", "continuation.find_degenerate"),
    (np.linalg, "svd", "numpy.linalg.svd"),
    (np.linalg, "solve", "numpy.linalg.solve"),
)
METHODS = (
    (continuation.Discretization, "residual_coeffs"),
    (continuation.Discretization, "jacobian"),
    (continuation.Discretization, "dresidual_dlambda"),
    (continuation.Discretization, "quad_gap"),
)
# lru_cache'd functions whose misses are reported, from cache_info() deltas.
MISSES = (
    (continuation.discretization, "continuation.discretization.misses"),
    (jacobi.gauss_jacobi_rule, "jacobi.gauss_jacobi_rule.misses"),
    (jacobi.exact_coeffs, "jacobi.exact_coeffs.misses"),
)
# Parents that numpy.linalg.solve calls are attributed to.
SOLVE_PARENTS = ("continue_branch", "solve_at_phase", "detect_fold")
# Spans whose outermost occurrences make up the per-point diagnostics.
DIAGNOSTICS = (
    "continuation.count_crossings",
    "continuation.count_critical_points",
    "continuation.critical_point_list",
    "numpy.linalg.svd",
)


class Tracer:
    """Span recorder; ``install`` wraps the program, ``uninstall`` restores it."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.case = ""
        self.phase = ""
        self._stack: list[int] = []
        self._restore: list = []
        self._misses0: dict[str, int] = {}

    def _wrap(self, fn, name_of):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            idx = len(spans)
            rec = [name_of(args, kwargs), 0.0, 0.0, stack[-1] if stack else -1, self.case, self.phase]
            spans.append(rec)
            stack.append(idx)
            rec[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()

        return wrapper

    def _named(self, name):
        return lambda fn: self._wrap(fn, lambda args, kwargs: name)

    def install(self) -> None:
        counts = self.counts
        for home, attr, name in FUNCTIONS:
            self._restore.append(rebind(home, attr, self._named(name)))
        for cls, attr in METHODS:
            orig = vars(cls)[attr]
            setattr(cls, attr, self._named(f"continuation.{cls.__name__}.{attr}")(orig))
            self._restore.append(lambda cls=cls, attr=attr, orig=orig: setattr(cls, attr, orig))

        def table_name(args, kwargs):
            t = args[2] if len(args) > 2 else kwargs["t"]
            if np.ndim(t) == 0:
                return "jacobi.jacobi_table.scalar"
            kmax = args[1] if len(args) > 1 else kwargs["kmax"]
            counts["jacobi.jacobi_table.vector.evals"] += np.size(t) * (kmax + 1)
            return "jacobi.jacobi_table.vector"

        self._restore.append(rebind(jacobi, "jacobi_table", lambda fn: self._wrap(fn, table_name)))

        mul = jacobi.ExactPolynomial.__mul__
        traced_mul = self._named("jacobi.ExactPolynomial.__mul__")(mul)

        def counted_mul(a, b):
            # the products ExactPolynomial.__mul__ forms: nonzero a_i times every b_j
            counts["jacobi.ExactPolynomial.__mul__.products"] += (
                sum(1 for c in a.coeffs if c) * len(b.coeffs) if b.coeffs else 0
            )
            return traced_mul(a, b)

        jacobi.ExactPolynomial.__mul__ = counted_mul
        self._restore.append(lambda: setattr(jacobi.ExactPolynomial, "__mul__", mul))

        def to_json(fn):
            traced = self._named("output.branch_to_json")(fn)

            def counted(branch):
                text = traced(branch)
                counts["output.branch_to_json.bytes"] += len(text.encode())
                return text

            return counted

        self._restore.append(rebind(output, "branch_to_json", to_json))
        self._misses0 = {name: fn.cache_info().misses for fn, name in MISSES}

    def uninstall(self) -> dict[str, int]:
        """Restore the program; return the counts recorded since install."""
        for restore in reversed(self._restore):
            restore()
        self._restore.clear()
        counts = dict(self.counts)
        for fn, name in MISSES:
            counts[name] = fn.cache_info().misses - self._misses0[name]
        self.counts.clear()
        return counts


def self_times(spans: list[list]) -> list[float]:
    """Duration of each span minus the part its direct children cover."""
    own = [end - start for _, start, end, *_ in spans]
    for rec in spans:
        if rec[3] >= 0:
            own[rec[3]] -= rec[2] - rec[1]
    return own


def _ancestor(spans, idx, names) -> str | None:
    parent = spans[idx][3]
    while parent >= 0:
        name = spans[parent][0].rsplit(".", 1)[-1]
        if name in names:
            return name
        parent = spans[parent][3]
    return None


def _outermost(spans, idx, names) -> bool:
    parent = spans[idx][3]
    while parent >= 0:
        if spans[parent][0] in names:
            return False
        parent = spans[parent][3]
    return True


def layer_metrics(spans: list[list], counts: dict[str, int], solve_s: float,
                  branch_points: int, points: int) -> dict[str, float]:
    """Per-layer numbers of one traced pass: calls, inclusive and self time
    per span name, work counts, and the ratios named in BENCHMARK.json."""
    own = self_times(spans)
    out: dict[str, float] = defaultdict(float)
    top = diag = 0.0
    for i, (name, start, end, _, _, phase) in enumerate(spans):
        dur = end - start
        if name == "numpy.linalg.solve":
            name = f"numpy.linalg.solve.{_ancestor(spans, i, SOLVE_PARENTS) or 'other'}"
        out[f"{name}.calls"] += 1
        out[f"{name}.s"] += dur
        out[f"{name}.self_s"] += own[i]
        if phase == "solve" and spans[i][3] < 0:
            top += dur
        if phase == "solve" and name in DIAGNOSTICS and _outermost(spans, i, DIAGNOSTICS):
            diag += dur
    out.update(counts)
    newton = sum(out[f"numpy.linalg.solve.{p}.calls"] for p in ("continue_branch", "solve_at_phase"))
    out["continuation.scalar_evals_per_point"] = out["jacobi.jacobi_table.scalar.calls"] / max(points, 1)
    out["continuation.newton_solves_per_point"] = newton / max(branch_points, 1)
    out["continuation.diagnostics_share"] = diag / solve_s
    out["trace.coverage"] = top / solve_s
    out["trace.spans"] = len(spans)
    return out
