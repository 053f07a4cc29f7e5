"""The benchmark in perfbench/ traces program functions and methods by name.
Installing its tracer fails if one of those names is gone, so this keeps the
program and the benchmark in step."""

import json
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from jacbif import continuation, jacobi, jacobi_params
from jacbif.continuation import ProblemSpec, SpectralFunction

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def spans(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans

    return spans


def test_sign_references_match_the_exact_expansion(monkeypatch):
    # every exact-sq reference, k up to 16, recomputed from the exact P_k^2
    # expansion (the monomial oracle tests stop at k = 7)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import cases
    import workloads

    refs = json.loads((PERFBENCH / "refs.json").read_text())["sign"]
    grid = cases.sign_cases(0)
    assert len(grid) == len(refs) == 128 and max(c.k for c in grid) == 16
    for case in grid:
        got = workloads.sign_reference(case)
        ref = refs[case.key]
        assert (got["sha256"], got["signs"]) == (ref["sha256"], ref["signs"]), case.key


def test_tracer_installs_records_and_restores(spans):
    functions = {name: getattr(home, attr) for home, attr, name in spans.FUNCTIONS}
    methods = {attr: vars(cls)[attr] for cls, attr in spans.METHODS}
    table = jacobi.jacobi_table
    spec = ProblemSpec(jacobi_params(1, 0), 2.0, N=16)
    c = np.zeros(spec.N)
    c[0], c[2] = 1.0, 0.01
    continuation.discretization.cache_clear()  # so the traced call builds its tables
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert continuation.count_crossings(SpectralFunction(c, spec.params)) == 2
        continuation.discretization(spec)
    finally:
        tracer.uninstall()
    names = {rec[0] for rec in tracer.spans}
    assert "continuation.count_crossings" in names
    # the basis tables of a discretization are the traced jacobi_table calls
    parents = {
        tracer.spans[rec[3]][0] for rec in tracer.spans if rec[0] == "jacobi.jacobi_table.vector"
    }
    assert "continuation.discretization" in parents
    for home, attr, name in spans.FUNCTIONS:
        assert getattr(home, attr) is functions[name], name
    for cls, attr in spans.METHODS:
        assert vars(cls)[attr] is methods[attr], attr
    assert jacobi.jacobi_table is table and continuation.jacobi_table is table


def test_cache_and_exact_coefficient_contract(spans):
    # the tracer reads misses as cache_info() deltas, and the exact-sq set-up
    # builds exact_coeffs, whose coefficients are a tuple of Fractions
    for fn, name in spans.MISSES:
        info = fn.cache_info()
        assert info.hits >= 0 and info.misses >= 0, name
    coeffs = jacobi.exact_coeffs(5, jacobi_params(Fraction(3, 10), Fraction(-7, 10))).coeffs
    assert type(coeffs) is tuple and len(coeffs) == 6
    assert all(type(c) is Fraction for c in coeffs)
