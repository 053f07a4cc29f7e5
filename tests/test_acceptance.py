"""Acceptance criteria, one test per criterion.

Each test prints one pass/fail line per check (visible with `pytest -s` or
via `jacbif verify all`) and fails if any check in its criterion fails.
The fold runs are shared between criteria 7 and 8 through a module fixture.
The tests at the end inject a NaN into each suite and expect a FAIL.
"""

import dataclasses
import math
from types import SimpleNamespace

import numpy as np
import pytest

from jacbif import jacobi_params, lambda_prime_zero, linearization, verification
from jacbif.verification import (
    PRODUCT_SIGN_GRID,
    SLOPE_PARAMS,
    run_endpoints,
    run_folds,
    run_gasper,
    run_hygiene,
    run_kernel,
    run_quadrature,
    run_theorem21,
    run_theorem31,
)


def _report(results):
    for res in results:
        print(res.line())
    failed = [res for res in results if not res.passed]
    assert not failed, "\n".join(res.line() for res in failed)


@pytest.fixture(scope="module")
def fold_results():
    return run_folds()


def test_criterion_1_orthogonality_and_quadrature():
    _report(run_quadrature())


def test_criterion_2_endpoint_formulas():
    _report(run_endpoints())


def test_criterion_3_product_sign_structure():
    _report(run_theorem21())


def test_criterion_4_quartic_identity():
    _report(run_gasper())


def test_criterion_5_branch_slope():
    _report(run_theorem31())


def test_criterion_6_discrete_bifurcation_points():
    _report(run_kernel())


def test_criterion_7_fold_realization(fold_results):
    _report([res for res in fold_results if res.name.startswith("fold:")])


def test_criterion_8_branch_invariants(fold_results):
    _report([res for res in fold_results if res.name.startswith("branch invariants:")])


def test_criterion_9_numerical_hygiene():
    _report(run_hygiene(seed=0))


# ---------------------------------------------------------------------------
# a NaN fails its check


def test_nan_moment_fails_quadrature(monkeypatch):
    monkeypatch.setattr(verification, "rel_weight_moments", lambda p, j: (math.nan,) * (j + 1))
    moments = [r for r in run_quadrature() if r.name.startswith("moment exactness")]
    assert moments and not any(r.passed for r in moments)
    assert all("= nan" in r.detail for r in moments)


def test_nan_value_fails_endpoints(monkeypatch):
    monkeypatch.setattr(verification, "eval_jacobi", lambda k, params, t: math.nan)
    results = run_endpoints()
    assert not any(r.passed for r in results)
    assert all("max rel error = nan" in r.detail for r in results)


def test_nan_norm_fails_zero_cube_integrals(monkeypatch):
    # h_k enters only the bound on the cube integrals that must vanish
    monkeypatch.setattr(verification, "norm_sq_closed_form", lambda k, params: math.nan)
    assert [r.passed for r in run_theorem21()] == [not p.is_symmetric for p in PRODUCT_SIGN_GRID]


@pytest.mark.parametrize("index", [0, 1])
def test_nan_float_coefficient_fails_product_signs(index, monkeypatch):
    # the grid is rational, so only the float-against-exact check reads coeffs
    table_of = linearization.linearization_coeffs

    def with_nan(k, params):
        table = table_of(k, params)
        coeffs = table.coeffs.copy()
        coeffs[index] = math.nan
        return dataclasses.replace(table, coeffs=coeffs)

    monkeypatch.setattr(linearization, "linearization_coeffs", with_nan)
    results = run_theorem21()
    assert len(results) == len(PRODUCT_SIGN_GRID)
    assert not any(r.passed for r in results)
    assert all(r.detail == f"k=1: value {index} is NaN and has no sign" for r in results)


def test_nan_quartic_fails_identity(monkeypatch):
    # a = NaN reaches the factored form only
    quartic = verification.gasper_quartic
    monkeypatch.setattr(
        verification, "gasper_quartic", lambda k, a: dataclasses.replace(quartic(k, a), a=math.nan)
    )
    results = run_gasper()
    assert not any(r.passed for r in results)
    assert all("vs factored nan" in r.detail for r in results)


@pytest.mark.parametrize("nan_in", ["slope", "fit"])
def test_nan_slope_or_fit_fails_theorem31(nan_in, monkeypatch):
    slope = (lambda k, spec: math.nan) if nan_in == "slope" else lambda_prime_zero
    monkeypatch.setattr(verification, "estimate_slope", slope)
    fit = (0.0, math.nan if nan_in == "fit" else 0.0)
    monkeypatch.setattr(verification, "quadratic_window_fit", lambda k, spec: fit)
    passed = [r.passed for r in run_theorem31()]
    # every line fits slopes at k = 2 and 4; symmetric lines fit k = 1 and 3
    expected = [nan_in == "fit" and not p.is_symmetric for p in SLOPE_PARAMS for _ in (2, 3)]
    assert passed == expected


@pytest.mark.parametrize(
    "lam, u_plus, critical, flags",
    [
        (math.nan, 2.0, [], "u(+1)>1=True, lambda>1e-4=False"),
        # NaN > 1 is False, so u(+1) = NaN reads as a min after the max at 0
        (2.0, math.nan, [(0.0, "max")], "u(+1)>1=False, lambda>1e-4=True"),
    ],
    ids=["lam", "u(+1)"],
)
def test_nan_point_fails_branch_invariants(lam, u_plus, critical, flags):
    # the labels alternate, so the NaN guard alone fails the check
    u = lambda t: np.where(np.asarray(t) > 0.0, u_plus, 0.5)  # u(-1) = 0.5, u(+1) = u_plus
    point = SimpleNamespace(crossings=1, lam=lam, u=u, critical=critical)
    res = verification._branch_invariants(
        SimpleNamespace(points=[point]), 1, jacobi_params(1, 0), 2.0
    )
    assert not res.passed
    assert res.detail == (
        "crossings constant=True, extremum labels alternate=True, endpoint signs "
        f"constant=True, {flags} over 1 points"
    )


def test_nan_refined_lambda_fails_hygiene(monkeypatch):
    monkeypatch.setattr(verification, "solve_at_phase", lambda *args, **kw: (None, math.nan))
    results = {r.name: r for r in run_hygiene()}
    res = results["N -> 2N refinement stability of lambda"]
    assert not res.passed and res.detail == "max relative lambda shift = nan"
    assert results["byte-identical JSON for identical runs"].passed
