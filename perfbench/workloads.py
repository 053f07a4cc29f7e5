"""Workload set-up, solve and correctness checks.

Every call into the program goes through a module attribute at call time
(``continuation.find_degenerate``), so the wrappers of a traced pass see it.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

import cases as C
from jacbif import continuation, jacobi, linearization, output
from spans import rebind

LAMBDA_REL_TOL = 1e-9
ZERO_BAND = 1e-12  # relative band under which a float coefficient counts as 0
SIGN_CHAR = {"positive": "+", "zero": "0", "negative": "-"}


@dataclass
class Outcome:
    """What one case produced: its work count and what failed, if anything."""

    key: str
    points: int = 0
    branch_points: int = 0
    problems: list[str] = field(default_factory=list)


# ---------------------------------------------------------------------------
# fold localization: find_degenerate, then branch_to_json


def fold_setup(cases) -> dict:
    """Build every discretization the cases need; returns their specs."""
    specs = {}
    for c in cases:
        key = (c.alpha, c.beta, c.q, c.N)
        if key not in specs:
            params = jacobi.jacobi_params(c.alpha, c.beta)
            specs[key] = continuation.ProblemSpec(params, float(c.q), N=c.N)
            continuation.discretization(specs[key])
    return specs


def fold_solve(case, specs, capture=None):
    spec = specs[(case.alpha, case.beta, case.q, case.N)]
    rec = continuation.find_degenerate(case.k, spec, s0=case.s0)
    return rec, output.branch_to_json(rec.branch)


def fold_work(case, result) -> tuple[int, int]:
    """(accepted branch points + fold points, accepted branch points)."""
    branch = result[0].branch
    return len(branch.points) + len(branch.folds), len(branch.points)


def fold_check(case, result, ref, out: Outcome) -> None:
    rec, text = result
    if "lambda_star" not in ref:
        out.problems.append(f"no reference value: the case raised {ref.get('error')} when references were made")
        return
    lam, want = rec.lambda_star, ref["lambda_star"]
    if not abs(lam - want) <= LAMBDA_REL_TOL * abs(want):
        out.problems.append(f"lambda_star {lam!r} != reference {want!r}")
    counts = (rec.point.crossings, rec.point.critical_points)
    if counts != (ref["crossings"], ref["critical_points"]):
        out.problems.append(f"(crossings, critical points) {counts} != reference "
                            f"{(ref['crossings'], ref['critical_points'])}")
    doc = json.loads(text)
    if doc["folds"][0]["lambda_star"] != lam or len(doc["points"]) != len(rec.branch.points):
        out.problems.append("branch JSON disagrees with the traced branch")


def fold_reference(case) -> dict:
    """Reference entry for one fold case, as make_refs.py stores it."""
    specs = fold_setup([case])
    try:
        rec, _ = fold_solve(case, specs)
    except Exception as exc:  # a failing grid case is recorded, not hidden
        return {"error": type(exc).__name__, "message": str(exc)}
    return {
        "lambda_star": rec.lambda_star,
        "crossings": rec.point.crossings,
        "critical_points": rec.point.critical_points,
        "branch_points": len(rec.branch.points),
    }


# ---------------------------------------------------------------------------
# exact linearization: sign_classification of P_k^2


class TableCapture:
    """Keeps the LinearizationTable behind each sign_classification call, so
    the check sees the exact and float coefficients without recomputing."""

    def __init__(self):
        self.last = None
        self._restore = None

    def install(self) -> None:
        def wrap(fn):
            def capture(*args, **kwargs):
                self.last = fn(*args, **kwargs)
                return self.last

            return capture

        self._restore = rebind(linearization, "linearization_coeffs", wrap)

    def uninstall(self) -> None:
        self._restore()


def sign_setup(cases) -> dict:
    """Exact Jacobi basis P_0 .. P_2k of every parameter pair: the exact-path
    counterpart of a discretization's basis tables."""
    kmax = max(c.k for c in cases)
    params = {}
    for c in cases:
        if (c.alpha, c.beta) not in params:
            p = params[(c.alpha, c.beta)] = jacobi.jacobi_params(c.alpha, c.beta)
            for i in range(2 * kmax + 1):
                jacobi.exact_coeffs(i, p)
    return params


def sign_solve(case, params, capture: TableCapture):
    report = linearization.sign_classification(case.k, params[(case.alpha, case.beta)])
    return report, capture.last


def exact_digest(values) -> str:
    text = ",".join(f"{Fraction(v).numerator}/{Fraction(v).denominator}" for v in values)
    return hashlib.sha256(text.encode()).hexdigest()


def float_signs(coeffs: np.ndarray) -> str:
    band = ZERO_BAND * float(np.max(np.abs(coeffs)))
    return "".join("0" if abs(c) <= band else ("+" if c > 0 else "-") for c in coeffs)


def exact_signs(values) -> str:
    return "".join("0" if v == 0 else ("+" if v > 0 else "-") for v in values)


def sign_work(case, result) -> tuple[int, int]:
    """(coefficients classified, 0)."""
    return 2 * case.k + 1, 0


def sign_check(case, result, ref, out: Outcome) -> None:
    report, table = result
    if table is None or table.k != case.k or table.exact is None:
        out.problems.append("no exact linearization table behind the classification")
        return
    if exact_digest(table.exact) != ref["sha256"]:
        out.problems.append("exact coefficients differ from the reference")
    if exact_signs(table.exact) != ref["signs"]:
        out.problems.append(f"exact signs {exact_signs(table.exact)} != reference {ref['signs']}")
    if float_signs(table.coeffs) != exact_signs(table.exact):
        out.problems.append(f"float signs {float_signs(table.coeffs)} disagree with the exact ones")
    if "".join(SIGN_CHAR[s] for s in report.signs) != ref["signs"] or not report.ok:
        out.problems.append(f"classification {report.signs} (discrepancies {report.discrepancies})")


def sign_reference(case) -> dict:
    table = linearization.linearization_coeffs(case.k, jacobi.jacobi_params(case.alpha, case.beta))
    return {"sha256": exact_digest(table.exact), "signs": exact_signs(table.exact)}


# ---------------------------------------------------------------------------
# workload table


@dataclass(frozen=True)
class Workload:
    kind: str       # "fold" or "sign": the section of refs.json
    cases: object   # seed -> list of cases
    setup: object   # cases -> inputs
    solve: object   # (case, inputs, capture) -> result
    work: object    # (case, result) -> (points, branch points)
    check: object   # (case, result, reference, outcome) -> None


FOLD = dict(kind="fold", setup=fold_setup, solve=fold_solve, work=fold_work, check=fold_check)
SIGN = dict(kind="sign", setup=sign_setup, solve=sign_solve, work=sign_work, check=sign_check)
WORKLOADS = {
    "fold-ref": Workload(cases=lambda seed: C.fold_ref_cases(seed, (1, 2, 3), 64), **FOLD),
    "fold-n256": Workload(cases=lambda seed: C.fold_ref_cases(seed, (1, 2), 256), **FOLD),
    "exact-sq": Workload(cases=C.sign_cases, **SIGN),
    # The seeded grid draws.  Their cost differs up to 20x from seed to seed,
    # so they check correctness over the grid but are not timed workloads of
    # BENCHMARK.json.
    "fold-grid": Workload(cases=lambda seed: C.fold_grid_cases(seed, (1, 2, 3), 64), **FOLD),
    "fold-grid-n256": Workload(cases=lambda seed: C.fold_grid_cases(seed, (1, 2), 256), **FOLD),
}
