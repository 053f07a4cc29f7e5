"""Acceptance suites: property checks at desk scale, shared between the
`verify` CLI subcommand and the pytest acceptance module.

Every check returns a CheckResult rather than raising, so a full run always
produces one pass/fail line per criterion.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .continuation import (
    CERTIFICATE_TOL,
    DEGENERATE_TOL,
    Branch,
    ContinuationSettings,
    ProblemSpec,
    SpectralFunction,
    _alternating,
    _extremum_labels,
    bifurcation_lambda,
    branch_switch,
    continue_branch,
    discretization,
    find_degenerate,
    jacobian,
    lambda_prime_zero,
    solve_at_phase,
)
from .errors import NumericalError, ParameterError
from .jacobi import (
    JacobiParams,
    endpoint_value,
    eval_jacobi,
    exact_coeffs,
    gauss_jacobi_rule,
    integrate_relative,
    jacobi_params,
    jacobi_table,
    norm_sq_closed_form,
    rel_weight_moments,
    weight_mass,
)
from .linearization import (
    ZERO_BAND,
    classify,
    gasper_quartic,
    quartic_sign_structure,
    sign_classification,
)
from .output import branch_to_json

__all__ = ["CheckResult", "SUITE_NAMES", "run_suite"]


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] {self.name}" + (f": {self.detail}" if self.detail else "")


F = Fraction

PARAM_GRID = [
    jacobi_params(0, 0),
    jacobi_params(F(1, 2), F(1, 2)),
    jacobi_params(1, 0),
    jacobi_params(F(3, 2), F(1, 2)),
    jacobi_params(F(-2, 5), F(-2, 5)),
    jacobi_params(F(3, 10), F(-7, 10)),
]

PRODUCT_SIGN_GRID = [
    jacobi_params(F(-2, 5), F(-2, 5)),
    jacobi_params(0, 0),
    jacobi_params(F(1, 2), F(1, 2)),
    jacobi_params(F(3, 2), F(3, 2)),
    jacobi_params(1, 0),
    jacobi_params(F(3, 2), F(1, 2)),
    jacobi_params(2, F(-1, 2)),
    jacobi_params(F(3, 10), F(-7, 10)),
]

SLOPE_PARAMS = [
    jacobi_params(1, 0),
    jacobi_params(F(3, 2), F(1, 2)),
    jacobi_params(F(1, 2), F(1, 2)),
    jacobi_params(0, 0),
]

FOLD_CASES = [
    (2, jacobi_params(F(1, 2), F(1, 2)), 3.0),
    (1, jacobi_params(1, 0), 2.0),
    (3, jacobi_params(F(3, 2), F(1, 2)), 2.0),
]


def _worst(values) -> float:
    """The largest of values, 0 for none, and NaN if any is NaN: max() keeps
    its running value when a NaN comes after a number."""
    return float(np.max(values, initial=0.0))


def _fmt(params: JacobiParams) -> str:
    return "({},{})".format(*params.exact)


# ---------------------------------------------------------------------------
# criterion 1: orthogonality and quadrature exactness


def run_quadrature(seed: int = 0) -> list[CheckResult]:
    out = []
    kmax = 30
    for params in PARAM_GRID:
        rule = gauss_jacobi_rule(params, 40)
        table = jacobi_table(params, kmax, rule.nodes)
        gram = table.T @ (table * rule.weights[:, None])
        h = np.array([norm_sq_closed_form(k, params) for k in range(kmax + 1)])
        scale = np.sqrt(np.outer(h, h))
        off = np.abs(gram - np.diag(np.diag(gram))) / scale
        worst = float(np.max(off))
        out.append(
            CheckResult(
                f"orthogonality {_fmt(params)} j<k<=30",
                worst < 1e-11,
                f"max |<Pj,Pk>|/sqrt(hj hk) = {worst:.2e}",
            )
        )
        m0 = weight_mass(params)
        rel = rel_weight_moments(params, 79)
        errs = []
        for m in (1, 2, 3, 5, 8, 13, 21, 40):
            r = gauss_jacobi_rule(params, m)
            for j in range(2 * m):
                approx = float(r.weights @ (r.nodes**j))
                exact = float(rel[j]) * m0
                errs.append(abs(approx - exact) / max(abs(exact), m0))
        worst_m = _worst(errs)
        out.append(
            CheckResult(
                f"moment exactness {_fmt(params)} deg<=2m-1",
                worst_m < 1e-12,
                f"max scaled error = {worst_m:.2e}",
            )
        )
    return out


# ---------------------------------------------------------------------------
# criterion 2: endpoint formulas and sign pattern


def run_endpoints(seed: int = 0) -> list[CheckResult]:
    out = []
    for params in PARAM_GRID:
        errs = []
        signs_ok = True
        prev_minus = None
        for k in range(31):
            for side in (-1, 1):
                ref = endpoint_value(k, params, side)
                got = eval_jacobi(k, params, float(side))
                errs.append(abs(got - float(ref)) / abs(float(ref)))
            plus = endpoint_value(k, params, +1)
            minus = endpoint_value(k, params, -1)
            if not plus > 0:
                signs_ok = False
            if prev_minus is not None and not prev_minus * minus < 0:
                signs_ok = False
            prev_minus = minus
        worst = _worst(errs)
        out.append(
            CheckResult(
                f"endpoint formulas {_fmt(params)} k<=30",
                worst < 1e-12 and signs_ok,
                f"max rel error = {worst:.2e}, sign pattern {'ok' if signs_ok else 'BROKEN'}",
            )
        )
    return out


# ---------------------------------------------------------------------------
# criterion 3: sign structure of the squared-polynomial expansion


def _product_signs_failure(k: int, params: JacobiParams) -> str:
    """Why the sign structure of P_k^2 fails at (k, params), or "" if it holds."""
    report = sign_classification(k, params)
    if not report.ok:
        return f"k={k} discrepancies at i={report.discrepancies}"
    table = report.table
    # floating signs must agree with the exact ones
    float_signs = classify(table.coeffs, ZERO_BAND)
    exact_signs = classify(table.exact)
    if float_signs != exact_signs:
        return f"k={k}: float signs {float_signs} != exact signs {exact_signs}"
    h32 = norm_sq_closed_form(k, params) ** 1.5
    p = exact_coeffs(k, params)
    i3_exact = integrate_relative(p * p * p, params)  # int P_k^3 w dt / m_0
    if params.is_symmetric and k % 2 == 1:
        if not (abs(table.i3) <= 1e-12 * h32 and i3_exact == 0):
            return f"k={k}: cube integral not zero ({table.i3:.2e})"
    elif not (table.i3 > 0 and i3_exact > 0):
        return f"k={k}: cube integral not positive ({table.i3:.2e})"
    return ""


def run_theorem21(seed: int = 0) -> list[CheckResult]:
    out = []
    for params in PRODUCT_SIGN_GRID:
        detail = ""
        for k in range(1, 13):
            try:
                detail = _product_signs_failure(k, params)
            except NumericalError as exc:
                detail = f"k={k}: {exc}"
            if detail:
                break
        out.append(
            CheckResult(f"product sign structure {_fmt(params)} k<=12", not detail, detail)
        )
    return out


# ---------------------------------------------------------------------------
# criterion 4: the sign-analysis quartic


def run_gasper(seed: int = 0) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    out = []
    for a in (F(1, 4), F(1), F(2), F(7, 2)):
        ok = True
        detail = ""
        for k in range(2, 9):
            gq = gasper_quartic(k, a)
            for x in rng.uniform(0.0, 2.0 * k, size=5):
                fe, fa = gq.expanded(float(x)), gq.factored(float(x))
                scale = max(abs(fe), abs(fa), 1.0)
                if not abs(fe - fa) <= 1e-10 * scale:
                    ok = False
                    detail = f"k={k}, J={x:.3f}: expanded {fe:.6e} vs factored {fa:.6e}"
                    break
            if not ok:
                break
            c0, c1, c2, c3, c4 = gq.coeffs
            if not (c4 < 0 and c3 < 0 and c1 > 0 and c0 > 0):
                ok = False
                detail = f"k={k}: coefficient sign pattern broken"
                break
            try:
                quartic_sign_structure(gq)
            except Exception as exc:
                ok = False
                detail = f"k={k}: {exc}"
                break
        out.append(CheckResult(f"quartic identity and root structure a={a}", ok, detail))
    return out


# ---------------------------------------------------------------------------
# criterion 5: branch slope at the bifurcation points


def _branch_samples(k: int, spec: ProblemSpec, s0: float, ds: float, steps: int):
    """Points of the branch from (1, lambda_k) at fixed step ds: tangent
    amplitudes sigma = c_k sqrt(h_k), lambda - lambda_k, and sqrt(h_k)."""
    settings = ContinuationSettings(ds0=ds, ds_max=ds, max_steps=steps)
    branch = continue_branch(branch_switch(k, spec, s0, +1), spec, settings)
    sqh = math.sqrt(discretization(spec).h[k])
    sig = np.array([p.u.coeffs[k] * sqh for p in branch.points])
    lam = np.array([p.lam for p in branch.points])
    return sig, lam - bifurcation_lambda(k, spec.params.a, spec.q), sqh


def estimate_slope(k: int, spec: ProblemSpec, n_points: int = 5, s0: float = 1e-3) -> float:
    """Finite-difference estimate of the branch slope from the first accepted
    points: fit lambda(sigma) = lambda_k + p sigma + r sigma^2, return
    p * sqrt(h_k) (the tangent amplitude is measured against P_k normalized
    in the weighted norm)."""
    sig, d, sqh = _branch_samples(k, spec, s0, s0, n_points)
    coef, *_ = np.linalg.lstsq(np.column_stack([sig, sig * sig]), d, rcond=None)
    return float(coef[0]) * sqh


def quadratic_window_fit(
    k: int, spec: ProblemSpec, s_min: float = 1e-4, s_max: float = 1e-2
) -> tuple[float, float]:
    """For the zero-slope case: fit lambda - lambda_k = C sigma^2 over the
    window and return (C, relative fit residual)."""
    sig, d, _ = _branch_samples(k, spec, s_min, 1e-3, 14)
    keep = sig <= s_max * 1.05
    sig, d = sig[keep], d[keep]
    c_fit = float(np.sum(sig**2 * d) / np.sum(sig**4))
    resid = float(np.linalg.norm(d - c_fit * sig**2) / np.linalg.norm(d))
    return c_fit, resid


def run_theorem31(seed: int = 0) -> list[CheckResult]:
    out = []
    for params in SLOPE_PARAMS:
        for q in (2.0, 3.0):
            spec = ProblemSpec(params, q)
            rels, fits = [], []
            ok = True
            detail_parts = []
            for k in range(1, 5):
                closed = lambda_prime_zero(k, spec)
                if params.is_symmetric and k % 2 == 1:
                    if closed != 0.0:
                        ok = False
                        detail_parts.append(f"k={k}: closed form {closed:.2e} != 0")
                        continue
                    c_fit, resid = quadratic_window_fit(k, spec)
                    fits.append(resid)
                    if not resid < 0.05:
                        ok = False
                        detail_parts.append(f"k={k}: quadratic fit residual {resid:.1%}")
                else:
                    est = estimate_slope(k, spec)
                    rel = abs(est - closed) / abs(closed)
                    rels.append(rel)
                    if not rel < 0.01:
                        ok = False
                        detail_parts.append(
                            f"k={k}: slope {est:.6f} vs closed {closed:.6f} ({rel:.2%})"
                        )
            detail = (
                f"max slope mismatch {_worst(rels):.2e}, max quadratic-fit residual "
                f"{_worst(fits):.2e}"
            )
            if detail_parts:
                detail += "; " + "; ".join(detail_parts)
            out.append(CheckResult(f"branch slope {_fmt(params)} q={q:g} k<=4", ok, detail))
    return out


# ---------------------------------------------------------------------------
# criterion 6: discrete bifurcation points


def run_kernel(seed: int = 0) -> list[CheckResult]:
    out = []
    for params in SLOPE_PARAMS:
        for q in (2.0, 3.0):
            spec = ProblemSpec(params, q, N=64)
            one = SpectralFunction.constant_one(spec)
            ok = True
            detail = ""
            for k in range(1, spec.N // 4 + 1):
                lam_k = bifurcation_lambda(k, params.a, q)
                mat = jacobian(one, lam_k, spec)
                _, svals, vt = np.linalg.svd(mat)
                small = int(np.sum(svals < 1e-10))
                mode = int(np.argmax(np.abs(vt[-1])))
                if small != 1 or mode != k:
                    ok = False
                    detail = f"k={k}: {small} small singular values, mode {mode}"
                    break
            out.append(
                CheckResult(f"trivial-branch kernel {_fmt(params)} q={q:g} k<=16", ok, detail)
            )
    return out


# ---------------------------------------------------------------------------
# criteria 7 and 8: fold realization and branch invariants


def run_folds(seed: int = 0) -> list[CheckResult]:
    results = []
    for k, params, q in FOLD_CASES:
        spec = ProblemSpec(params, q)
        lam_k = bifurcation_lambda(k, params.a, q)
        t0 = time.monotonic()
        try:
            rec = find_degenerate(k, spec)
        except Exception as exc:
            results.append(
                CheckResult(
                    f"fold: k={k} {_fmt(params)} q={q:g}", False, f"{type(exc).__name__}: {exc}"
                )
            )
            continue
        elapsed = time.monotonic() - t0
        checks = [
            rec.moore_spence_residual < CERTIFICATE_TOL,
            rec.sigma_ratio < DEGENERATE_TOL,
            rec.point.crossings == k,
            rec.point.critical_points == k - 1,
            0.0 < rec.lambda_star < lam_k,
            elapsed < 60.0,
        ]
        results.append(
            CheckResult(
                f"fold: k={k} {_fmt(params)} q={q:g}",
                all(checks),
                f"lambda*={rec.lambda_star:.6f} in (0,{lam_k:g}), ms_res="
                f"{rec.moore_spence_residual:.1e}, smin/smax={rec.sigma_ratio:.1e}, "
                f"crossings={rec.point.crossings}, critical={rec.point.critical_points}, "
                f"{elapsed:.1f}s",
            )
        )
        results.append(_branch_invariants(rec.branch, k, params, q))
    return results


def _branch_invariants(branch: Branch, k: int, params: JacobiParams, q: float) -> CheckResult:
    crossings_ok = all(p.crossings == k for p in branch.points)
    labels_ok = all(_alternating(_extremum_labels(p)) for p in branch.points)
    ends = np.array([-1.0, 1.0])
    sgn_minus = set()
    sgn_plus = set()
    plus_above = True
    lam_ok = True
    for p in branch.points:
        vals = p.u(ends)
        sgn_minus.add(vals[0] > 1.0)
        sgn_plus.add(vals[1] > 1.0)
        if not vals[1] > 1.0:
            plus_above = False
        if not p.lam > 1e-4:
            lam_ok = False
    ok = (
        crossings_ok
        and labels_ok
        and len(sgn_minus) == 1
        and len(sgn_plus) == 1
        and plus_above
        and lam_ok
    )
    return CheckResult(
        f"branch invariants: k={k} {_fmt(params)} q={q:g}",
        ok,
        f"crossings constant={crossings_ok}, extremum labels alternate={labels_ok}, "
        f"endpoint signs constant="
        f"{len(sgn_minus) == 1 and len(sgn_plus) == 1}, u(+1)>1={plus_above}, "
        f"lambda>1e-4={lam_ok} over {len(branch.points)} points",
    )


# ---------------------------------------------------------------------------
# criterion 9: numerical hygiene


def _random_positive_state(rng: np.random.Generator, spec: ProblemSpec) -> np.ndarray:
    disc = discretization(spec)
    decay = (1.0 + np.arange(1, spec.N)) ** 3
    while True:
        c = np.zeros(spec.N)
        c[0] = 1.0
        c[1:] = 0.3 * rng.standard_normal(spec.N - 1) / decay
        if (disc.basis @ c).min() > 0.05:
            return c


def run_hygiene(seed: int = 0) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    out = []
    spec = ProblemSpec(jacobi_params(1, 0), 2.0)
    disc = discretization(spec)
    lam = 2.5

    errs = []
    eps = 1e-6
    for _ in range(10):
        c = _random_positive_state(rng, spec)
        v = rng.standard_normal(spec.N) / (1.0 + np.arange(spec.N)) ** 2
        v /= disc.w_norm(v)
        jv = disc.jacobian(c, lam) @ v
        fd = (disc.residual_coeffs(c + eps * v, lam) - disc.residual_coeffs(c - eps * v, lam)) / (
            2.0 * eps
        )
        errs.append(disc.w_norm(fd - jv))
    worst = _worst(errs)
    out.append(
        CheckResult(
            "jacobian vs central differences (10 random states)",
            worst < 1e-6,
            f"max weighted error = {worst:.2e}",
        )
    )

    settings = ContinuationSettings(ds0=0.02, ds_max=0.02, max_steps=15)
    start = branch_switch(1, spec, 1e-3, +1)
    branch = continue_branch(start, spec, settings)
    fine = ProblemSpec(spec.params, spec.q, N=2 * spec.N)
    sqh = math.sqrt(disc.h[1])
    shifts = []
    for p in branch.points[2::4]:
        sigma = float(p.u.coeffs[1]) * sqh
        guess_c = np.zeros(fine.N)
        guess_c[: spec.N] = p.u.coeffs
        # offset lambda so the fine-grid Newton actually re-converges instead
        # of accepting the padded coarse point at iteration zero
        c2, lam2 = solve_at_phase(1, fine, sigma, guess=(guess_c, p.lam * (1.0 + 1e-6)))
        shifts.append(abs(lam2 - p.lam) / abs(p.lam))
    worst_ref = _worst(shifts)
    out.append(
        CheckResult(
            "N -> 2N refinement stability of lambda",
            worst_ref < 1e-8,
            f"max relative lambda shift = {worst_ref:.2e}",
        )
    )

    json_a = _determinism_trace()
    json_b = _determinism_trace()
    out.append(
        CheckResult(
            "byte-identical JSON for identical runs",
            json_a == json_b,
            f"{len(json_a)} bytes compared",
        )
    )
    return out


def _determinism_trace() -> str:
    spec = ProblemSpec(jacobi_params(1, 0), 2.0, N=32)
    settings = ContinuationSettings(ds0=0.01, ds_max=0.01, max_steps=8)
    start = branch_switch(1, spec, 1e-3, +1)
    branch = continue_branch(start, spec, settings)
    return branch_to_json(branch)


# ---------------------------------------------------------------------------
# suite registry


SUITES = {
    "quadrature": run_quadrature,
    "endpoints": run_endpoints,
    "theorem21": run_theorem21,
    "gasper": run_gasper,
    "theorem31": run_theorem31,
    "kernel": run_kernel,
    "folds": run_folds,
    "hygiene": run_hygiene,
}

SUITE_NAMES = tuple(SUITES) + ("all",)


def run_suite(name: str, seed: int = 0) -> list[CheckResult]:
    if seed < 0:
        raise ParameterError(f"seed={seed} must be >= 0")
    if name == "all":
        return [res for fn in SUITES.values() for res in fn(seed)]
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; choose from {SUITE_NAMES}")
    return SUITES[name](seed)
