import json
import math
from fractions import Fraction as F
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from mpmath import mp

from jacbif import (
    ContinuationSettings,
    NewtonDivergenceError,
    NoFoldBracketError,
    NonpositiveStateError,
    NumericalBreakdownError,
    ParameterError,
    ProblemSpec,
    SpectralFunction,
    TangencyError,
    bifurcation_lambda,
    boundary_residual,
    branch_switch,
    continue_branch,
    count_critical_points,
    count_crossings,
    critical_point_list,
    detect_fold,
    endpoint_label,
    eval_jacobi,
    find_degenerate,
    jacobian,
    jacobi_zeros,
    lambda_prime_zero,
    linearization_coeffs,
)
from jacbif import NumericalError, continuation, jacobi_params
from jacbif.continuation import (
    CERTIFICATE_TOL,
    DEGENERATE_TOL,
    FOLD_TRAIL,
    MAX_QUADRATURE_ORDER,
    NEWTON_TOL,
    _alternating,
    _extremum_labels,
    _fold_bracket,
    _scan_grid,
    _scans,
    discretization,
    point_diagnostics,
    solve_at_phase,
)
from jacbif.jacobi import (
    chebyshev_connection,
    endpoint_value,
    exact_coeffs,
    exact_poly,
    gauss_jacobi_rule,
    integrate_relative,
    jacobi_table,
    derivative_series,
    norm_sq_closed_form,
    stacked_series,
    weighted_norm_sq,
)
from jacbif.linearization import cube_integral, gasper_quartic, sign_classification
from jacbif.output import branch_to_json
from jacbif.verification import FOLD_CASES, PARAM_GRID

P10 = ProblemSpec(jacobi_params(1, 0), 2.0)
PHALF = ProblemSpec(jacobi_params(F(1, 2), F(1, 2)), 3.0)
PLEG = ProblemSpec(jacobi_params(0, 0), 2.0)
PFRAC = ProblemSpec(jacobi_params(1, 0), 1.5)


def _mode_state(spec, k, eps):
    c = np.zeros(spec.N)
    c[0] = 1.0
    c[k] = eps
    return SpectralFunction(c, spec.params)


class TestProblemSpec:
    def test_defaults(self):
        spec = ProblemSpec(jacobi_params(1, 0), 2.0)
        assert spec.N == 64 and spec.M == 192

    @pytest.mark.parametrize("q", [1.0, 0.5, -2.0])
    def test_q_must_exceed_one(self, q):
        with pytest.raises(ParameterError):
            ProblemSpec(jacobi_params(1, 0), q)

    def test_q_must_be_finite(self):
        with pytest.raises(ParameterError, match="finite"):
            ProblemSpec(jacobi_params(1, 0), math.inf)

    def test_quadrature_floor(self):
        with pytest.raises(ParameterError):
            ProblemSpec(jacobi_params(1, 0), 2.0, N=16, M=24)

    def test_rule_size_is_bounded_before_allocating(self):
        # N = 100000 is refused by the bound, which names what it covers: the
        # 2M-point rule of the M -> 2M check, 8 (2 * 4096)^2 bytes at most
        with pytest.raises(ParameterError) as info:
            ProblemSpec(jacobi_params(1, 0), 2.0, N=100000)
        msg = str(info.value)
        assert "N=100000, M=300000: M must be <= 4096" in msg
        assert "2M-point rule of the M -> 2M check" in msg and "536,870,912 bytes" in msg

    def test_largest_quadrature_order(self):
        # a spec allocates nothing; its discretization is built on first use
        assert ProblemSpec(jacobi_params(1, 0), 2.0, N=16, M=MAX_QUADRATURE_ORDER).M == 4096
        assert ProblemSpec(jacobi_params(1, 0), 2.0, N=1365).M == 4095
        for kwargs in ({"N": 16, "M": MAX_QUADRATURE_ORDER + 1}, {"N": 1366}):
            with pytest.raises(ParameterError, match="M must be <= 4096"):
                ProblemSpec(jacobi_params(1, 0), 2.0, **kwargs)

    @pytest.mark.parametrize(
        "kwargs",
        [{"N": 16.0}, {"N": True}, {"N": F(16)}, {"M": 40.5}, {"M": 48.0}, {"M": np.float64(48)}],
        ids=str,
    )
    def test_sizes_must_be_integers(self, kwargs):
        with pytest.raises(ParameterError, match="must be an integer"):
            ProblemSpec(jacobi_params(1, 0), 2.0, **{"N": 16, **kwargs})

    def test_numpy_integer_sizes_become_ints(self):
        spec = ProblemSpec(jacobi_params(1, 0), 2.0, N=np.int64(16), M=np.int32(40))
        assert (spec.N, spec.M) == (16, 40)
        assert type(spec.N) is int and type(spec.M) is int
        assert spec == ProblemSpec(jacobi_params(1, 0), 2.0, N=16, M=40)


class TestResidual:
    def test_trivial_state_is_exact_zero(self):
        one = SpectralFunction.constant_one(P10)
        assert np.all(discretization(P10).residual_coeffs(one.coeffs, 5.0) == 0.0)

    def test_quadratic_remainder_at_bifurcation_point(self):
        # u = 1 + eps P_k at lambda_k: the linear terms cancel exactly
        lam1 = bifurcation_lambda(1, P10.params.a, P10.q)
        disc = discretization(P10)
        norms = []
        for eps in (1e-4, 1e-5):
            r = disc.residual_coeffs(_mode_state(P10, 1, eps).coeffs, lam1)
            norms.append(disc.w_norm(r))
        assert norms[1] < 1e-8
        assert norms[0] / norms[1] == pytest.approx(100.0, rel=0.05)

    def test_lambda_zero_leaves_diagonal_term(self):
        eps = 1e-5
        r = discretization(P10).residual_coeffs(_mode_state(P10, 1, eps).coeffs, 0.0)
        assert r[1] == pytest.approx(-(P10.params.a + 1.0) * eps, rel=1e-12)
        assert np.max(np.abs(np.delete(r, 1))) < 1e-16

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=str)
    def test_nonfinite_state_is_not_positive(self, bad):
        c = np.zeros(P10.N)
        c[0], c[3] = 1.0, bad
        u = SpectralFunction(c, P10.params)
        with pytest.raises(NonpositiveStateError, match="at a quadrature node"):
            discretization(P10).residual_coeffs(u.coeffs, 1.0)
        with pytest.raises(NonpositiveStateError, match="at an endpoint"):
            boundary_residual(u, 1.0, P10)

    def test_nan_on_refined_grid_is_not_positive(self):
        # a private fractional-q discretization whose refined table yields NaN
        # at one node; the evaluation on the refined level refuses it
        disc = continuation.Discretization(PFRAC)
        refined = disc.refined
        refined.basis = refined.basis.copy()
        refined.basis[5, 0] = math.nan
        ev = continuation._StateEvaluation(disc, _mode_state(PFRAC, 1, 0.01).coeffs)
        with pytest.raises(NonpositiveStateError, match="^state reaches min nan at a quadrature node$"):
            disc.quad_gap(ev)

    def test_integer_q_checks_positivity_on_the_scan_grid(self, monkeypatch):
        # u = 1 + (1 + 1e-6) P_1 with P_1(t) = (3t + 1) / 2 for (alpha, beta) =
        # (1, 0): u(-1) = -1e-6, but u is positive at every Gauss node.  The
        # projection is exact, so quad_gap is 0.0 and sums no scan; the u - 1
        # scan of point_diagnostics finds the state nonpositive
        disc = discretization(P10)
        assert disc.exact
        c = _mode_state(P10, 1, 1.0 + 1e-6).coeffs
        ev = continuation._StateEvaluation(disc, c)  # checks u > 0 at the M nodes
        assert ev.vals.min() > 0.0
        disc.residual_coeffs(c, 1.0)
        assert _scan_of(P10.params, c)[0, 0] < -1.0  # u - 1 at t = -1
        with monkeypatch.context() as m:
            m.setattr(continuation, "_scans", None)
            assert disc.quad_gap(ev) == 0.0
        with pytest.raises(NonpositiveStateError, match="^state nonpositive on the scan grid$"):
            point_diagnostics(SpectralFunction(c, P10.params))

    def test_nonpositive_state_rejected(self):
        c = np.zeros(P10.N)
        c[0] = 1.0
        c[1] = 2.0  # drives u below zero near t = -1
        with pytest.raises(Exception) as err:
            discretization(P10).residual_coeffs(c, 1.0)
        assert "nonpositive" in str(err.value).lower() or "min" in str(err.value)


class TestJacobian:
    def test_diagonal_at_trivial_state(self):
        one = SpectralFunction.constant_one(P10)
        lam = 2.0
        mat = jacobian(one, lam, P10)
        i = np.arange(P10.N)
        expected = -i * (i + P10.params.a) - lam * (1.0 - P10.q)
        assert np.diag(mat) == pytest.approx(expected, rel=1e-12)
        off = mat - np.diag(np.diag(mat))
        assert np.max(np.abs(off)) < 1e-10

    def test_mode_k_vanishes_at_lambda_k(self):
        one = SpectralFunction.constant_one(P10)
        for k in range(1, 5):
            lam_k = bifurcation_lambda(k, P10.params.a, P10.q)
            mat = jacobian(one, lam_k, P10)
            assert abs(mat[k, k]) < 1e-10

    def test_finite_difference_match(self):
        rng = np.random.default_rng(7)
        disc = discretization(P10)
        c = np.zeros(P10.N)
        c[0] = 1.0
        c[1:] = 0.2 * rng.standard_normal(P10.N - 1) / (1.0 + np.arange(1, P10.N)) ** 3
        v = rng.standard_normal(P10.N) / (1.0 + np.arange(P10.N)) ** 2
        v /= disc.w_norm(v)
        lam = 2.0
        eps = 1e-6
        jv = jacobian(SpectralFunction(c, P10.params), lam, P10) @ v
        fd = (
            disc.residual_coeffs(c + eps * v, lam) - disc.residual_coeffs(c - eps * v, lam)
        ) / (2.0 * eps)
        assert disc.w_norm(fd - jv) < 1e-6

    @pytest.mark.parametrize("ab", [(F(1, 2), F(1, 2)), (F(1, 3), F(1, 4))], ids=str)
    @pytest.mark.parametrize("q", [1.5, 2.0, 3.0])
    def test_weighted_symmetry(self, ab, q):
        # h_i J_ij == h_j J_ji up to roundoff (self-adjointness in the
        # weighted inner product).  It lets one eigvalsh of S = H^(1/2) J
        # H^(-1/2) give sigma_min, and holds for any quadrature, so for the
        # inexact q = 3/2 projection too
        spec = ProblemSpec(jacobi_params(*ab), q)
        rng = np.random.default_rng(3)
        disc = discretization(spec)
        c = np.zeros(spec.N)
        c[0] = 1.2
        c[1:] = 0.1 * rng.standard_normal(spec.N - 1) / (1.0 + np.arange(1, spec.N)) ** 2
        mat = jacobian(SpectralFunction(c, spec.params), 1.7, spec)
        weighted = disc.h[:, None] * mat
        scale = np.max(np.abs(weighted))
        assert np.max(np.abs(weighted - weighted.T)) <= 1e-14 * scale


@pytest.mark.parametrize("diagnostic", [jacobian, boundary_residual])
@pytest.mark.parametrize(
    "u, expected",
    [
        (SpectralFunction.constant_one(ProblemSpec(jacobi_params(0, 0), 2.0, N=16)),
         r"^state has parameters .*, spec has "),
        (SpectralFunction.constant_one(ProblemSpec(jacobi_params(1, 0), 2.0, N=18)),
         r"^state has 18 coefficients, spec wants 16$"),
    ],
    ids=["(0,0)-state", "18-coefficient-state"],
)
def test_state_of_another_spec_is_refused(diagnostic, u, expected):
    # neither reads the state in the basis of the (1,0), N=16 spec
    with pytest.raises(ParameterError, match=expected):
        diagnostic(u, 2.0, ProblemSpec(jacobi_params(1, 0), 2.0, N=16))


class TestSharedEvaluation:
    """One evaluation of the nonlinearity per state serves the residual,
    F_lambda and the Jacobian, with the bits of the formulas written out."""

    @staticmethod
    def _written_out(disc, c, lam):
        q = disc.spec.q
        vals = disc.basis @ c
        residual = disc.lin * c - lam * (disc.proj @ (vals - vals**q))
        phi = 1.0 - q * vals ** (q - 1.0)
        jac = -lam * (disc.proj @ (disc.basis * phi[:, None]))
        jac[np.diag_indices_from(jac)] += disc.lin
        f_lam = -(disc.proj @ (vals - vals**q))
        return residual, jac, f_lam

    @pytest.mark.parametrize("spec", [P10, PHALF, PFRAC], ids=["q=2", "q=3", "q=3/2"])
    def test_wrappers_match_the_formulas_bit_for_bit(self, spec):
        disc = discretization(spec)
        rng = np.random.default_rng(5)
        c = np.zeros(spec.N)
        c[0] = 1.1
        c[1:] = 0.1 * rng.standard_normal(spec.N - 1) / (1.0 + np.arange(1, spec.N)) ** 3
        lam = 1.9
        residual, jac, f_lam = self._written_out(disc, c, lam)
        assert disc.residual_coeffs(c, lam).tobytes() == residual.tobytes()
        assert disc.jacobian(c, lam).tobytes() == jac.tobytes()
        assert disc.dresidual_dlambda(c).tobytes() == f_lam.tobytes()

    def test_traced_points_reuse_the_corrector_evaluation(self):
        spec = ProblemSpec(jacobi_params(1, 0), 1.5, N=32)
        disc = discretization(spec)
        start = branch_switch(1, spec, 1e-3, +1)
        branch = continue_branch(start, spec, ContinuationSettings(max_steps=6))
        for p in branch.points:
            residual, _, _ = self._written_out(disc, p.u.coeffs, p.lam)
            assert p.residual_norm == disc.w_norm(residual)

    def test_newton_hands_back_the_evaluation_of_its_result(self):
        disc = discretization(P10)
        c = np.zeros(P10.N)
        c[0], c[1] = 1.0, 1e-3
        e_1 = np.eye(P10.N)[1]
        ev, lam, _ = continuation._bordered_newton(disc, c, 3.0, e_1, 0.0, 1e-3)
        residual, jac, f_lam = self._written_out(disc, ev.c, lam)
        assert ev.residual(lam).tobytes() == residual.tobytes()
        assert ev.jacobian(lam).tobytes() == jac.tobytes()
        assert ev.dresidual_dlambda().tobytes() == f_lam.tobytes()

    def test_quad_gap_reads_the_projection_of_the_evaluation(self):
        # the M -> 2M gap written out from c alone equals quad_gap of the
        # evaluation, whose projection the residual has already formed
        disc = discretization(PFRAC)
        c = _mode_state(PFRAC, 1, 0.01).coeffs
        q = PFRAC.q
        vals, v2 = disc.basis @ c, disc.refined.basis @ c
        p1 = disc.proj @ (vals - vals**q)
        p2 = disc.refined.proj @ (v2 - v2**q)
        gap = disc.w_norm(p1 - p2) / (1.0 + disc.w_norm(p2))
        ev = continuation._StateEvaluation(disc, c)
        ev.residual(1.0)
        assert disc.quad_gap(ev) == gap > 0.0

    def test_quad_gap_refuses_an_evaluation_of_another_discretization(self):
        # a private copy of the same spec is still another discretization
        c = _mode_state(PFRAC, 1, 0.01).coeffs
        ev = continuation._StateEvaluation(continuation.Discretization(PFRAC), c)
        with pytest.raises(ParameterError, match="another discretization"):
            discretization(PFRAC).quad_gap(ev)


@pytest.mark.parametrize(
    "k, ab, q",
    [(1, (1, 0), 2.0), (2, (F(1, 2), F(1, 2)), 3.0), (1, (1, 0), 1.5)],
    ids=["k1-(1,0)-q2", "k2-(1/2,1/2)-q3", "k1-(1,0)-q3/2"],
)
def test_sigma_min_is_the_smallest_eigenvalue_modulus(k, ab, q, monkeypatch):
    # the oracle is a general dgeev on the unscaled J, with no H.  dgeev is
    # backward stable for J, so near the bifurcation point, where sigma_min
    # ~ s0, its own error reaches about eps ||J||_2 (1.1e-10 relative at
    # the first k=1 (1,0) q=3/2 point); the bound allows that term
    spec = ProblemSpec(jacobi_params(*ab), q, N=32)
    with monkeypatch.context() as m:
        m.setattr(np.linalg, "svd", None)  # no SVD on the traced path
        start = branch_switch(k, spec, 1e-3, +1)
        branch = continue_branch(
            start, spec, ContinuationSettings(stop_on_fold=True, max_steps=40)
        )
    assert len(branch.points) > 5
    eps = np.finfo(float).eps
    for p in branch.points:
        jac = jacobian(p.u, p.lam, spec)
        ref = float(np.min(np.abs(np.linalg.eigvals(jac))))
        bound = 1e-10 * ref + eps * np.linalg.norm(jac, 2)
        assert abs(p.sigma_min - ref) <= bound


def test_sigma_min_near_the_bifurcation_point_matches_30_digits():
    # where dgeev is coarsest, the eigvalsh value is checked against the
    # eigenvalues of the same float J in 30-digit arithmetic
    spec = ProblemSpec(jacobi_params(1, 0), 1.5, N=32)
    p = branch_switch(1, spec, 1e-3, +1)
    jac = jacobian(p.u, p.lam, spec)
    with mp.workdps(30):
        eig = mp.eig(mp.matrix(jac.tolist()), left=False, right=False)
        true = float(min(abs(e) for e in eig))
    assert abs(p.sigma_min - true) <= 1e-12 * true


class TestQuadratureExactness:
    @pytest.mark.parametrize("q", [2.0, 3.0, 5.0])
    def test_integer_q_within_the_bound_builds_no_2m_rule(self, q):
        # (q + 1)(N - 1) <= 6 * 63 = 378 <= 2M - 1 = 383
        spec = ProblemSpec(jacobi_params(1, 0), q)
        disc = continuation.Discretization(spec)
        assert disc.exact
        ev = continuation._StateEvaluation(disc, _mode_state(spec, 1, 0.01).coeffs)
        assert disc.quad_gap(ev) == 0.0
        assert "refined" not in vars(disc)

    @pytest.mark.parametrize("q", [1.5, 6.0])
    def test_fractional_or_large_q_builds_the_2m_rule(self, q):
        # q = 6 at N = 64: 7 * 63 = 441 > 2M - 1 = 383
        spec = ProblemSpec(jacobi_params(1, 0), q)
        disc = continuation.Discretization(spec)
        assert not disc.exact
        ev = continuation._StateEvaluation(disc, _mode_state(spec, 1, 0.01).coeffs)
        assert disc.quad_gap(ev) < 1e-13
        assert disc.refined.rule.nodes.size == 2 * spec.M
        assert disc.refined.basis.shape == (2 * spec.M, spec.N)
        assert disc.refined.proj.shape == (spec.N, 2 * spec.M)

    def test_the_2m_level_is_built_on_the_first_quad_gap(self, monkeypatch):
        # (1, 0) q = 3/2: solving and the Jacobian use the M nodes only; the
        # first quad_gap builds the refined level and the second reuses it
        spec = ProblemSpec(jacobi_params(1, 0), 1.5)
        disc = continuation.Discretization(spec)
        monkeypatch.setattr(continuation, "discretization", lambda s: disc)
        c, lam = solve_at_phase(1, spec, 0.05)
        jacobian(SpectralFunction(c, spec.params), lam, spec)
        assert not disc.exact and "refined" not in vars(disc)
        ev = continuation._StateEvaluation(disc, c)
        disc.quad_gap(ev)
        refined = vars(disc)["refined"]
        assert refined._m == 2 * spec.M
        disc.quad_gap(ev)
        assert disc.refined is refined

    @pytest.mark.parametrize(
        "k, ab, q, view",
        [(1, (1, 0), 2.0, "full"), (2, (F(1, 2), F(1, 2)), 3.0, "even")],
        ids=["full", "even"],
    )
    def test_find_degenerate_on_an_exact_spec_builds_no_2m_level(self, k, ab, q, view, monkeypatch):
        spec = ProblemSpec(jacobi_params(*ab), q)
        made = {}
        monkeypatch.setattr(
            continuation,
            "discretization",
            lambda s: made.setdefault(s, continuation.Discretization(s)),
        )
        find_degenerate(k, spec)
        disc = made[spec]
        assert disc.exact and ("even" in vars(disc)) == (view == "even")
        views = [disc, disc.even, disc.even.odd] if view == "even" else [disc]
        assert not any("refined" in vars(v) for v in views)

    def test_exactness_boundary_is_degree_2m_minus_1(self):
        # q = 6, N = 64: degree 7 * 63 = 441 needs 2M - 1 >= 441, so M >= 221
        params = jacobi_params(1, 0)
        assert not continuation.Discretization(ProblemSpec(params, 6.0, M=220)).exact
        assert continuation.Discretization(ProblemSpec(params, 6.0, M=221)).exact


def _combine(terms):
    """sum of scalar * ExactPolynomial over (scalar, polynomial) terms."""
    out = []
    for scalar, poly in terms:
        out += [F(0)] * (len(poly.coeffs) - len(out))
        for m, x in enumerate(poly.coeffs):
            out[m] += scalar * x
    return exact_poly(out)


def _exact_series(params, coeffs):
    """sum_i coeffs_i P_i exactly: a float is an exact binary rational."""
    return _combine((F(float(x)), exact_coeffs(i, params)) for i, x in enumerate(coeffs))


def _exact_galerkin(params, lin, lam, state, g):
    """lin * state - lam <g, P_i>_w / h_i in floats, rounded once from the
    exact values; integrate_relative divides both inner products by m_0."""
    out = []
    for i, x in enumerate(state):
        p_i = exact_coeffs(i, params)
        proj = integrate_relative(g * p_i, params) / integrate_relative(p_i * p_i, params)
        out.append(float(lin[i] * F(float(x)) - lam * proj))
    return np.array(out)


@settings(max_examples=10, deadline=None)
@given(
    params=st.sampled_from(PARAM_GRID),
    q=st.sampled_from([2, 3]),
    n=st.integers(8, 24),
    lam=st.floats(0.1, 50.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_integer_q_projection_is_the_exact_galerkin_one(params, q, n, lam, seed):
    # for integer q the M-point rule integrates every projected product, so
    # residual_coeffs and jacobian equal the exact Galerkin ones to roundoff
    spec = ProblemSpec(params, float(q), N=n)
    disc = discretization(spec)
    assert disc.exact
    rng = np.random.default_rng(seed)
    c = np.zeros(n)
    c[1:] = rng.standard_normal(n - 1) / np.arange(2, n + 1)
    c[1:] *= 0.5 / np.max(np.abs(disc.basis @ c))  # |u - 1| <= 1/2 at the nodes
    c[0] = 1.0
    v = rng.standard_normal(n) / np.arange(1, n + 1)
    u, dv = _exact_series(params, c), _exact_series(params, v)
    u_pow = u
    for _ in range(q - 2):
        u_pow = u_pow * u  # u^(q-1)
    al, be = params.exact
    lin = [-i * (i + al + be + 1) for i in range(n)]
    lam_x = F(lam)
    # F(c, lambda) = lin c - lambda P[u - u^q], J v = lin v - lambda P[(1 - q u^(q-1)) v]
    res = _exact_galerkin(params, lin, lam_x, c, _combine([(1, u), (-1, u_pow * u)]))
    jv = _exact_galerkin(params, lin, lam_x, v, _combine([(1, dv), (-q, u_pow * dv)]))
    got_res = disc.residual_coeffs(c, lam)
    got_jv = disc.jacobian(c, lam) @ v
    res_scale = disc.w_norm(disc.lin * c) + disc.w_norm(disc.lin * c - res)
    jv_scale = disc.w_norm(disc.lin * v) + disc.w_norm(disc.lin * v - jv)
    assert disc.w_norm(got_res - res) <= 1e-12 * res_scale
    assert disc.w_norm(got_jv - jv) <= 1e-12 * jv_scale


class TestBifurcationData:
    def test_lambda_k_values(self):
        lams = [bifurcation_lambda(k, PHALF.params.a, PHALF.q) for k in (1, 2)]
        assert lams == [pytest.approx(1.5), pytest.approx(4.0)]
        assert bifurcation_lambda(1, P10.params.a, P10.q) == pytest.approx(3.0)

    def test_strictly_increasing(self):
        lams = [bifurcation_lambda(k, PLEG.params.a, PLEG.q) for k in range(1, 11)]
        assert all(a < b for a, b in zip(lams, lams[1:]))

    def test_slope_closed_form(self):
        assert lambda_prime_zero(1, PLEG) == 0.0
        assert lambda_prime_zero(1, P10) == pytest.approx(-1.2, rel=1e-14)
        assert lambda_prime_zero(2, PLEG) < 0.0
        assert lambda_prime_zero(2, PHALF) < 0.0

    @pytest.mark.parametrize("k", [1, 3, 5])
    @pytest.mark.parametrize("a", [0.5, 1.5, -0.4])
    def test_zero_slope_is_exact_for_float_symmetric(self, a, k):
        # with beta == alpha the diagonal of multiplication by t vanishes, so
        # the odd coefficients of P_k^2, C_k^k among them, are exact zeros
        params = jacobi_params(a, a)
        assert lambda_prime_zero(k, ProblemSpec(params, 2.0)) == 0.0
        assert np.all(linearization_coeffs(k, params).coeffs[1::2] == 0.0)

    def test_theorem_scope_guard(self):
        swapped = ProblemSpec(jacobi_params(0, 1), 2.0)
        with pytest.raises(ParameterError):
            lambda_prime_zero(1, swapped)
        # raw residual evaluation remains available outside the hypotheses
        one = SpectralFunction.constant_one(swapped)
        assert np.all(discretization(swapped).residual_coeffs(one.coeffs, 2.0) == 0.0)


class TestCounting:
    def test_mode_perturbation_crossings(self):
        u = _mode_state(PLEG, 3, 0.01)
        assert count_crossings(u) == 3
        roots = point_diagnostics(u)[0]
        expected = sorted(
            float(t) for t in np.polynomial.legendre.legroots([0, 0, 0, 1])
        )
        assert roots == pytest.approx(expected, abs=1e-10)

    def test_constant_state_rejected(self):
        with pytest.raises(ParameterError):
            count_crossings(SpectralFunction.constant_one(PLEG))

    def test_critical_points_of_even_mode(self):
        u = _mode_state(PHALF, 2, 0.01)
        assert count_critical_points(u) == 1
        pts = critical_point_list(u)
        t0, kind = pts[0]
        assert t0 == pytest.approx(0.0, abs=1e-10)
        assert kind == "min"  # P_2 dips below its endpoints at the center

    def test_endpoint_labels(self):
        u = _mode_state(PHALF, 2, 0.01)
        assert endpoint_label(u, +1) == "max"
        assert endpoint_label(u, -1) == "max"  # P_2(-1) > 0

    @pytest.mark.parametrize("side", [0, 5])
    def test_endpoint_label_refuses_a_side_other_than_an_endpoint(self, side):
        # u(0) and the sum at t = 5 are no endpoint values
        with pytest.raises(ParameterError, match=r"^side must be -1 or \+1$"):
            endpoint_label(_mode_state(PHALF, 2, 0.01), side)

    def test_tangent_crossing_raises(self):
        # Legendre: u - 1 = 0.01 t^3 = 0.006 P_1 + 0.004 P_3 crosses 0 with zero slope
        c = np.zeros(16)
        c[0], c[1], c[3] = 1.0, 0.006, 0.004
        with pytest.raises(
            TangencyError, match=r"^crossing at t=-?0\.000000 is nearly degenerate"
        ) as info:
            point_diagnostics(SpectralFunction(c, PLEG.params))
        assert abs(info.value.t) < 1e-6 and 0.0 <= info.value.slope < 1e-8
        assert f"|slope|={info.value.slope:.2e})" in str(info.value)

    def test_degenerate_critical_point_raises(self):
        # Legendre: u - 1 = 0.01 t^4, so u' = 0.04 t^3 has a triple root at t = 0
        c = np.zeros(16)
        c[0], c[2], c[4] = 1.002, 0.04 / 7, 0.08 / 35
        with pytest.raises(
            TangencyError, match=r"^critical point at t=-?0\.000000 is nearly degenerate"
        ):
            critical_point_list(SpectralFunction(c, PLEG.params))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=str)
    @pytest.mark.parametrize(
        "count",
        [pytest.param(lambda u: point_diagnostics(u)[0], id="crossing_points"), critical_point_list],
    )
    def test_nonfinite_coefficients_rejected(self, count, bad):
        # no sign change is seen through a NaN, so it would count 0 roots
        u = _mode_state(PLEG, 3, 0.01)
        c = u.coeffs.copy()
        c[5] = bad
        with pytest.raises(ParameterError, match="non-finite"):
            count(SpectralFunction(c, PLEG.params))


# rational exponents in (-1, 3], with a share within 1/1000 of -1
EXPONENTS = st.one_of(
    st.fractions(min_value=F(-999, 1000), max_value=3, max_denominator=1000),
    st.integers(1000, 10**6).map(lambda n: F(1, n) - 1),
)


@settings(max_examples=60, deadline=None)
@given(alpha=EXPONENTS, beta=EXPONENTS, k=st.integers(1, 8))
@example(alpha=F(1, 1000) - 1, beta=F(1, 1721) - 1, k=1)  # |u'| ~ 8e-6
def test_roots_match_zeros_oracle(alpha, beta, k):
    # u = 1 + eps P_k crosses 1 at the zeros of P_k, and its critical points
    # are the zeros of P_k' ~ P_{k-1}^(alpha+1, beta+1).  max |P_k| on [-1, 1]
    # is max(1, |P_k(+-1)|) at most (Szego 7.32): it reaches 165 for k = 8
    # and an exponent 3, so eps is scaled to keep u >= 0.99 a positive state;
    # the roots do not depend on eps
    params = jacobi_params(alpha, beta)
    peak = max(1.0, *np.abs(_mode_state(ProblemSpec(params, 2.0), k, 1.0)(np.array([-1.0, 1.0])) - 1))
    u = _mode_state(ProblemSpec(params, 2.0), k, 0.01 / peak)
    assert np.allclose(point_diagnostics(u)[0], jacobi_zeros(k, params), rtol=0, atol=1e-12)
    critical = [t for t, _ in critical_point_list(u)]
    expected = jacobi_zeros(k - 1, derivative_series(params, u.coeffs)[0]) if k > 1 else []
    assert len(critical) == len(expected)
    assert np.allclose(critical, expected, rtol=0, atol=1e-12)


# rational exponents in (-1, -1/2], a share of them within 1/1000 of -1
NEAR_MINUS_ONE = st.one_of(
    st.fractions(min_value=F(-999, 1000), max_value=F(-1, 2), max_denominator=1000),
    st.integers(1000, 10**6).map(lambda n: F(1, n) - 1),
)


@settings(max_examples=40, deadline=None)
@given(
    alpha=NEAR_MINUS_ONE,
    beta=NEAR_MINUS_ONE,
    k=st.integers(1, 20),
    n=st.sampled_from([32, 64, 128, 256]),
    amp=st.floats(1e-3, 1.0),
)
def test_crossings_match_zeros_up_to_degree_20(alpha, beta, k, n, amp):
    # the safeguarded Newton polish of the sign scan, at up to N = 256 modes
    params = jacobi_params(alpha, beta)
    c = np.zeros(n)
    c[0], c[k] = 1.0, amp
    roots = point_diagnostics(SpectralFunction(c, params))[0]
    assert np.allclose(roots, jacobi_zeros(k, params), rtol=0, atol=1e-12)


@settings(max_examples=30, deadline=None)
@given(
    alpha=NEAR_MINUS_ONE,
    beta=EXPONENTS,
    q=st.floats(1.05, 5.0).filter(lambda q: q != int(q)),
    lam=st.floats(0.1, 20.0),
    seed=st.integers(0, 2**32 - 1),
)
@example(alpha=F(1, 10**6) - 1, beta=F(1, 10**6) - 1, q=1.05, lam=20.0, seed=0)
def test_jacobian_matches_central_differences(alpha, beta, q, lam, seed):
    spec = ProblemSpec(jacobi_params(alpha, beta), q, N=16)
    disc = discretization(spec)
    rng = np.random.default_rng(seed)
    decay = (1.0 + np.arange(spec.N)) ** 3
    c = 0.3 * rng.standard_normal(spec.N) / decay
    c[0] = 1.0
    c[0] += max(0.0, 0.5 - np.min(disc.basis @ c))  # u >= 0.5 at the nodes
    v = rng.standard_normal(spec.N) / decay
    v /= disc.w_norm(v)
    # h_0 ~ 1/(alpha+1) weighs the roundoff of c_0 up near -1: over 300 such
    # draws the error reached 1.0e-7 of ||J v|| at steps 1e-4 (truncation),
    # 7.1e-8 at 1e-5 and 4.4e-7 at 1e-6 (roundoff)
    eps = 1e-5
    fd = (disc.residual_coeffs(c + eps * v, lam) - disc.residual_coeffs(c - eps * v, lam)) / (
        2.0 * eps
    )
    jv = disc.jacobian(c, lam) @ v
    assert disc.w_norm(fd - jv) <= 1e-6 * (1.0 + disc.w_norm(jv))


SCAN_PAIRS = [(1, 0), (F(1, 2), F(1, 2)), (0, 0), (F(3, 2), F(1, 2)), (F(-1, 2), F(-1, 2))]
SCAN_PAIRS += [(F(-999, 1000), F(-9, 10))]


def _scan_of(params, coeffs):
    """The scans of u - 1, u' and u'' (rows) of the state with coefficients coeffs."""
    minus_one = np.array(coeffs, dtype=float)[None, :]
    minus_one[0, 0] -= 1.0
    return _scans(params, minus_one)[1][:, 0]


def _clenshaw_scans(params, minus_one):
    # the reference scans: Clenshaw's recurrence by banded solves at every
    # point of the 8N+2 grid, +-1 included, of u - 1, u' and u''
    series, _ = _scans(params, minus_one)
    grid = _scan_grid(minus_one.shape[1])
    scans = [[stacked_series(((p, c),), grid)[0] for c in rows] for p, rows in series]
    return series, np.array(scans)


def _diagnostics(u):
    """Crossings, labelled critical points and both endpoint labels of u, or
    the name of the error each one raises."""
    out = []
    for diag in (
        lambda v: point_diagnostics(v)[0],
        critical_point_list,
        lambda v: endpoint_label(v, -1),
        lambda v: endpoint_label(v, +1),
    ):
        try:
            out.append(diag(u))
        except (NumericalError, ParameterError) as exc:
            out.append(type(exc).__name__)
    return out


def _scan_states(params, rng):
    """Random decaying states at N = 16, 64 and 256, and the projections of
    1 + amp (t - t0)^3 and 1 + amp (t - t0)^4 at N = 16, whose crossings and
    critical points touch."""
    for n, count in ((16, 12), (64, 6), (256, 2)):
        for _ in range(count):
            c = 10 ** rng.uniform(-3, 0) * rng.standard_normal(n)
            c *= rng.uniform(0.5, 0.95) ** np.arange(n)
            c[0] += 1.0
            yield SpectralFunction(c, params)
    for power in (3, 4):
        for _ in range(5):
            amp = 10 ** rng.uniform(-2, 0) * rng.choice([-1.0, 1.0])
            t0 = rng.uniform(-0.9, 0.9)
            yield _projected(params, lambda t: 1.0 + amp * (t - t0) ** power)


def _projected(params, fn, n=16):
    """The degree n - 1 projection of fn, by a Gauss rule of 2n points."""
    rule = gauss_jacobi_rule(params, 2 * n)
    proj = (jacobi_table(params, n - 1, rule.nodes) * rule.weights[:, None]).T
    proj /= np.array([norm_sq_closed_form(i, params) for i in range(n)])[:, None]
    return SpectralFunction(proj @ fn(rule.nodes), params)


@pytest.mark.parametrize("ab", SCAN_PAIRS, ids=str)
def test_fft_scan_matches_clenshaw_scan(ab, monkeypatch):
    # the FFT scan and a Clenshaw scan bracket the same roots, so counts,
    # labels, error types and the polished roots agree exactly
    states = list(_scan_states(jacobi_params(*ab), np.random.default_rng(2026)))
    fft = [_diagnostics(u) for u in states]
    monkeypatch.setattr(continuation, "_scans", _clenshaw_scans)
    assert fft == [_diagnostics(u) for u in states]


def test_a_block_takes_one_fft_scan(monkeypatch):
    # u - 1, u' and u'' of every state of a block, u = 1 + 0.01 P_k for
    # k = 1, 2, 3, are summed between +-1 by one FFT call
    calls = []

    def counting_values(a, m):
        calls.append((a.shape, m))
        return values(a, m)

    values = continuation._chebyshev_values
    monkeypatch.setattr(continuation, "_chebyshev_values", counting_values)
    rows = np.array([_mode_state(P10, k, 0.01).coeffs for k in (1, 2, 3)])
    found = continuation._diagnose(P10.params, rows)
    counts = [(len(crossings), len(critical)) for crossings, critical, _ in found]
    assert counts == [(1, 0), (2, 1), (3, 2)]
    assert calls == [((3, 3, P10.N), 8 * P10.N)]


def _count_rounds(monkeypatch):
    """A list that records one entry per stacked solve of the root polish:
    the solves of at least two series, each iterate's and its derivative
    (the label solve sums u - 1 alone)."""
    rounds = []
    solve = continuation.stacked_series

    def counting_solve(series, x):
        if len(series) >= 2:
            rounds.append(x.size)
        return solve(series, x)

    monkeypatch.setattr(continuation, "stacked_series", counting_solve)
    return rounds


@pytest.mark.parametrize("ab", SCAN_PAIRS, ids=str)
def test_simple_roots_polish_in_few_rounds(ab, monkeypatch):
    # u = 1 + 0.01 P_k: every bracket of u - 1 and of u' holds a simple root,
    # and one stacked solve takes the k + (k - 1) iterates together
    rounds = _count_rounds(monkeypatch)
    spec = ProblemSpec(jacobi_params(*ab), 2.0)
    for k in range(1, 9):
        rounds.clear()
        crossings, critical = point_diagnostics(_mode_state(spec, k, 0.01))
        assert (len(crossings), len(critical)) == (k, k - 1)
        assert 1 <= len(rounds) <= 5
        assert all(size <= 2 * k - 1 for size in rounds)


@pytest.mark.parametrize("t0", [0.3, -0.55])
@pytest.mark.parametrize("ab", [(0, 0), (1, 0), (F(1, 2), F(1, 2))], ids=str)
def test_off_center_triple_root_raises(ab, t0, monkeypatch):
    # Newton converges only linearly at a triple root, until roundoff decides
    # the sign of f; the polish still ends, near t0, in a bounded number of rounds
    rounds = _count_rounds(monkeypatch)
    u = _projected(jacobi_params(*ab), lambda t: 1.0 + 0.05 * (t - t0) ** 3)
    with pytest.raises(
        TangencyError, match=r"^crossing at t=-?0\.\d{6} is nearly degenerate"
    ) as info:
        point_diagnostics(u)
    assert abs(info.value.t - t0) < 1e-4
    assert f"t={info.value.t:.6f}" in str(info.value)
    assert len(rounds) <= 64


def _outcome(diagnostics, u):
    """What ``diagnostics(u)`` returns, or the type and text of its error."""
    try:
        return diagnostics(u)
    except (NumericalError, ParameterError) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("ab", [(0, 0), (1, 0), (F(1, 2), F(1, 2))], ids=str)
def test_joint_pass_raises_the_crossing_first(ab):
    # u - 1 = 0.01 int_0^t s^2 (s - 1/2)^3 ds: u - 1 has a triple root at 0
    # and u' one at 1/2, so both kinds of root are tangencies; the crossing's
    # error comes first, and every view raises it
    u = _projected(
        jacobi_params(*ab),
        lambda t: 1.0 + 0.01 * (t**6 / 6 - 3 * t**5 / 10 + 3 * t**4 / 16 - t**3 / 24),
    )
    with pytest.raises(TangencyError, match=r"^crossing at t=-?0\.000") as info:
        point_diagnostics(u)
    for view in (count_crossings, critical_point_list, count_critical_points):
        assert _outcome(view, u) == (TangencyError, str(info.value))


@pytest.mark.parametrize("ab", SCAN_PAIRS, ids=str)
def test_joint_polish_takes_no_more_rounds_than_the_larger_one(ab, monkeypatch):
    # each round sums series[first : last + 2], first and last the least and
    # greatest series index among the live iterates (0: u - 1, 1: u'), with
    # a row of coefficients per iterate; the label solve sums u - 1 alone
    spans = []
    solve = continuation.stacked_series

    def recording_solve(series, x):
        if len(series) >= 2:
            first = 0 if series[0][1].shape[-1] == n else 1
            spans.append((first, len(series) + first - 2))
        return solve(series, x)

    scanned = []
    scans = continuation._scans

    def counting_scans(params, minus_one):
        scanned.append(minus_one.shape)
        return scans(params, minus_one)

    monkeypatch.setattr(continuation, "stacked_series", recording_solve)
    monkeypatch.setattr(continuation, "_scans", counting_scans)
    spec = ProblemSpec(jacobi_params(*ab), 2.0)
    n = spec.N
    for k in range(1, 9):
        spans.clear()
        scanned.clear()
        crossings, critical = point_diagnostics(_mode_state(spec, k, 0.01))
        assert (len(crossings), len(critical)) == (k, k - 1)
        crossing_rounds = sum(first == 0 for first, _ in spans)
        critical_rounds = sum(last == 1 for _, last in spans)
        assert crossing_rounds >= 1 and (critical_rounds >= 1) == (k > 1)
        assert len(spans) == max(crossing_rounds, critical_rounds)
        # u - 1, u' and u'' from one expansion and one scan of the state
        assert scanned == [(1, n)]


@settings(max_examples=60, deadline=None)
@given(
    ab=st.sampled_from(SCAN_PAIRS),
    n=st.sampled_from([16, 64]),
    exponent=st.floats(-3.0, 0.0),
    decay=st.floats(0.5, 0.95),
    seed=st.integers(0, 2**32 - 1),
)
def test_counts_match_the_colleague_matrix(ab, n, exponent, decay, seed):
    # an oracle for counts, not tangencies, independent of the scan: the real
    # eigenvalues in (-1, 1) of the colleague matrix (Good 1961) of u - 1 in
    # the Chebyshev basis, and of its derivative
    params = jacobi_params(*ab)
    rng = np.random.default_rng(seed)
    c = 10**exponent * rng.standard_normal(n) * decay ** np.arange(n)
    c[0] += 1.0
    try:
        crossings, critical = point_diagnostics(SpectralFunction(c, params))
    except (NumericalError, ParameterError):
        assume(False)
    c[0] -= 1.0
    cheb = chebyshev_connection(params, n) @ c
    counts = []
    for series in (cheb, np.polynomial.chebyshev.chebder(cheb)):
        roots = np.polynomial.chebyshev.chebroots(series)
        imag = np.abs(roots.imag)
        real = roots.real[imag <= 1e-12]
        assume(not np.any((1e-12 < imag) & (imag < 1e-6)))
        assume(not np.any(np.abs(np.abs(real) - 1.0) < 1e-8))
        counts.append(int(np.sum(np.abs(real) < 1.0)))
    assert counts == [len(crossings), len(critical)]


@pytest.mark.xfail(
    strict=True,
    reason="two roots of u' 0.0043 apart share one scan cell of width 0.0054, so no sign "
    "change brackets them and the count misses both; certified exclusion (ROADMAP item 2) "
    "would refuse that cell",
)
def test_close_critical_points_in_one_scan_cell_are_counted():
    # a counterexample of test_counts_match_the_colleague_matrix (ab=(0, 0),
    # n=64, exponent=0, decay=0.95, seed=32042): u' has 27 real roots in
    # (-1, 1), two of them at -0.46306 and -0.45878 inside the scan cell
    # (-0.46326, -0.45781), and point_diagnostics finds 25
    rng = np.random.default_rng(32042)
    c = rng.standard_normal(64) * 0.9499999999999998 ** np.arange(64)
    c[0] += 1.0
    assert len(point_diagnostics(SpectralFunction(c, jacobi_params(0, 0)))[1]) == 27


def _block_state(kind, params, n, rng):
    """Coefficients of one state of a diagnosed block: a random decaying
    state, or one that _diagnose refuses in one of its five ways."""
    c = 10 ** rng.uniform(-3, 0) * rng.standard_normal(n) * rng.uniform(0.5, 0.95) ** np.arange(n)
    c[0] += 1.0
    if kind in ("nan", "inf"):
        c[rng.integers(n)] = math.nan if kind == "nan" else -math.inf
    elif kind == "constant":
        c[1:] = 0.0
    elif kind == "nonpositive":
        c[:] = 0.0
        c[0], c[1] = 1.0, -10.0 / (float(params.alpha) + 1.0)  # u(1) = -9, P_1(1) = alpha + 1
    elif kind == "tangent":
        t0, amp = rng.uniform(-0.5, 0.5), rng.choice([-0.05, 0.05])
        c[:] = 0.0
        c[:16] = _projected(params, lambda t: 1.0 + amp * (t - t0) ** 3).coeffs
    return c


def _outcome_key(found):
    """A diagnosed outcome, floats by their bits, or the type and text of the error."""
    if isinstance(found, Exception):
        return type(found), str(found)
    crossings, critical, slopes = found
    return (
        [t.hex() for t in crossings],
        [(t.hex(), kind) for t, kind in critical],
        [[v.hex() for v in series] for series in slopes],
    )


@settings(max_examples=25, deadline=None)
@given(
    ab=st.sampled_from(SCAN_PAIRS),
    n=st.sampled_from([16, 64, 256]),
    kinds=st.lists(
        st.sampled_from(["random"] * 4 + ["nan", "inf", "constant", "nonpositive", "tangent"]),
        min_size=1,
        max_size=8,
    ),
    seed=st.integers(0, 2**32 - 1),
)
def test_a_state_has_the_same_outcome_alone_and_in_any_block(ab, n, kinds, seed):
    # continue_branch diagnoses states in blocks; each state's roots, labels
    # and slopes are the bits it gets alone, and its error the same
    params = jacobi_params(*ab)
    rng = np.random.default_rng(seed)
    rows = np.array([_block_state(kind, params, n, rng) for kind in kinds])
    block = [_outcome_key(found) for found in continuation._diagnose(params, rows)]
    alone = [_outcome_key(continuation._diagnose(params, row[None, :])[0]) for row in rows]
    assert block == alone
    # the scans too, which decide the brackets and the slope scales
    finite = rows[np.all(np.isfinite(rows), axis=1)]
    finite[:, 0] -= 1.0
    scans = _scans(params, finite)[1]
    for i, row in enumerate(finite):
        assert scans[:, i].tobytes() == _scans(params, row[None, :])[1][:, 0].tobytes()
    # and point_diagnostics, the one-state view, agrees
    for row, key in zip(rows, alone):
        try:
            crossings, critical = point_diagnostics(SpectralFunction(row, params))
        except (NumericalError, ParameterError) as exc:
            assert (type(exc), str(exc)) == key
        else:
            assert key[:2] == _outcome_key((crossings, critical, ([], [])))[:2]


class TestBranchSwitch:
    def test_first_point_monotone_case(self):
        bp = branch_switch(1, P10, 1e-3, +1)
        # slope -6/5 against unit-normalized tangent with h_1 = 1
        assert bp.lam == pytest.approx(3.0 - 1.2e-3, rel=1e-4)
        assert bp.crossings == 1
        assert bp.critical_points == 0
        assert bp.residual_norm < 1e-11 * (1.0 + discretization(P10).w_norm(bp.u.coeffs))

    def test_two_mode_case(self):
        bp = branch_switch(2, PHALF, 1e-3, +1)
        assert bp.crossings == 2

    def test_zero_slope_case_is_quadratic(self):
        lam1 = bifurcation_lambda(1, PHALF.params.a, PHALF.q)
        for direction in (+1, -1):
            bp = branch_switch(1, PHALF, 1e-3, direction)
            assert abs(bp.lam - lam1) < 1e-4  # O(s0^2), not O(s0)

    def test_tangent_recovery(self):
        # (u - 1)/||u - 1|| approaches the normalized mode direction
        disc = discretization(P10)
        sqh = math.sqrt(disc.h[1])
        devs = []
        for s0 in (1e-2, 1e-3):
            bp = branch_switch(1, P10, s0, +1)
            d = np.array(bp.u.coeffs)
            d[0] -= 1.0
            d /= disc.w_norm(d)
            ref = np.zeros(P10.N)
            ref[1] = 1.0 / sqh
            devs.append(disc.w_norm(d - ref))
        assert devs[0] < 2e-2 and devs[1] < 2e-3

    @pytest.mark.parametrize("direction", [+1, -1])
    def test_start_tangent_follows_the_mode(self, direction):
        bp = branch_switch(1, P10, 1e-3, direction)
        tc, tl = bp.tangent
        disc = discretization(P10)
        assert disc.w_norm(tc) ** 2 + tl * tl == pytest.approx(1.0, rel=1e-12)
        # near lambda_1 the tangent is close to direction * (P_1, lambda'(0)) / ||.||
        slope = lambda_prime_zero(1, P10) / math.sqrt(disc.h[1])
        assert direction * tc[1] * math.sqrt(disc.h[1]) > 0.5
        assert tl == pytest.approx(direction * slope / math.hypot(1.0, slope), abs=1e-2)

    def test_preconditions(self):
        with pytest.raises(ParameterError):
            branch_switch(1, P10, 0.2, +1)
        with pytest.raises(ParameterError):
            branch_switch(40, P10, 1e-3, +1)
        with pytest.raises(ParameterError):
            branch_switch(1, P10, 1e-3, 2)


def _traced(start, spec, settings=None):
    """The termination and points of continue_branch, every float by its
    bits, or the type and text of its error."""
    try:
        branch = continue_branch(start, spec, settings)
    except NumericalError as exc:
        return type(exc), str(exc)
    return branch.termination, [
        (
            p.u.coeffs.tobytes(),
            [x.hex() for x in (p.lam, p.s, p.residual_norm, p.sigma_min, float(p.tangent[1]))],
            p.tangent[0].tobytes(),
            p.crossings,
            [(t.hex(), kind) for t, kind in p.critical],
        )
        for p in branch.points
    ]


class TestContinueBranch:
    @pytest.mark.parametrize(
        "ds_min, ds_max", [(0.0, 0.05), (-1e-6, 0.05), (1e-6, 0.0), (0.1, 0.05)]
    )
    def test_step_bounds_must_be_positive_and_ordered(self, ds_min, ds_max):
        with pytest.raises(ParameterError):
            ContinuationSettings(ds_min=ds_min, ds_max=ds_max)

    @pytest.mark.parametrize(
        "bad",
        [
            {"max_steps": 0},
            {"max_steps": -1},
            {"lambda_floor": 9.0, "lambda_ceiling": 1.0},
            {"lambda_floor": 2.0, "lambda_ceiling": 2.0},
            {"lambda_floor": math.nan},
            {"amplitude_cap": 0.0},
            {"amplitude_cap": -1.0},
            {"amplitude_cap": math.nan},
            {"ds0": math.nan},
            {"ds_max": math.inf},
        ],
        ids=str,
    )
    def test_out_of_range_settings_rejected(self, bad):
        with pytest.raises(ParameterError):
            ContinuationSettings(**bad)

    @pytest.mark.parametrize("max_steps", [2.5, 4.0, True, np.bool_(True)], ids=repr)
    def test_max_steps_must_be_an_integer(self, max_steps):
        with pytest.raises(ParameterError, match="max_steps=.* must be an integer"):
            ContinuationSettings(max_steps=max_steps)

    def test_numpy_integer_max_steps_becomes_int(self):
        assert type(ContinuationSettings(max_steps=np.int64(7)).max_steps) is int

    P32 = ProblemSpec(jacobi_params(1, 0), 2.0, N=32)

    def test_start_with_another_mode_count_refused(self):
        start = branch_switch(1, self.P32, 1e-3, +1)
        with pytest.raises(ParameterError, match="32 coefficients, spec wants 64"):
            continue_branch(start, ProblemSpec(jacobi_params(1, 0), 2.0, N=64))

    def test_start_with_other_parameters_refused(self):
        start = branch_switch(1, self.P32, 1e-3, +1)
        with pytest.raises(ParameterError, match="parameters"):
            continue_branch(start, ProblemSpec(jacobi_params(F(1, 2), F(1, 2)), 2.0, N=32))

    def test_start_that_does_not_solve_the_spec_refused(self):
        start = branch_switch(1, self.P32, 1e-3, +1)
        with pytest.raises(ParameterError, match="does not solve the spec"):
            continue_branch(start, ProblemSpec(jacobi_params(1, 0), 3.0, N=32))
        # the spec it was built for takes it
        branch = continue_branch(start, self.P32, ContinuationSettings(max_steps=2))
        assert branch.points[0] is start and len(branch.points) == 2

    def test_state_nonpositive_on_the_scan_grid_ends_the_branch(self, monkeypatch):
        # k=1 (1/2,1/2) q=3: after 260 points a corrected state is positive at
        # the M nodes but not on the 8N+2 scan grid; _make_points refuses it,
        # and the branch ends there without it
        refused = []
        make_points = continuation._make_points

        def spy(states, points):
            before = len(points)
            try:
                make_points(states, points)
            except NonpositiveStateError as exc:
                refused.append((states[len(points) - before][0], str(exc)))
                raise

        monkeypatch.setattr(continuation, "_make_points", spy)
        branch = continue_branch(branch_switch(1, PHALF, 1e-3, +1), PHALF)
        assert branch.termination == "nonpositive-state" and len(branch.points) == 261
        [(ev, text)] = refused
        assert text == "state nonpositive on the scan grid"
        assert ev.vals.min() > 0.0
        assert not any(np.array_equal(ev.disc.pad(ev.c), p.u.coeffs) for p in branch.points)

    @pytest.mark.parametrize("case", ["nonpositive-state", "tangency"])
    def test_blocks_of_one_trace_the_same_branch(self, case, monkeypatch):
        # continue_branch accepts its traced states in blocks of
        # _block_size(N) (8 at N=64, 2 at N=256); with blocks of one it
        # accepts each as it is traced, and the points, termination and
        # error are the same.  k=1 (1/2,1/2) q=3 ends after 261 points at a
        # state nonpositive on the scan grid; k=1 (2,-1/2) q=2 at N=256 meets
        # a tangent critical point while tracing.  In both the refused state
        # follows an accepted one in its block of the default size
        if case == "nonpositive-state":
            spec, settings = PHALF, None
        else:
            spec = ProblemSpec(jacobi_params(2, F(-1, 2)), 2.0, N=256)
            settings = ContinuationSettings(stop_on_fold=True, max_steps=3000)
        start = branch_switch(1, spec, 1e-3, +1)
        blocks = []
        make_points = continuation._make_points

        def spy(states, points):
            before = len(points)
            try:
                make_points(states, points)
            except NumericalError as exc:
                blocks.append((len(states), len(points) - before, exc))
                raise
            blocks.append((len(states), len(states), None))

        monkeypatch.setattr(continuation, "_make_points", spy)
        traced = []
        for size in (continuation.ACCEPT_BLOCK, 1):
            monkeypatch.setattr(continuation, "ACCEPT_BLOCK", size)
            blocks.clear()
            traced.append(_traced(start, spec, settings))
            assert max(states for states, _, _ in blocks) == continuation._block_size(spec.N)
            if size > 1:
                states, accepted, error = blocks[-1]
                assert error is not None and 0 < accepted < states
        assert traced[0] == traced[1]
        if case == "nonpositive-state":
            assert traced[0][0] == "nonpositive-state" and len(traced[0][1]) == 261
        else:
            assert traced[0] == (
                TangencyError,
                "critical point at t=-0.999896 is nearly degenerate (|slope|=4.53e+01)",
            )

    def test_a_tracing_error_waits_for_the_states_traced_before_it(self, monkeypatch):
        # the corrector fails for good at the fourth step (ds_min allows no
        # retry), and the second traced state is refused as nonpositive:
        # accepted one by one, the branch ends at that state and the
        # corrector never fails; in blocks the refusal must come first too
        start = branch_switch(1, P10, 1e-3, +1)
        settings = ContinuationSettings(ds0=0.01, ds_min=0.04, ds_max=0.05)
        correct, make_points = continuation._correct, continuation._make_points
        steps, seen = [], []

        def failing_at_the_fourth(*args):
            steps.append(args)
            if len(steps) >= 4:
                raise NewtonDivergenceError("no convergence")
            return correct(*args)

        def refusing_the_second(states, points):
            j = 1 - len(seen)  # the second traced state, if it is in this block
            seen.extend(states)
            if 0 <= j < len(states):
                if j:
                    make_points(states[:j], points)
                raise NonpositiveStateError("refused")
            make_points(states, points)

        monkeypatch.setattr(continuation, "_correct", failing_at_the_fourth)
        monkeypatch.setattr(continuation, "_make_points", refusing_the_second)
        traced = []
        for size in (continuation.ACCEPT_BLOCK, 1):
            monkeypatch.setattr(continuation, "ACCEPT_BLOCK", size)
            steps.clear()
            seen.clear()
            traced.append(_traced(start, P10, settings))
        assert traced[0] == traced[1]
        assert traced[0][0] == "nonpositive-state" and len(traced[0][1]) == 2

    @pytest.mark.parametrize("refusal", ["gap", "nonpositive"])
    def test_a_state_refused_by_the_quadrature_check_ends_the_trace(self, refusal, monkeypatch):
        # the fifth traced state fails the M -> 2M check: a gap above
        # QUAD_CHECK_TOL raises, and a state nonpositive at the 2M nodes ends
        # the branch before it, the same in blocks and one by one
        start = branch_switch(1, P10, 1e-3, +1)
        settings = ContinuationSettings(max_steps=20)
        quad_gap, checked = continuation.Discretization.quad_gap, []

        def failing_at_the_fifth(disc, ev):
            checked.append(ev)
            if len(checked) < 5:
                return quad_gap(disc, ev)
            if refusal == "gap":
                return 1.0
            raise NonpositiveStateError("state nonpositive on refined grid")

        monkeypatch.setattr(continuation.Discretization, "quad_gap", failing_at_the_fifth)
        traced = []
        for size in (continuation.ACCEPT_BLOCK, 1):
            monkeypatch.setattr(continuation, "ACCEPT_BLOCK", size)
            checked.clear()
            traced.append(_traced(start, P10, settings))
        assert traced[0] == traced[1]
        if refusal == "gap":
            assert traced[0] == (
                NumericalBreakdownError,
                "quadrature convergence check failed (gap=1.00e+00); increase M",
            )
        else:
            assert traced[0][0] == "nonpositive-state" and len(traced[0][1]) == 5

    @pytest.mark.parametrize("max_steps, termination", [(262, "nonpositive-state"), (261, "max-steps")])
    def test_the_states_pending_when_tracing_stops_are_accepted(
        self, max_steps, termination, monkeypatch
    ):
        # k=1 (1/2,1/2) q=3: the 261st traced state is nonpositive on the
        # scan grid.  At max_steps=262 it is the last state traced, and at 261
        # tracing stops just before it; in blocks of 8 both leave a part block
        # pending, which is accepted (or refused) before continue_branch returns
        start = branch_switch(1, PHALF, 1e-3, +1)
        settings = ContinuationSettings(max_steps=max_steps)
        traced = []
        for size in (continuation.ACCEPT_BLOCK, 1):
            monkeypatch.setattr(continuation, "ACCEPT_BLOCK", size)
            traced.append(_traced(start, PHALF, settings))
        assert traced[0] == traced[1]
        assert traced[0][0] == termination and len(traced[0][1]) == 261

    def test_step_failure_below_ds_min_carries_its_numbers(self, monkeypatch):
        def failing_corrector(*args):
            raise NewtonDivergenceError("no convergence")

        start = branch_switch(1, P10, 1e-3, +1)
        monkeypatch.setattr(continuation, "_correct", failing_corrector)
        # ds = 0.01 fails, then 0.005; half of that is below ds_min
        settings = ContinuationSettings(ds0=0.01, ds_min=0.004)
        with pytest.raises(NewtonDivergenceError) as info:
            continue_branch(start, P10, settings)
        err = info.value
        assert str(err) == f"corrector failed below ds_min at s=0.0010, lambda={start.lam:.6f}"
        assert (err.s, err.lam, err.ds) == (1e-3, start.lam, 0.005)

    def test_tangents_are_aligned_unit_and_forward(self):
        settings = ContinuationSettings(max_steps=12, ds_max=0.05)
        start = branch_switch(2, PHALF, 1e-3, +1)
        branch = continue_branch(start, PHALF, settings)
        tangents = [p.tangent for p in branch.points]
        assert len(tangents) == len(branch.points) == 12
        h = discretization(PHALF).h
        for tc, tl in tangents:
            assert abs(float(h @ (tc * tc)) + tl * tl - 1.0) <= 1e-12
        for (tc0, tl0), (tc1, tl1) in zip(tangents, tangents[1:]):
            assert float(h @ (tc0 * tc1)) + tl0 * tl1 > 0.0

    def test_descending_branch(self):
        settings = ContinuationSettings(max_steps=25, ds_max=0.02)
        start = branch_switch(1, P10, 1e-3, +1)
        branch = continue_branch(start, P10, settings)
        lams = [p.lam for p in branch.points]
        assert all(a > b for a, b in zip(lams, lams[1:]))
        assert {p.crossings for p in branch.points} == {1}
        ends = np.array([[p.u(-1.0), p.u(1.0)] for p in branch.points])
        assert np.all(ends[:, 0] < 1.0) and np.all(ends[:, 1] > 1.0)

    def test_residuals_and_s_monotone(self):
        settings = ContinuationSettings(max_steps=10, ds_max=0.01)
        start = branch_switch(2, PHALF, 1e-3, +1)
        branch = continue_branch(start, PHALF, settings)
        disc = discretization(PHALF)
        for p in branch.points:
            assert p.residual_norm < NEWTON_TOL * (1.0 + disc.w_norm(p.u.coeffs))
        s = [p.s for p in branch.points]
        assert all(b > a for a, b in zip(s, s[1:]))

    def test_lambda_window_termination(self):
        settings = ContinuationSettings(max_steps=100, ds_max=0.05, lambda_ceiling=3.05)
        start = branch_switch(1, P10, 1e-3, -1)  # lambda increases this way
        branch = continue_branch(start, P10, settings)
        assert branch.termination == "lambda-window"
        assert branch.points[-1].lam >= 3.05

    def test_amplitude_cap_termination(self):
        # cap below the norm of the trivial state: trips at the first step
        settings = ContinuationSettings(max_steps=200, ds_max=0.01, amplitude_cap=1.0)
        start = branch_switch(1, P10, 1e-3, +1)
        branch = continue_branch(start, P10, settings)
        assert branch.termination == "amplitude-cap"
        assert len(branch.points) == 2
        assert discretization(P10).w_norm(branch.points[-1].u.coeffs) > 1.0

    def test_minus_direction_mirrors_slope(self):
        bp = branch_switch(1, P10, 1e-3, -1)
        assert bp.s == -1e-3
        assert bp.lam == pytest.approx(3.0 + 1.2e-3, rel=1e-4)
        settings = ContinuationSettings(max_steps=5, ds_max=0.005)
        branch = continue_branch(bp, P10, settings)
        assert branch.direction == -1
        s = [p.s for p in branch.points]
        lams = [p.lam for p in branch.points]
        assert all(b < a for a, b in zip(s, s[1:]))
        assert all(b > a for a, b in zip(lams, lams[1:]))

    def test_boundary_residual_small_on_branch(self):
        settings = ContinuationSettings(max_steps=12, ds_max=0.05)
        start = branch_switch(1, P10, 1e-3, +1)
        branch = continue_branch(start, P10, settings)
        p = branch.points[-1]
        bm, bp_ = boundary_residual(p.u, p.lam, P10)
        bound = 1e-6 * (1.0 + discretization(P10).w_norm(p.u.coeffs))
        assert abs(bm) < bound and abs(bp_) < bound


@pytest.fixture(scope="module")
def fold_records():
    """find_degenerate on the three reference FOLD_CASES, traced once."""
    return [find_degenerate(k, ProblemSpec(params, q)) for k, params, q in FOLD_CASES]


class TestFolds:
    @pytest.mark.xfail(
        strict=True,
        reason="k=1 (1,0) q=3 is unresolved at N=64: points 37-40, just past the fold "
        "bracket (36), carry 2, 2, 4 and 6 critical points near t = -0.99, all labelled "
        "'min'; find_degenerate checks the labels at the fold point only",
    )
    def test_extremum_labels_alternate_on_the_unresolved_k1_q3_branch(self):
        branch = find_degenerate(1, ProblemSpec(jacobi_params(1, 0), 3.0)).branch
        assert all(_alternating(_extremum_labels(p)) for p in branch.points)

    def test_no_bracket_raises(self):
        settings = ContinuationSettings(max_steps=6, ds_max=0.01)
        start = branch_switch(1, P10, 1e-3, +1)
        branch = continue_branch(start, P10, settings)
        with pytest.raises(NoFoldBracketError, match="keeps its sign"):
            detect_fold(branch)

    def test_bracket_is_the_first_sign_change_of_tau_lambda(self):
        def points(*tau_lams):
            return [SimpleNamespace(tangent=(None, tl)) for tl in tau_lams]

        taus = points(0.3, 0.1, -0.2, 0.4)
        assert _fold_bracket(taus) == 1
        assert _fold_bracket(taus[:2]) is None
        assert _fold_bracket(points(-0.1, 0.0)) == 0
        assert _fold_bracket(taus[:1]) is None and _fold_bracket([]) is None

    @pytest.mark.parametrize("case", range(len(FOLD_CASES)))
    def test_stop_on_fold_keeps_fold_trail_points(self, fold_records, case):
        rec = fold_records[case]
        branch = rec.branch
        assert branch.termination == "fold-bracketed"
        assert all(len(p.tangent) == 2 for p in branch.points)
        i = _fold_bracket(branch.points)
        assert i is not None
        assert len(branch.points) == i + 2 + FOLD_TRAIL
        assert branch.points[i].s < rec.point.s < branch.points[i + 1].s

    @pytest.mark.parametrize("case", range(len(FOLD_CASES)))
    def test_fold_point_keeps_the_kernel_tangent(self, fold_records, case):
        rec = fold_records[case]
        v, tau_lam = rec.point.tangent
        disc = discretization(rec.branch.spec)
        # the last Illinois tangent, before v is rescaled to ||v||_w = 1
        assert disc.w_norm(v) ** 2 + tau_lam * tau_lam == pytest.approx(1.0, rel=1e-12)
        assert abs(tau_lam) < 1e-8
        cos = float(disc.h @ (v * rec.null_direction.coeffs)) / disc.w_norm(v)
        assert abs(cos) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("case", range(len(FOLD_CASES)))
    def test_fold_localization_builds_one_tangent_per_corrector(
        self, fold_records, case, monkeypatch
    ):
        rec = fold_records[case]
        calls = {"_tangent": 0, "_correct": 0}

        def counting(name):
            orig = getattr(continuation, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return orig(*args, **kwargs)

            return wrapper

        for name in calls:
            monkeypatch.setattr(continuation, name, counting(name))
        again = detect_fold(rec.branch)
        assert calls["_correct"] >= 2
        assert calls["_tangent"] == calls["_correct"]
        assert again.lambda_star == rec.lambda_star

    @pytest.mark.parametrize("case", range(len(FOLD_CASES)))
    def test_doubling_m_moves_the_projection_by_roundoff(self, fold_records, case):
        # the M -> 2M gap that quad_gap reports as 0.0 for integer q, computed
        # at every point of the traced branch
        branch = fold_records[case].branch
        spec = branch.spec
        disc = discretization(spec)
        disc2 = discretization(ProblemSpec(spec.params, spec.q, N=spec.N, M=2 * spec.M))
        assert disc.exact
        gaps = []
        for p in branch.points:
            c = p.u.coeffs
            diff = disc.residual_coeffs(c, p.lam) - disc2.residual_coeffs(c, p.lam)
            p2 = disc2.dresidual_dlambda(c)  # -P_2M[u - u^q]
            gaps.append(disc.w_norm(diff) / (p.lam * (1.0 + disc2.w_norm(p2))))
        assert max(gaps) <= 1e-13

    def test_find_degenerate_builds_one_p_k_squared_table(self, monkeypatch):
        calls = []

        def counting(k, params):
            calls.append((k, params))
            return linearization_coeffs(k, params)

        spec = ProblemSpec(jacobi_params(1, 0), 2.0, N=16)
        lambda_prime_zero.cache_clear()
        monkeypatch.setattr(continuation, "linearization_coeffs", counting)
        find_degenerate(1, spec)
        assert calls == [(1, spec.params)]

    def test_first_and_fold_points_pass_quad_gap(self, monkeypatch):
        # q = 3/2: the projection is inexact, so quad_gap checks the 2M nodes
        # and the gap at every reported state, the first branch point and the
        # fold point included
        spec = ProblemSpec(jacobi_params(1, 0), 1.5, N=32)
        checked = []
        quad_gap = continuation.Discretization.quad_gap

        def counting_gap(disc, ev):
            checked.append(disc.pad(ev.c))
            return quad_gap(disc, ev)

        monkeypatch.setattr(continuation.Discretization, "quad_gap", counting_gap)
        record = find_degenerate(1, spec)
        points = record.branch.points
        assert len(checked) == len(points) + 1
        assert all(np.array_equal(c, p.u.coeffs) for c, p in zip(checked, points))
        assert np.array_equal(checked[-1], record.point.u.coeffs)

    def test_fold_is_localized_on_the_branch_spec(self):
        spec = ProblemSpec(jacobi_params(1, 0), 2.0, N=32)
        rec = find_degenerate(1, spec)
        assert repr(detect_fold(rec.branch).lambda_star) == "2.7319282930146076"
        with pytest.raises(TypeError):
            detect_fold(rec.branch, ProblemSpec(spec.params, 2.0, N=32, M=200))

    def test_monotone_fold_case(self):
        rec = find_degenerate(1, P10)
        # reference value; N=64 and N=256 agree on it to about 1e-14
        assert rec.lambda_star == pytest.approx(2.731928293015951, rel=1e-9)
        assert rec.moore_spence_residual < 1e-10
        assert rec.point.crossings == 1
        assert rec.point.critical_points == 0
        assert 0.0 < rec.lambda_star < 3.0
        assert rec.lambda_star <= min(p.lam for p in rec.branch.points) + 1e-9
        # kernel direction is a genuine null vector of the Jacobian
        disc = discretization(P10)
        jv = disc.jacobian(rec.point.u.coeffs, rec.lambda_star) @ rec.null_direction.coeffs
        assert disc.w_norm(jv) < 1e-9
        norm = disc.w_norm(rec.null_direction.coeffs)
        assert norm == pytest.approx(1.0, rel=1e-10)

    def test_branch_back_to_trivial_solution(self):
        # this k = 4 branch returns to u = 1, where no count is defined; that
        # is a numerical outcome, not a bad parameter
        spec = ProblemSpec(jacobi_params(F(3, 10), F(-7, 10)), 1.5, N=64)
        start = branch_switch(4, spec, 1e-3, +1)
        branch = continue_branch(start, spec, ContinuationSettings(stop_on_fold=True, max_steps=3000))
        assert branch.termination == "trivial-branch"
        assert all(p.crossings == 4 for p in branch.points)
        with pytest.raises(NoFoldBracketError, match="returned to u = 1"):
            find_degenerate(4, spec)

    def test_fold_that_is_not_degenerate_raises(self, monkeypatch):
        # DEGENERATE_TOL = 0 makes every fold fail the sigma ratio test
        monkeypatch.setattr(continuation, "DEGENERATE_TOL", 0.0)
        spec = ProblemSpec(jacobi_params(1, 0), 2.0, N=32)
        with pytest.raises(
            NumericalError, match=r"fold candidate is not degenerate: sigma_min/sigma_max = \d"
        ):
            find_degenerate(1, spec)

    def test_parity_violation(self):
        with pytest.raises(ParameterError):
            find_degenerate(1, PHALF)
        with pytest.raises(ParameterError):
            find_degenerate(3, PLEG)


PARITY_PARAMS = [(F(1, 2), F(1, 2)), (0, 0), (F(3, 2), F(3, 2))]
PARITY_Q = [2.0, 3.0, 1.5]


@pytest.fixture(scope="module")
def parity_folds():
    """find_degenerate at k=2 on every alpha = beta case of the oracle test,
    at N=64; each branch is traced on the even view."""
    return {
        (ab, q): find_degenerate(2, ProblemSpec(jacobi_params(*ab), q))
        for ab in PARITY_PARAMS
        for q in PARITY_Q
    }


def _full_eigenvalues(spec, jac):
    """Every eigenvalue of the symmetric S = H^(1/2) J H^(-1/2), by one
    eigvalsh of the full J."""
    sqh = np.sqrt(discretization(spec).h)
    return np.linalg.eigvalsh(jac * (sqh[:, None] / sqh[None, :]))


class TestParityReduction:
    """For alpha = beta the branch from an even k is traced on the even view:
    the even modes at the t >= 0 half of the Gauss nodes.  Its results,
    padded with odd coefficients 0.0, are checked with the full
    discretization."""

    @pytest.mark.parametrize("q", PARITY_Q, ids=["q=2", "q=3", "q=3/2"])
    @pytest.mark.parametrize("ab", PARITY_PARAMS, ids=["(1/2,1/2)", "(0,0)", "(3/2,3/2)"])
    def test_padded_fold_is_a_fold_of_the_full_discretization(self, parity_folds, ab, q):
        rec = parity_folds[(ab, q)]
        spec = rec.branch.spec
        disc = discretization(spec)
        c, v, lam = rec.point.u.coeffs, rec.null_direction.coeffs, rec.lambda_star
        assert c.size == v.size == spec.N
        assert not c[1::2].any() and not v[1::2].any()
        # the Newton test of _bordered_newton
        res = disc.w_norm(disc.residual_coeffs(c, lam))
        assert res < NEWTON_TOL * (1.0 + disc.w_norm(c))
        jac = disc.jacobian(c, lam)
        ms_res = math.sqrt(
            res**2 + disc.w_norm(jac @ v) ** 2 + (float(disc.h @ (v * v)) - 1.0) ** 2
        )
        assert ms_res < CERTIFICATE_TOL
        eig = np.abs(_full_eigenvalues(spec, jac))
        assert eig.min() < DEGENERATE_TOL * eig.max()

    def test_two_block_sigma_min_is_the_full_eigvalsh(self, parity_folds):
        # this branch passes the symmetry-breaking point of (3/2,3/2) q=3,
        # where the smallest |eigenvalue| of J belongs to the odd block
        branch = parity_folds[((F(3, 2), F(3, 2)), 3.0)].branch
        spec = branch.spec
        eps = np.finfo(float).eps
        odd_smaller = 0
        for p in branch.points:
            jac = jacobian(p.u, p.lam, spec)
            eig = np.abs(_full_eigenvalues(spec, jac))
            assert abs(p.sigma_min - eig.min()) <= 1e-10 * eig.min() + 64 * eps * eig.max()
            sqh = np.sqrt(discretization(spec).h[::2])
            even = np.abs(np.linalg.eigvalsh(jac[::2, ::2] * (sqh[:, None] / sqh[None, :])))
            odd_smaller += even.min() > 2.0 * p.sigma_min
        assert odd_smaller > 0

    def test_even_k_branch_json_has_exact_zero_odd_coefficients(self, parity_folds):
        doc = json.loads(branch_to_json(parity_folds[((F(1, 2), F(1, 2)), 3.0)].branch))
        rows = [p["coeffs"] for p in doc["points"]] + [
            doc["folds"][0][key] for key in ("coeffs", "null_direction")
        ]
        for row in rows:
            assert len(row) == 64
            assert all(x == 0.0 for x in row[1::2])
            assert any(x != 0.0 for x in row[2::2])

    @staticmethod
    def _modes_evaluated(monkeypatch, k, spec):
        """The ``modes`` of every discretization that an evaluation used,
        over branch_switch and six steps of continue_branch."""
        seen = set()
        orig = continuation._StateEvaluation.__init__

        def recording(self, disc, c):
            seen.add((disc.modes.start, disc.modes.step))
            orig(self, disc, c)

        monkeypatch.setattr(continuation._StateEvaluation, "__init__", recording)
        start = branch_switch(k, spec, 1e-3, +1)
        continue_branch(start, spec, ContinuationSettings(max_steps=6))
        return seen

    def test_even_k_symmetric_branch_runs_on_the_even_view(self, monkeypatch):
        assert self._modes_evaluated(monkeypatch, 2, PHALF) == {(0, 2)}

    @pytest.mark.parametrize(
        "k, spec", [(1, PHALF), (2, P10), (1, PFRAC)], ids=["odd-k", "asymmetric", "q=3/2"]
    )
    def test_odd_k_and_asymmetric_branches_run_the_full_path(self, monkeypatch, k, spec):
        assert self._modes_evaluated(monkeypatch, k, spec) == {(None, None)}

    def test_a_state_with_an_odd_coefficient_runs_the_full_path(self):
        c = _mode_state(PHALF, 2, 0.01).coeffs.copy()
        assert continuation._state_discretization(PHALF, c) is discretization(PHALF).even
        c[3] = 1e-300
        assert continuation._state_discretization(PHALF, c) is discretization(PHALF)

    def test_asymmetric_spec_has_no_even_view(self):
        with pytest.raises(ParameterError, match="alpha != beta"):
            discretization(P10).even

    @pytest.mark.parametrize("m", [32, 33], ids=["M even", "M odd"])
    def test_even_view_is_sliced_from_the_full_arrays(self, m, monkeypatch):
        spec = ProblemSpec(PHALF.params, 3.0, N=16, M=m)
        full = continuation.Discretization(spec)
        monkeypatch.setattr(continuation, "gauss_jacobi_rule", None)  # no second rule
        monkeypatch.setattr(continuation, "jacobi_table", None)  # no second table
        even, odd = full.even, full.even.odd
        half = m // 2
        w = 2.0 * full.rule.weights[half:]
        if m % 2:
            assert abs(full.rule.nodes[half]) < 1e-15  # the middle node keeps its weight
            w[0] = full.rule.weights[half]
        assert even.rule.nodes.tobytes() == full.rule.nodes[half:].tobytes()
        assert even.rule.weights.tobytes() == w.tobytes()
        assert w.sum() == pytest.approx(full.rule.weights.sum(), rel=1e-13)
        for view, parity in ((even, 0), (odd, 1)):
            assert view.basis.tobytes() == full.basis[half:, parity::2].copy().tobytes()
            assert view.h.tobytes() == full.h[parity::2].copy().tobytes()
            assert view.lin.tobytes() == full.lin[parity::2].copy().tobytes()
            proj = (view.basis * w[:, None]).T / view.h[:, None]
            assert view.proj.tobytes() == proj.tobytes()
        assert odd.odd is None and full.odd is None

    def test_even_view_restricts_the_2m_arrays(self):
        full = discretization(ProblemSpec(PHALF.params, 1.5, N=16, M=32))
        even = full.even
        assert not full.exact and "refined" not in vars(even.odd)
        assert even.refined.basis.tobytes() == full.refined.basis[full.spec.M :, ::2].copy().tobytes()
        assert even.refined.proj.shape == (8, full.spec.M)
        # u = c_0 + P_2 has its minimum 0.05 at t = 0, so u^(3/2) is far from
        # a polynomial and the gap well above roundoff
        c = np.zeros(16)
        c[0], c[2] = 0.05 - eval_jacobi(2, PHALF.params, 0.0), 1.0
        gap_full = full.quad_gap(continuation._StateEvaluation(full, c))
        gap_even = even.quad_gap(continuation._StateEvaluation(even, c[even.modes]))
        assert gap_full > 1e-8
        assert gap_even == pytest.approx(gap_full, rel=1e-6)


class TestPhaseSolve:
    def test_refinement_moves_lambda_negligibly(self):
        settings = ContinuationSettings(max_steps=8, ds_max=0.02)
        start = branch_switch(1, P10, 1e-3, +1)
        branch = continue_branch(start, P10, settings)
        p = branch.points[-1]
        disc = discretization(P10)
        sigma = float(p.u.coeffs[1]) * math.sqrt(disc.h[1])
        fine = ProblemSpec(P10.params, P10.q, N=2 * P10.N)
        guess = np.zeros(fine.N)
        guess[: P10.N] = p.u.coeffs
        _, lam2 = solve_at_phase(1, fine, sigma, guess=(guess, p.lam * (1 + 1e-6)))
        assert abs(lam2 - p.lam) / p.lam < 1e-8


    @pytest.mark.parametrize("guess", [False, True], ids=["no-guess", "guess"])
    @pytest.mark.parametrize("k", [-1, 0, 16])
    def test_k_outside_one_to_n_is_rejected(self, k, guess):
        # k = -1 once pinned c_15 and k = 0 pinned c_0; k = N raised IndexError
        spec = ProblemSpec(jacobi_params(1, 0), 2.0, N=16)
        seed = (SpectralFunction.constant_one(spec).coeffs, 3.0) if guess else None
        with pytest.raises(ParameterError, match=rf"k={k} must lie in \[1, N\) = \[1, 16\)"):
            solve_at_phase(k, spec, 1e-3, guess=seed)

    @pytest.mark.parametrize("shape", [(8,), (32,), (16, 1)], ids=str)
    def test_guess_of_another_shape_is_refused(self, shape):
        # lengths 8 and 32 ended in numpy's ValueError, (16, 1) in a TypeError
        spec = ProblemSpec(jacobi_params(1, 0), 2.0, N=16)
        coeffs = np.zeros(shape)
        coeffs.flat[0] = 1.0
        with pytest.raises(ParameterError, match=r"shape .* spec wants \(16,\)"):
            solve_at_phase(1, spec, 1e-3, guess=(coeffs, 3.0))

    @pytest.mark.parametrize(
        "bad_c, bad_lam",
        [(False, math.nan), (False, math.inf), (True, 3.0)],
        ids=["lambda-nan", "lambda-inf", "coefficient-nan"],
    )
    def test_nonfinite_guess_is_refused(self, bad_c, bad_lam):
        # a NaN lambda ended in numpy's LinAlgError (singular matrix)
        spec = ProblemSpec(jacobi_params(1, 0), 2.0, N=16)
        coeffs = SpectralFunction.constant_one(spec).coeffs.copy()
        if bad_c:
            coeffs[3] = math.nan
        with pytest.raises(ParameterError, match="must be finite"):
            solve_at_phase(1, spec, 1e-3, guess=(coeffs, bad_lam))

    @pytest.mark.parametrize("guess", [False, True], ids=["no-guess", "guess"])
    @pytest.mark.parametrize("sigma", [math.nan, math.inf, -math.inf], ids=str)
    def test_nonfinite_amplitude_is_refused(self, sigma, guess):
        # it ended in a NonpositiveStateError, as if the state had left u > 0
        spec = ProblemSpec(jacobi_params(1, 0), 2.0, N=16)
        seed = (SpectralFunction.constant_one(spec).coeffs, 3.0) if guess else None
        with pytest.raises(ParameterError, match=rf"sigma={sigma} must be finite"):
            solve_at_phase(1, spec, sigma, guess=seed)


_P = P10.params
# every function that takes a degree, a mode index or a count, called at it
INTEGER_ARGUMENTS = {
    "find_degenerate": lambda k: find_degenerate(k, P10),
    "branch_switch": lambda k: branch_switch(k, P10, 1e-3, +1),
    "solve_at_phase": lambda k: solve_at_phase(k, P10, 1e-3),
    "lambda_prime_zero": lambda k: lambda_prime_zero(k, P10),
    "sign_classification": lambda k: sign_classification(k, _P),
    "linearization_coeffs": lambda k: linearization_coeffs(k, _P),
    "cube_integral": lambda k: cube_integral(k, _P),
    "gasper_quartic": lambda k: gasper_quartic(k, 1),
    "eval_jacobi": lambda k: eval_jacobi(k, _P, 0.3),
    "endpoint_value": lambda k: endpoint_value(k, _P, 1),
    "exact_coeffs": lambda k: exact_coeffs(k, _P),
    "jacobi_zeros": lambda k: jacobi_zeros(k, _P),
    "jacobi_table": lambda k: jacobi_table(_P, k, 0.3),
    "weighted_norm_sq": lambda k: weighted_norm_sq(k, _P),
    "norm_sq_closed_form": lambda k: norm_sq_closed_form(k, _P),
    "gauss_jacobi_rule": lambda m: gauss_jacobi_rule(_P, m),
    "chebyshev_connection": lambda n: chebyshev_connection(_P, n),
}


CACHED = {"lambda_prime_zero", "exact_coeffs", "gauss_jacobi_rule", "chebyshev_connection"}


@pytest.mark.parametrize("bad", [2.5, 2.0, np.float64(2.0), True, -1], ids=repr)
@pytest.mark.parametrize("name", sorted(INTEGER_ARGUMENTS))
def test_integer_arguments_refuse_anything_but_an_integer_in_range(name, bad):
    # 2.5 ended in an IndexError or TypeError, or a result for a degree that
    # does not exist (gasper_quartic); a cached result for the int twin of a
    # float or bool must not answer for it, so the twin is cached first
    call = INTEGER_ARGUMENTS[name]
    if name in CACHED and isinstance(bad, (bool, float)) and bad == int(bad):
        call(int(bad))
    with pytest.raises(ParameterError, match="must be an integer|must be >= |must lie in"):
        call(bad)


# what a result is compared by, for functions that take a degree or count
COMPARED_BY = {
    "lambda_prime_zero": float,
    "sign_classification": lambda r: (r.signs, r.table.exact, r.table.coeffs.tobytes()),
    "gasper_quartic": lambda r: (r.k, r.coeffs),
    "exact_coeffs": lambda r: r.coeffs,
    "jacobi_table": lambda r: r.tobytes(),
    "gauss_jacobi_rule": lambda r: (r.nodes.tobytes(), r.weights.tobytes()),
    "chebyshev_connection": lambda r: r.tobytes(),
    "jacobi_zeros": lambda r: r.tobytes(),
    "eval_jacobi": float,
    "endpoint_value": lambda r: r,
    "cube_integral": float,
    "weighted_norm_sq": float,
    "norm_sq_closed_form": float,
    "linearization_coeffs": lambda r: (r.k, r.exact, r.coeffs.tobytes()),
    "solve_at_phase": lambda r: (r[0].tobytes(), r[1]),
    "branch_switch": lambda r: (r.u.coeffs.tobytes(), r.lam, r.s),
    "find_degenerate": lambda r: (r.point.u.coeffs.tobytes(), r.point.lam, r.lambda_star),
}


@pytest.mark.parametrize("name", sorted(COMPARED_BY))
def test_numpy_integer_is_its_int(name):
    call, key = INTEGER_ARGUMENTS[name], COMPARED_BY[name]
    assert key(call(np.int64(2))) == key(call(2))


class TestSpectralFunction:
    def test_evaluation_matches_basis(self):
        c = np.zeros(P10.N)
        c[0], c[3] = 1.0, 0.25
        u = SpectralFunction(c, P10.params)
        t = 0.37
        assert u(t) == pytest.approx(1.0 + 0.25 * eval_jacobi(3, P10.params, t), rel=1e-14)

    def test_w_norm_matches_quadrature(self):
        rng = np.random.default_rng(11)
        c = rng.standard_normal(12)
        disc = discretization(ProblemSpec(P10.params, 2.0, N=12))
        rule = gauss_jacobi_rule(P10.params, 16)
        vals = jacobi_table(P10.params, 11, rule.nodes) @ c
        assert disc.w_norm(c) == pytest.approx(math.sqrt(rule.weights @ vals**2), rel=1e-12)

    def test_coefficients_are_frozen(self):
        u = SpectralFunction.constant_one(P10)
        with pytest.raises(ValueError):
            u.coeffs[0] = 2.0
