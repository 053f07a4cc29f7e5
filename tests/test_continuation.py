import math
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from jacbif import (
    ContinuationSettings,
    NewtonDivergenceError,
    NoFoldBracketError,
    NonpositiveStateError,
    ParameterError,
    ProblemSpec,
    SpectralFunction,
    TangencyError,
    bifurcation_points,
    boundary_residual,
    branch_switch,
    continue_branch,
    count_critical_points,
    count_crossings,
    critical_point_list,
    crossing_points,
    detect_fold,
    endpoint_label,
    eval_jacobi,
    find_degenerate,
    jacobian,
    jacobi_zeros,
    lambda_prime_zero,
    linearization_coeffs,
    residual,
)
from jacbif import NumericalError, continuation, jacobi_params
from jacbif.continuation import (
    FOLD_TRAIL,
    MAX_QUADRATURE_ORDER,
    NEWTON_TOL,
    _fold_bracket,
    _scan_grid,
    discretization,
    solve_at_phase,
)
from jacbif.jacobi import (
    _series_banded,
    gauss_jacobi_rule,
    jacobi_table,
    derivative_series,
    norm_sq_closed_form,
)
from jacbif.verification import FOLD_CASES

P10 = ProblemSpec(jacobi_params(1, 0), 2.0)
PHALF = ProblemSpec(jacobi_params(F(1, 2), F(1, 2)), 3.0)
PLEG = ProblemSpec(jacobi_params(0, 0), 2.0)


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
        # the 2M-point rule of N = 100000 would hold a 600000^2 eigenvector matrix
        with pytest.raises(ParameterError) as info:
            ProblemSpec(jacobi_params(1, 0), 2.0, N=100000)
        msg = str(info.value)
        assert "N=100000, M=300000" in msg and "600000 x 600000" in msg
        assert "2,880,000,000,000 bytes" in msg

    def test_largest_quadrature_order(self):
        # a spec allocates nothing; its discretization is built on first use
        assert ProblemSpec(jacobi_params(1, 0), 2.0, N=16, M=MAX_QUADRATURE_ORDER).M == 4096
        assert ProblemSpec(jacobi_params(1, 0), 2.0, N=1365).M == 4095
        for kwargs in ({"N": 16, "M": MAX_QUADRATURE_ORDER + 1}, {"N": 1366}):
            with pytest.raises(ParameterError, match="M must be <= 4096"):
                ProblemSpec(jacobi_params(1, 0), 2.0, **kwargs)


class TestResidual:
    def test_trivial_state_is_exact_zero(self):
        one = SpectralFunction.constant_one(P10)
        assert np.all(residual(one, 5.0, P10).coeffs == 0.0)

    def test_quadratic_remainder_at_bifurcation_point(self):
        # u = 1 + eps P_k at lambda_k: the linear terms cancel exactly
        lam1 = bifurcation_points(P10, 1)[0][1]
        disc = discretization(P10)
        norms = []
        for eps in (1e-4, 1e-5):
            r = residual(_mode_state(P10, 1, eps), lam1, P10)
            norms.append(disc.w_norm(r.coeffs))
        assert norms[1] < 1e-8
        assert norms[0] / norms[1] == pytest.approx(100.0, rel=0.05)

    def test_lambda_zero_leaves_diagonal_term(self):
        eps = 1e-5
        r = residual(_mode_state(P10, 1, eps), 0.0, P10)
        assert r.coeffs[1] == pytest.approx(-(P10.params.a + 1.0) * eps, rel=1e-12)
        assert np.max(np.abs(np.delete(r.coeffs, 1))) < 1e-16

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=str)
    def test_nonfinite_state_is_not_positive(self, bad):
        c = np.zeros(P10.N)
        c[0], c[3] = 1.0, bad
        u = SpectralFunction(c, P10.params)
        with pytest.raises(NonpositiveStateError, match="at a quadrature node"):
            residual(u, 1.0, P10)
        with pytest.raises(NonpositiveStateError, match="at an endpoint"):
            boundary_residual(u, 1.0, P10)

    def test_nan_on_refined_grid_is_not_positive(self):
        # a private discretization whose refined table yields NaN at one node
        disc = continuation.Discretization(P10)
        disc.basis2 = disc.basis2.copy()
        disc.basis2[5, 0] = math.nan
        c = _mode_state(P10, 1, 0.01).coeffs
        with pytest.raises(NonpositiveStateError, match="refined grid"):
            disc.quad_gap(c)

    def test_nonpositive_state_rejected(self):
        c = np.zeros(P10.N)
        c[0] = 1.0
        c[1] = 2.0  # drives u below zero near t = -1
        with pytest.raises(Exception) as err:
            residual(SpectralFunction(c, P10.params), 1.0, P10)
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
        for k, lam_k in bifurcation_points(P10, 4):
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

    def test_weighted_symmetry(self):
        # h_i J_ij == h_j J_ji up to roundoff (self-adjointness in the
        # weighted inner product)
        rng = np.random.default_rng(3)
        disc = discretization(PHALF)
        c = np.zeros(PHALF.N)
        c[0] = 1.2
        c[1:] = 0.1 * rng.standard_normal(PHALF.N - 1) / (1.0 + np.arange(1, PHALF.N)) ** 2
        mat = jacobian(SpectralFunction(c, PHALF.params), 1.7, PHALF)
        weighted = disc.h[:, None] * mat
        scale = np.max(np.abs(weighted))
        assert np.max(np.abs(weighted - weighted.T)) < 1e-10 * scale


class TestBifurcationData:
    def test_lambda_k_values(self):
        assert bifurcation_points(PHALF, 2) == [(1, pytest.approx(1.5)), (2, pytest.approx(4.0))]
        assert bifurcation_points(P10, 1)[0][1] == pytest.approx(3.0)

    def test_strictly_increasing(self):
        lams = [lam for _, lam in bifurcation_points(PLEG, 10)]
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
        assert np.all(residual(one, 2.0, swapped).coeffs == 0.0)


class TestCounting:
    def test_mode_perturbation_crossings(self):
        u = _mode_state(PLEG, 3, 0.01)
        assert count_crossings(u) == 3
        roots = crossing_points(u)
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

    def test_tangent_crossing_raises(self):
        # Legendre: u - 1 = 0.01 t^3 = 0.006 P_1 + 0.004 P_3 crosses 0 with zero slope
        c = np.zeros(16)
        c[0], c[1], c[3] = 1.0, 0.006, 0.004
        with pytest.raises(
            TangencyError, match=r"^crossing at t=-?0\.000000 is nearly degenerate"
        ) as info:
            crossing_points(SpectralFunction(c, PLEG.params))
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
    @pytest.mark.parametrize("count", [crossing_points, critical_point_list])
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
    # u = 1 + 0.01 P_k crosses 1 at the zeros of P_k, and its critical points
    # are the zeros of P_k' ~ P_{k-1}^(alpha+1, beta+1)
    params = jacobi_params(alpha, beta)
    u = _mode_state(ProblemSpec(params, 2.0), k, 0.01)
    assert np.allclose(crossing_points(u), jacobi_zeros(k, params), rtol=0, atol=1e-12)
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
    roots = crossing_points(SpectralFunction(c, params))
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
    c[0] += max(0.0, 0.5 - np.min(disc.values(c)))  # u >= 0.5 at the nodes
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


def _clenshaw_scan(params, coeffs, n_modes):
    # the reference scan: Clenshaw's recurrence by banded solves at every
    # point of the 8N+2 grid, +-1 included
    return _series_banded(params, np.asarray(coeffs, dtype=float), _scan_grid(n_modes))


def _diagnostics(u):
    """Crossings, labelled critical points and both endpoint labels of u, or
    the name of the error each one raises."""
    out = []
    for diag in (
        crossing_points,
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
    monkeypatch.setattr(continuation, "_scan_values", _clenshaw_scan)
    assert fft == [_diagnostics(u) for u in states]


def test_derivative_is_scanned_only_for_a_sign_change(monkeypatch):
    # u = 1 + 0.01 P_1: u - 1 has one root, so its slope scan runs; u' has
    # none, so u'' is never scanned
    calls = []

    def counting_scan(*args):
        calls.append(args)
        return scan(*args)

    scan = continuation._scan_values
    monkeypatch.setattr(continuation, "_scan_values", counting_scan)
    u = _mode_state(P10, 1, 0.01)
    assert critical_point_list(u) == [] and len(calls) == 1
    calls.clear()
    assert len(crossing_points(u)) == 1 and len(calls) == 2


def _count_rounds(monkeypatch):
    """A list that records one entry per stacked solve of the root polish."""
    rounds = []
    solve = continuation.stacked_series

    def counting_solve(series, x):
        rounds.append(x.size)
        return solve(series, x)

    monkeypatch.setattr(continuation, "stacked_series", counting_solve)
    return rounds


@pytest.mark.parametrize("ab", SCAN_PAIRS, ids=str)
def test_simple_roots_polish_in_few_rounds(ab, monkeypatch):
    # u = 1 + 0.01 P_k: every bracket of u - 1 and of u' holds a simple root
    rounds = _count_rounds(monkeypatch)
    spec = ProblemSpec(jacobi_params(*ab), 2.0)
    for k in range(1, 9):
        u = _mode_state(spec, k, 0.01)
        for count, expected in ((crossing_points, k), (critical_point_list, k - 1)):
            rounds.clear()
            assert len(count(u)) == expected
            assert len(rounds) <= 5
            assert all(size <= expected for size in rounds)


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
        crossing_points(u)
    assert abs(info.value.t - t0) < 1e-4
    assert f"t={info.value.t:.6f}" in str(info.value)
    assert len(rounds) <= 64


class TestBranchSwitch:
    def test_first_point_monotone_case(self):
        bp = branch_switch(1, P10, 1e-3, +1)
        # slope -6/5 against unit-normalized tangent with h_1 = 1
        assert bp.lam == pytest.approx(3.0 - 1.2e-3, rel=1e-4)
        assert bp.crossings == 1
        assert bp.critical_points == 0
        assert bp.residual_norm < 1e-11 * (1.0 + bp.u.w_norm())

    def test_two_mode_case(self):
        bp = branch_switch(2, PHALF, 1e-3, +1)
        assert bp.crossings == 2

    def test_zero_slope_case_is_quadratic(self):
        lam1 = bifurcation_points(PHALF, 1)[0][1]
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

    def test_preconditions(self):
        with pytest.raises(ParameterError):
            branch_switch(1, P10, 0.2, +1)
        with pytest.raises(ParameterError):
            branch_switch(40, P10, 1e-3, +1)
        with pytest.raises(ParameterError):
            branch_switch(1, P10, 1e-3, 2)


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
        assert len(branch.tangents) == len(branch.points) == 12
        h = discretization(PHALF).h
        for tc, tl in branch.tangents:
            assert abs(float(h @ (tc * tc)) + tl * tl - 1.0) <= 1e-12
        for (tc0, tl0), (tc1, tl1) in zip(branch.tangents, branch.tangents[1:]):
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
        for p in branch.points:
            assert p.residual_norm < NEWTON_TOL * (1.0 + p.u.w_norm())
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
        assert branch.points[-1].u.w_norm() > 1.0

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
        bound = 1e-6 * (1.0 + p.u.w_norm())
        assert abs(bm) < bound and abs(bp_) < bound


@pytest.fixture(scope="module")
def fold_records():
    """find_degenerate on the three reference FOLD_CASES, traced once."""
    return [find_degenerate(k, ProblemSpec(params, q)) for k, params, q in FOLD_CASES]


class TestFolds:
    def test_no_bracket_raises(self):
        settings = ContinuationSettings(max_steps=6, ds_max=0.01)
        start = branch_switch(1, P10, 1e-3, +1)
        branch = continue_branch(start, P10, settings)
        with pytest.raises(NoFoldBracketError, match="keeps its sign"):
            detect_fold(branch, P10)

    def test_bracket_is_the_first_sign_change_of_tau_lambda(self):
        taus = [(None, 0.3), (None, 0.1), (None, -0.2), (None, 0.4)]
        assert _fold_bracket(taus) == 1
        assert _fold_bracket(taus[:2]) is None
        assert _fold_bracket([(None, -0.1), (None, 0.0)]) == 0
        assert _fold_bracket(taus[:1]) is None and _fold_bracket([]) is None

    @pytest.mark.parametrize("case", range(len(FOLD_CASES)))
    def test_stop_on_fold_keeps_fold_trail_points(self, fold_records, case):
        rec = fold_records[case]
        branch = rec.branch
        assert branch.termination == "fold-bracketed"
        assert len(branch.tangents) == len(branch.points)
        i = _fold_bracket(branch.tangents)
        assert i is not None
        assert len(branch.points) == i + 2 + FOLD_TRAIL
        assert branch.points[i].s < rec.point.s < branch.points[i + 1].s

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
        again = detect_fold(rec.branch, rec.branch.spec)
        assert calls["_correct"] >= 2
        assert calls["_tangent"] == calls["_correct"]
        assert again.lambda_star == rec.lambda_star

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
        assert rec.null_direction.w_norm() == pytest.approx(1.0, rel=1e-10)

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

    def test_parity_violation(self):
        with pytest.raises(ParameterError):
            find_degenerate(1, PHALF)
        with pytest.raises(ParameterError):
            find_degenerate(3, PLEG)


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
        u = SpectralFunction(c, P10.params)
        rule = gauss_jacobi_rule(P10.params, 16)
        vals = jacobi_table(P10.params, 11, rule.nodes) @ c
        assert u.w_norm() == pytest.approx(math.sqrt(rule.weights @ vals**2), rel=1e-12)

    def test_coefficients_are_frozen(self):
        u = SpectralFunction.constant_one(P10)
        with pytest.raises(ValueError):
            u.coeffs[0] = 2.0
