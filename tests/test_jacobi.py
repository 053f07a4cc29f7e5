import math
import operator
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp
from scipy.special import roots_jacobi

from jacbif import (
    NumericalBreakdownError,
    ParameterError,
    apply_L,
    endpoint_value,
    eval_jacobi,
    exact_coeffs,
    exact_poly,
    gauss_jacobi_rule,
    jacobi_params,
    jacobi_series,
    jacobi_table,
    jacobi_zeros,
    sign_classification,
    weighted_norm_sq,
)
from jacbif import jacobi
from jacbif.continuation import _scan_grid
from jacbif.jacobi import (
    _chebyshev_values,
    chebyshev_connection,
    derivative_series,
    integrate_relative,
    norm_sq_closed_form,
    rel_weight_moments,
    stacked_series,
    weight_mass,
    weight_mass_exact,
)

PARAM_GRID = [
    jacobi_params(0, 0),
    jacobi_params(F(1, 2), F(1, 2)),
    jacobi_params(1, 0),
    jacobi_params(F(3, 2), F(1, 2)),
    jacobi_params(F(-2, 5), F(-2, 5)),
    jacobi_params(F(3, 10), F(-7, 10)),
    jacobi_params(F(-1, 2), F(-1, 2)),
    jacobi_params(F(1, 2), F(-1, 2)),
]

# alpha + beta = -1 (twice), alpha + beta = 0 with alpha != beta, exponents
# near -1, and a wide gap between alpha and beta
ORACLE_PAIRS = [
    (F(-1, 2), F(-1, 2)),
    (F(-3, 10), F(-7, 10)),
    (F(1, 2), F(-1, 2)),
    (F(-999, 1000), F(-9, 10)),
    (F(2), F(-1, 2)),
]


def _deriv_values(k, params, t):
    """d/dt P_k at t: the one term of derivative_series of P_k, summed by
    jacobi_series."""
    return jacobi_series(*derivative_series(params, np.arange(k + 1) == k), t)


def _exact_deriv(p):
    """The exact derivative of an ExactPolynomial."""
    return exact_poly([i * c for i, c in enumerate(p.coeffs)][1:])


def _eigen_image(p, k, params):
    """-k(k + alpha + beta + 1) p, the image of P_k under L, exactly."""
    al, be = params.exact
    return exact_poly(-k * (k + al + be + 1) * c for c in p.coeffs)


class TestParams:
    def test_exact_mirror_for_rational_inputs(self):
        p = jacobi_params(F(3, 2), F(1, 2))
        assert p.exact == (F(3, 2), F(1, 2))
        assert p.a == 3.0

    def test_float_inputs_keep_their_binary_value(self):
        assert jacobi_params(0.1, 0).exact[0] == F(0.1) != F(1, 10)
        assert jacobi_params(0.5, 0.5).exact == (F(1, 2), F(1, 2))

    @pytest.mark.parametrize(
        "x", [np.float32(0.5), np.float64(-0.25), np.int64(2), True, 3, F(3, 10)], ids=repr
    )
    def test_number_types_accepted(self, x):
        p = jacobi_params(x, x)
        assert p.alpha == p.beta == float(x)
        assert p.a == 2.0 * float(x) + 1.0
        assert type(p.alpha) is type(p.beta) is type(p.a) is float

    def test_numpy_integer_runs_in_python_ints(self):
        # an int64 numerator would overflow in (k+2)!/2 = P_k(1) from k = 19 on
        p, ref = jacobi_params(np.int64(2), 0), jacobi_params(2, 0)
        assert all(type(e.numerator) is type(e.denominator) is int for e in p.exact)
        assert endpoint_value(30, p, 1) == endpoint_value(30, ref, 1) == F(math.factorial(32), 2 * math.factorial(30))
        rep, rep_ref = sign_classification(8, p), sign_classification(8, ref)
        assert (rep.signs, rep.discrepancies) == (rep_ref.signs, rep_ref.discrepancies)
        assert rep.table.exact == rep_ref.table.exact
        assert all(type(c.numerator) is int for c in rep.table.exact)
        assert rep.table.coeffs.tobytes() == rep_ref.table.coeffs.tobytes()

    def test_equal_parameters_hash_and_compare_equal(self):
        # two separate builds: equal, the dataclass hash, stored on first use
        p, q = jacobi_params(F(3, 2), F(1, 2)), jacobi_params(1.5, 0.5)
        assert p is not q and p == q and hash(p) == hash(q)
        assert hash(p) == hash((p.alpha, p.beta, p.a, p.exact)) == vars(p)["_hash"]
        assert p != jacobi_params(F(3, 2), F(1, 3))
        assert {p: 1}[q] == 1

    def test_typed_caches_keep_a_float_from_its_int_twin(self):
        # the int entry is made from one params object and looked up from an
        # equal one, so the lookup goes through the stored hash and __eq__
        gauss_jacobi_rule(jacobi_params(F(1, 2), 0), 4)
        chebyshev_connection(jacobi_params(F(1, 2), 0), 4)
        twin = jacobi_params(0.5, 0)
        for call in (gauss_jacobi_rule, chebyshev_connection):
            with pytest.raises(ParameterError, match="must be an integer"):
                call(twin, 4.0)

    def test_derivative_series_shares_its_shifted_parameters(self):
        p = jacobi_params(F(1, 2), F(-1, 2))
        sp = derivative_series(p, np.ones(4))[0]
        assert sp is derivative_series(p, np.zeros(7))[0]
        assert sp is derivative_series(jacobi_params(0.5, -0.5), np.ones(1))[0]
        assert sp == jacobi_params(F(3, 2), F(1, 2))

    @pytest.mark.parametrize("al,be", [(-1, 0), (0, -1), (-1.5, 0.0)])
    def test_nonintegrable_weight_rejected(self, al, be):
        with pytest.raises(ParameterError):
            jacobi_params(al, be)

    @pytest.mark.parametrize(
        "al,be",
        [(math.inf, 0.0), (0.0, math.inf), (-math.inf, 0.0), (0.0, -math.inf), (math.nan, 0.0),
         (0.0, math.nan)],
    )
    def test_nonfinite_exponent_rejected(self, al, be):
        with pytest.raises(ParameterError, match="finite"):
            jacobi_params(al, be)

    @pytest.mark.parametrize(
        "al,be", [(10**400, 0), (0, -(10**400)), (F(10**400, 3), F(1, 2)), (10**5000, 0)],
        ids=["int", "negative-int", "fraction", "int-past-str-limit"],
    )
    def test_exponent_whose_float_overflows_rejected(self, al, be):
        # an exact exponent past the float range is refused as inf is, not
        # let through as an OverflowError from float(Fraction)
        with pytest.raises(ParameterError, match="finite"):
            jacobi_params(al, be)


class TestEvaluation:
    def test_degree_zero_is_one(self):
        assert eval_jacobi(0, jacobi_params(F(3, 2), F(1, 2)), 0.3) == 1.0

    def test_degree_one(self):
        # P_1 = (alpha - beta)/2 + t (alpha + beta + 2)/2
        assert eval_jacobi(1, jacobi_params(1, 0), 1.0) == pytest.approx(2.0, abs=1e-15)

    def test_legendre_p2_at_zero(self):
        assert eval_jacobi(2, jacobi_params(0, 0), 0.0) == pytest.approx(-0.5, abs=1e-15)

    def test_negative_degree_rejected(self):
        with pytest.raises(ParameterError):
            eval_jacobi(-1, jacobi_params(0, 0), 0.0)

    @pytest.mark.parametrize("params", PARAM_GRID, ids=str)
    def test_recurrence_matches_exact_coefficients(self, params):
        # two independent routes: stable recurrence vs the operator-eigenvalue
        # construction evaluated in exact rational arithmetic
        pts = [F(j, 50) - 1 for j in range(100)]
        table = jacobi_table(params, 30, np.array([float(t) for t in pts]))
        for k in range(31):
            exact = np.array([float(exact_coeffs(k, params)(t)) for t in pts])
            scale = np.max(np.abs(exact))
            assert np.max(np.abs(table[:, k] - exact)) < 1e-12 * scale

    @pytest.mark.parametrize("ab", ORACLE_PAIRS, ids=str)
    def test_table_matches_mpmath(self, ab):
        # mp.jacobi is the hypergeometric form, independent of the recurrence;
        # every degree up to 8, then every 16th up to 255
        degrees = [*range(9), *range(15, 256, 16)]
        pts = [-1.0, -0.9999, -0.6, -0.25, 0.0, 0.3, 0.75, 0.9999, 1.0]
        table = jacobi_table(jacobi_params(*ab), 255, pts)
        with mp.workdps(30):
            al, be = (mp.mpf(x.numerator) / x.denominator for x in ab)
            for i, t in enumerate(pts):
                for n in degrees:
                    # zeroprec: P_n has exact zeros among the points (t = 0, odd n)
                    ref = float(mp.jacobi(n, al, be, mp.mpf(t), zeroprec=60))
                    assert abs(table[i, n] - ref) <= 1e-12 * max(1.0, abs(ref)), (n, t)

    @pytest.mark.parametrize("params", PARAM_GRID, ids=str)
    def test_table_equals_column_wise_build(self, params):
        # the recurrence on contiguous vectors runs the same arithmetic as
        # filling the (len(t), kmax+1) table in place, column by column
        kmax, t = 255, _scan_grid(256)
        up, mid, down = jacobi.jacobi_operator(kmax, params.alpha, params.beta)
        ref = np.empty((t.size, kmax + 1))
        ref[:, 0] = 1.0
        prev = np.zeros(t.size)
        for n in range(kmax):
            ref[:, n + 1] = ((t - mid[n]) * ref[:, n] - down[n] * prev) / up[n]
            prev = ref[:, n]
        table = jacobi_table(params, kmax, t)
        assert table.flags.c_contiguous
        assert np.array_equal(table, ref)

    def test_evaluators_keep_the_shape_of_t(self):
        params = jacobi_params(F(3, 2), F(1, 2))
        t = np.linspace(-1.0, 1.0, 6).reshape(2, 3)
        assert jacobi_table(params, 2, t).shape == (6, 3)
        for k in (0, 2):
            vals = eval_jacobi(k, params, t)
            assert vals.shape == (2, 3)
            assert vals.ravel().tolist() == [eval_jacobi(k, params, x) for x in t.ravel()]
            dvals = _deriv_values(k, params, t)
            assert dvals.shape == (2, 3)
            assert dvals.ravel().tolist() == [_deriv_values(k, params, x) for x in t.ravel()]
        assert isinstance(_deriv_values(0, params, 0.5), float)

    def test_derivative_matches_exact_derivative(self):
        params = jacobi_params(F(3, 2), F(1, 2))
        dp = _exact_deriv(exact_coeffs(7, params))
        for t in (-0.9, -0.25, 0.0, 0.6, 1.0):
            assert _deriv_values(7, params, t) == pytest.approx(
                float(dp(F(t).limit_denominator(10**6))), rel=1e-12
            )


class TestSeries:
    """jacobi_series (banded Clenshaw solves inside (-1, 1), the closed form
    at +-1) against the table product, mpmath and edge cases."""

    PAIRS = [*(p.exact for p in PARAM_GRID), (F(-9, 10), F(-19, 20)), (F(-999, 1000), F(-9, 10))]
    PTS = np.concatenate(([-1.0, 1.0], np.cos(np.linspace(0.0, np.pi, 301))))

    @staticmethod
    def points(count, n):
        # "scan" is the 8N+2 scan grid of continuation
        if count == "scan":
            return _scan_grid(n)
        return np.cos(np.linspace(0.0, np.pi, count))

    @pytest.mark.parametrize("count", [93, 399, 400, 2050])
    def test_banded_path_takes_every_point_count(self, count):
        # no dispatch on the point count: inside (-1, 1) every sum is banded,
        # on both sides of the 400 points where a loop over degrees once took over
        params = jacobi_params(F(3, 2), F(1, 2))
        pts = np.cos(np.linspace(0.0, np.pi, count + 2))[1:-1]
        c = np.random.default_rng(count).standard_normal(64) * 0.95 ** np.arange(64)
        banded = stacked_series(((params, c),), pts)[0]
        assert np.array_equal(jacobi_series(params, c, pts), banded)
        self.check_table_product(params, 64, pts)

    @staticmethod
    def check_table_product(params, n, pts):
        c = np.random.default_rng(n).standard_normal(n) * 0.95 ** np.arange(n)
        table = jacobi_table(params, n - 1, pts)
        # relative to sum_i |c_i P_i(t)|, the size of the terms being summed
        scale = np.abs(table) @ np.abs(c)
        err = np.abs(jacobi_series(params, c, pts) - table @ c)
        assert np.all(err <= 1e-13 * scale)

    @pytest.mark.parametrize("n", [1, 16, 64, 256])
    @pytest.mark.parametrize("ab", PAIRS, ids=str)
    def test_matches_table_product(self, ab, n):
        self.check_table_product(jacobi_params(*ab), n, self.PTS)

    @pytest.mark.parametrize("count", [0, 1, 2, 31, 93, "scan"], ids=str)
    @pytest.mark.parametrize("n", [1, 16, 64, 256])
    @pytest.mark.parametrize("ab", PAIRS, ids=str)
    def test_matches_table_product_at_point_counts(self, ab, n, count):
        self.check_table_product(jacobi_params(*ab), n, self.points(count, n))

    @pytest.mark.parametrize("ab", ORACLE_PAIRS, ids=str)
    def test_matches_mpmath_at_degree_255(self, ab):
        degrees = [0, 1, 5, 64, 200, 255]
        c = np.zeros(256)
        c[degrees] = [0.5, -1.0, 0.25, 1e-3, -2e-3, 1.5]
        pts = [-1.0, -0.9999, -0.6, -0.25, 0.0, 0.3, 0.75, 0.9999, 1.0]
        params = jacobi_params(*ab)
        # the banded solve at every point, and jacobi_series (closed form at +-1)
        banded = stacked_series(((params, c),), np.array(pts))[0]
        summed = jacobi_series(params, c, pts)
        with mp.workdps(30):
            al, be = (mp.mpf(x.numerator) / x.denominator for x in ab)
            for t, vals in zip(pts, zip(banded, summed)):
                terms = [c[n] * mp.jacobi(n, al, be, mp.mpf(t), zeroprec=60) for n in degrees]
                ref, scale = float(sum(terms)), float(sum(abs(x) for x in terms))
                for val in vals:
                    assert abs(val - ref) <= 1e-12 * max(1.0, scale), t

    def test_scalar_point_gives_float(self):
        params = jacobi_params(F(3, 2), F(1, 2))
        c = [0.5, -0.25, 0.125, 2.0]
        val = jacobi_series(params, c, 0.3)
        assert isinstance(val, float)
        assert val == pytest.approx(float(jacobi_table(params, 3, 0.3)[0] @ c), rel=1e-14)

    @pytest.mark.parametrize("params", PARAM_GRID, ids=str)
    def test_endpoints(self, params):
        # sum_i c_i P_i(+-1) from the closed-form endpoint values
        c = np.array([1.0, -0.5, 0.25, -0.125, 0.0625])
        for side in (-1, 1):
            ref = sum(ci * float(endpoint_value(i, params, side)) for i, ci in enumerate(c))
            assert jacobi_series(params, c, float(side)) == pytest.approx(ref, rel=1e-14)

    def test_single_coefficient_is_constant(self):
        params = jacobi_params(1, 0)
        assert jacobi_series(params, [2.5], -1.0) == 2.5
        for shape in [(2, 3), (2, 250)]:
            vals = jacobi_series(params, np.array([2.5]), np.zeros(shape))
            assert vals.shape == shape and np.all(vals == 2.5)

    @pytest.mark.parametrize("n", [16, 256])
    def test_banded_split_leaves_each_point_alone(self, n):
        # _BAND_UNKNOWNS splits 93 points into several solves at N = 256
        params = jacobi_params(F(-999, 1000), F(-9, 10))
        c = np.random.default_rng(n).standard_normal(n)
        pts = self.points(93, n)
        one_by_one = [stacked_series(((params, c),), pts[[i]])[0, 0] for i in range(pts.size)]
        assert np.array_equal(stacked_series(((params, c),), pts)[0], one_by_one)

    @pytest.mark.parametrize("count", [1, 3, 93], ids=str)
    @pytest.mark.parametrize("n", [2, 16, 64, 256])
    @pytest.mark.parametrize("ab", [(1, 0), (F(-999, 1000), F(-9, 10))], ids=str)
    def test_stacked_pair_equals_separate_sums(self, ab, n, count):
        # f and f' in one solve, as the root polish sums them; at N = 256 the
        # 93 points split over several solves
        params = jacobi_params(*ab)
        c = np.random.default_rng(n + count).standard_normal(n) * 0.9 ** np.arange(n)
        dparams, dc = derivative_series(params, c)
        pts = self.points(count + 2, n)[1:-1]
        f, df = stacked_series(((params, c), (dparams, dc)), pts)
        assert np.array_equal(f, stacked_series(((params, c),), pts)[0])
        assert np.array_equal(df, stacked_series(((dparams, dc),), pts)[0])

    @pytest.mark.parametrize("shape", [(0,), (0, 3), (2, 0)])
    def test_empty_points_keep_their_shape(self, shape):
        # critical_point_list sums u at its roots, and there may be none
        vals = jacobi_series(jacobi_params(1, 0), [1.0, 2.0, 3.0], np.zeros(shape))
        assert isinstance(vals, np.ndarray) and vals.shape == shape

    @pytest.mark.parametrize("count", [1, 2, 500])
    def test_coefficients_left_unchanged(self, count):
        # the banded solve overwrites its right-hand side in place, so that
        # must never be a view of the caller's coefficients
        c = np.array([1.0, -0.5, 0.25, 0.125])
        jacobi_series(jacobi_params(1, 0), c, np.linspace(-1.0, 1.0, count))
        assert c.tolist() == [1.0, -0.5, 0.25, 0.125]

    def test_no_coefficients_rejected(self):
        with pytest.raises(ParameterError):
            jacobi_series(jacobi_params(1, 0), [], 0.0)

    def test_lapack_failure_raises(self, monkeypatch):
        monkeypatch.setattr(jacobi, "dtbtrs", lambda ab, b, **kw: (b, -2))
        with pytest.raises(NumericalBreakdownError, match="info=-2"):
            jacobi_series(jacobi_params(1, 0), [1.0, 2.0], [0.5])


# rational exponents in (-1, 3], a share of them within 1/1000 of -1
EXPONENTS = st.one_of(
    st.fractions(min_value=F(-999, 1000), max_value=3, max_denominator=1000),
    st.integers(1000, 10**6).map(lambda n: F(1, n) - 1),
)


def _series_gap(alpha, beta, n, seed, pts=None):
    """|banded - table product| / sum_i |c_i P_i| at 40 random points in
    (-1, 1), or at ``pts``, for random coefficients with a random geometric
    decay."""
    params = jacobi_params(alpha, beta)
    rng = np.random.default_rng(seed)
    c = rng.standard_normal(n) * rng.uniform(0.5, 1.0) ** np.arange(n)
    pts = rng.uniform(-1.0, 1.0, 40) if pts is None else np.asarray(pts)
    table = jacobi_table(params, n - 1, pts)
    return np.abs(stacked_series(((params, c),), pts)[0] - table @ c) / (np.abs(table) @ np.abs(c))


@settings(max_examples=60, deadline=None)
@given(alpha=EXPONENTS, beta=EXPONENTS, n=st.integers(8, 256), seed=st.integers(0, 2**32 - 1))
def test_banded_series_matches_table(alpha, beta, n, seed):
    assert np.all(_series_gap(alpha, beta, n, seed) <= 1e-14)


@pytest.mark.xfail(
    strict=True,
    reason="at t = +-1 with exponents near -1, P_i(+-1) ~ (alpha+1)/i is far smaller than "
    "the recurrences' partial sums, so the banded sum and the table lose digits against "
    "sum |c_i P_i(+-1)| (here 1.2e-12 apart); jacobi_series takes +-1 from the closed form",
)
def test_banded_series_matches_table_at_endpoints():
    assert np.all(_series_gap(F(-999, 1000), F(-999, 1000), 72, 1417, [-1.0, 1.0]) <= 1e-14)


@pytest.mark.xfail(
    strict=True,
    reason="inside the interval too, exponents near -1 cost the recurrences digits near "
    "t = -1: these draws of test_banded_series_matches_table put the banded sum and the "
    "table 1.08e-14 (t = -0.99842) and 1.13e-14 (t = -0.99913) of sum |c_i P_i| apart, "
    "above its 1e-14 bound",
)
@pytest.mark.parametrize(
    "exponent, n, seed",
    [(F(-2378, 2379), 50, 4766), (F(-1754, 1755), 41, 222)],
    ids=["1/2379-1", "1/1755-1"],
)
def test_banded_series_matches_table_near_minus_one(exponent, n, seed):
    assert np.all(_series_gap(exponent, exponent, n, seed) <= 1e-14)


# exponents within 1e-6 of -1, where the recurrences lose digits at +-1
NEAR_ONE = [(-1 + 1e-6, -1 + 1e-6), (-1 + 1e-6, 0.5)]


@pytest.mark.parametrize("ab", NEAR_ONE, ids=str)
def test_endpoint_sums_match_mpmath(ab):
    # the closed form P_i(+-1) = (+-1)^i (exponent + 1)_i / i! against the
    # 50-digit hypergeometric mp.jacobi, on the same float exponents
    params = jacobi_params(*ab)
    c = np.random.default_rng(7).standard_normal(256) * 0.98 ** np.arange(256)
    with mp.workdps(50):
        al, be = mp.mpf(ab[0]), mp.mpf(ab[1])
        for side in (-1, 1):
            terms = [mp.mpf(ci) * mp.jacobi(i, al, be, side) for i, ci in enumerate(c)]
            ref, scale = sum(terms), sum(abs(x) for x in terms)
            assert abs(jacobi_series(params, c, float(side)) - ref) <= 1e-13 * scale, side


def chebyshev_sums(params, c, m):
    """sum_i c_i P_i at the m Chebyshev points of _chebyshev_values, as the
    scans of continuation take them: one connection product, one FFT."""
    return _chebyshev_values(chebyshev_connection(params, c.size) @ c, m)


class TestChebyshev:
    """chebyshev_sums (one FFT of the Chebyshev coefficients) against the
    table product, the banded sum and mpmath."""

    @staticmethod
    def check_references(params, c, m):
        # relative to max over the grid of sum_i |c_i P_i(t)|
        pts = -np.cos(np.pi * (np.arange(m) + 0.5) / m)
        table = jacobi_table(params, c.size - 1, pts)
        scale = np.max(np.abs(table) @ np.abs(c))
        vals = chebyshev_sums(params, c, m)
        assert np.max(np.abs(vals - table @ c)) <= 2e-12 * scale
        assert np.max(np.abs(vals - stacked_series(((params, c),), pts)[0])) <= 2e-12 * scale

    @pytest.mark.parametrize("n", [8, 16, 64, 256])
    @pytest.mark.parametrize("ab", TestSeries.PAIRS, ids=str)
    def test_matches_table_and_banded_on_the_scan_grid(self, ab, n):
        # u - 1, u' and u'' as the scans sum them: shifts 0 to 2 of the
        # parameters, n to n - 2 coefficients, at the 8n interior scan points
        rng = np.random.default_rng(n)
        for decay in (0.5, 0.75, 1.0):
            params, c = jacobi_params(*ab), rng.standard_normal(n) * decay ** np.arange(n)
            for _ in range(3):
                self.check_references(params, c, 8 * n)
                params, c = derivative_series(params, c)

    @pytest.mark.parametrize("ab", ORACLE_PAIRS, ids=str)
    def test_matches_mpmath_at_degree_255(self, ab):
        degrees = [0, 1, 5, 64, 200, 255]
        c = np.zeros(256)
        c[degrees] = [0.5, -1.0, 0.25, 1e-3, -2e-3, 1.5]
        m = 8 * 256
        params = jacobi_params(*ab)
        vals = chebyshev_sums(params, c, m)
        # the transform spreads its error over the grid, so the bound is
        # relative to max over the grid of sum_i |c_i P_i(t)|
        pts = -np.cos(np.pi * (np.arange(m) + 0.5) / m)
        scale = np.max(np.abs(jacobi_table(params, 255, pts)) @ np.abs(c))
        with mp.workdps(30):
            al, be = (mp.mpf(x.numerator) / x.denominator for x in ab)
            for j in [0, 1, 300, 1023, 1024, 1500, 2046, 2047]:
                t = -mp.cos(mp.pi * (j + mp.mpf(1) / 2) / m)
                ref = float(sum(c[n] * mp.jacobi(n, al, be, t) for n in degrees))
                assert abs(vals[j] - ref) <= 2e-13 * scale, j

    def test_connection_is_cached_and_read_only(self):
        params = jacobi_params(F(3, 2), F(1, 2))
        conn = chebyshev_connection(params, 16)
        assert conn is chebyshev_connection(jacobi_params(F(3, 2), F(1, 2)), 16)
        assert conn.shape == (16, 16) and not conn.flags.writeable
        with pytest.raises(ValueError):
            conn[0, 0] = 1.0
        # column i holds the Chebyshev coefficients of P_i, of degree i
        assert np.all(np.tril(conn, -1) == 0.0)
        assert np.allclose(conn[:2, 1], [(params.alpha - params.beta) / 2, (params.a + 1) / 2])


@settings(max_examples=60, deadline=None)
@given(
    alpha=EXPONENTS,
    beta=EXPONENTS,
    n=st.integers(8, 256),
    shift=st.integers(0, 2),
    seed=st.integers(0, 2**32 - 1),
)
def test_chebyshev_series_matches_table(alpha, beta, n, shift, seed):
    rng = np.random.default_rng(seed)
    params, c = jacobi_params(alpha, beta), rng.standard_normal(n)
    c *= rng.uniform(0.5, 1.0) ** np.arange(n)
    for _ in range(shift):
        params, c = derivative_series(params, c)
    TestChebyshev.check_references(params, c, 8 * n)


class TestEndpoints:
    def test_pochhammer_values(self):
        p10 = jacobi_params(1, 0)
        assert endpoint_value(2, p10, +1) == F(3)
        assert endpoint_value(2, p10, -1) == F(1)
        assert endpoint_value(3, jacobi_params(0, 0), -1) == F(-1)

    @pytest.mark.parametrize("params", PARAM_GRID, ids=str)
    def test_matches_recurrence(self, params):
        for k in range(31):
            for side in (-1, +1):
                ref = float(endpoint_value(k, params, side))
                assert eval_jacobi(k, params, float(side)) == pytest.approx(ref, rel=1e-12)

    @pytest.mark.parametrize("params", [jacobi_params(1, 0), jacobi_params(1.0, 0.0)], ids=str)
    @pytest.mark.parametrize("side", [1.0, -1.0, np.float64(1), np.float64(-1), np.int64(-1)])
    def test_side_of_any_number_type(self, params, side):
        value = endpoint_value(3, params, side)
        assert type(value) is type(endpoint_value(3, params, int(side)))
        assert value == endpoint_value(3, params, int(side))

    def test_degree_zero_type(self):
        assert type(endpoint_value(0, jacobi_params(1, 0), -1)) is F
        assert type(endpoint_value(0, jacobi_params(1.0, 0.0), +1)) is F

    @pytest.mark.parametrize("params", PARAM_GRID, ids=str)
    def test_sign_pattern(self, params):
        for k in range(31):
            assert endpoint_value(k, params, +1) > 0
            assert endpoint_value(k, params, -1) * endpoint_value(k + 1, params, -1) < 0


class TestExactCoefficients:
    def test_known_low_degrees(self):
        assert exact_coeffs(0, jacobi_params(1, 0)).coeffs == (F(1),)
        assert exact_coeffs(1, jacobi_params(1, 0)).coeffs == (F(1, 2), F(3, 2))
        assert exact_coeffs(2, jacobi_params(0, 0)).coeffs == (F(-1, 2), F(0), F(3, 2))

    def test_float_params_give_the_coefficients_of_their_value(self):
        ref = exact_coeffs(3, jacobi_params(F(1, 2), F(1, 2))).coeffs
        assert exact_coeffs(3, jacobi_params(0.5, 0.5)).coeffs == ref

    @pytest.mark.parametrize("params", PARAM_GRID, ids=str)
    def test_eigen_identity(self, params):
        # L(P_k) = -k(k + alpha + beta + 1) P_k, exactly
        for k in range(16):
            p = exact_coeffs(k, params)
            assert apply_L(p, params).coeffs == _eigen_image(p, k, params).coeffs

    def test_parity_for_symmetric_weight(self):
        for params in (jacobi_params(0, 0), jacobi_params(F(1, 2), F(1, 2))):
            for k in range(13):
                coeffs = exact_coeffs(k, params).coeffs
                assert all(c == 0 for i, c in enumerate(coeffs) if (i - k) % 2 == 1)

    @pytest.mark.parametrize("params", PARAM_GRID, ids=str)
    def test_exact_operator_is_the_three_term_recurrence(self, params):
        _check_three_term_recurrence(params, 12)


def _check_three_term_recurrence(params, m):
    """t P_j = up_j P_{j+1} + mid_j P_j + down_j P_{j-1}, j < m, on the
    monomial oracle, with the exact operator of jacobi_operator."""
    up, mid, down = jacobi.jacobi_operator(m, *params.exact)
    p = [exact_coeffs(j, params).coeffs for j in range(m + 1)]
    for j in range(m):
        # monomial coefficients t^0 .. t^(j+1) of P_{j+1}, P_j and P_{j-1}
        hi, cur, lo = (c + (0,) * (j + 2 - len(c)) for c in (p[j + 1], p[j], p[j - 1] if j else ()))
        rhs = tuple(up[j] * x + mid[j] * y + down[j] * z for x, y, z in zip(hi, cur, lo))
        assert (0,) + p[j] == rhs, j
    assert len(up) == len(mid) == len(down) == m and (m == 0 or down[0] == 0)


@settings(max_examples=100, deadline=None)
@given(alpha=EXPONENTS, beta=EXPONENTS, k=st.integers(0, 32))
def test_integer_oracles_are_exact(alpha, beta, k):
    # exponents down to 1/10^6 above -1, denominators up to 10^6
    params = jacobi_params(alpha, beta)
    p = exact_coeffs(k, params)
    assert p.degree == k and all(type(c) is F for c in p.coeffs)
    assert apply_L(p, params) == _eigen_image(p, k, params)
    _check_three_term_recurrence(params, k)
    for side, base in ((1, alpha), (-1, beta)):
        ref = F(1)  # P_k(side) = prod_{j <= k} side (base + j) / j
        for j in range(1, k + 1):
            ref *= side * (base + j) / j
        value = endpoint_value(k, params, side)
        assert type(value) is F and value == ref


DENOMINATORS = st.integers(1, 10**6)
SCALARS = st.one_of(
    st.integers(-(10**6), 10**6), st.builds(F, st.integers(-(10**6), 10**6), DENOMINATORS)
)


@st.composite
def exact_vectors(draw, n):
    """An ExactVector of length n, numerators not reduced against their
    denominator, and the same rationals as an object array of Fractions."""
    entry = st.one_of(st.just(0), st.integers(-(10**9), 10**9))
    nums = draw(st.lists(entry, min_size=n, max_size=n))
    den = draw(DENOMINATORS)
    return jacobi.ExactVector(nums, den), np.array([F(x, den) for x in nums], dtype=object)


def _same(vec, ref):
    assert len(vec) == len(ref)
    assert all(type(x) is F for x in vec)
    assert list(vec) == list(ref)


class TestExactVector:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), n=st.integers(0, 8), s=SCALARS)
    def test_arithmetic_matches_fraction_arrays(self, data, n, s):
        (v, rv), (w, rw) = data.draw(exact_vectors(n)), data.draw(exact_vectors(n))
        for op in (operator.add, operator.sub, operator.mul):
            _same(op(v, w), op(rv, rw))
            _same(op(v, s), op(rv, s))
        _same(s + v, s + rv)
        _same(s * v, s * rv)
        for a, b, ra, rb in ((v, w, rv, rw), (v, s, rv, s), (s, w, s, rw)):
            try:
                ref = ra / rb
            except ZeroDivisionError:
                with pytest.raises(ZeroDivisionError):
                    a / b
                continue
            out = a / b
            _same(out, ref)
            assert out.den > 0 and math.gcd(out.den, *out.num) == 1

    @settings(max_examples=150, deadline=None)
    @given(
        data=st.data(),
        n=st.integers(1, 8),
        s=SCALARS,
        step=st.sampled_from([None, 1, 2, -1]),
    )
    def test_indexing_and_assignment_match_fraction_arrays(self, data, n, s, step):
        (v, rv), (w, rw) = data.draw(exact_vectors(n)), data.draw(exact_vectors(n))
        i = data.draw(st.integers(-n, n - 1))
        key = slice(data.draw(st.integers(-n, n)), data.draw(st.integers(-n, n)), step)
        assert v[i] == rv[i] and type(v[i]) is F
        _same(v[key], rv[key])
        v[key], rv[key] = w[key], rw[key]
        _same(v, rv)
        v[key], rv[key] = s, s
        _same(v, rv)
        v[i], rv[i] = s, s
        _same(v, rv)
        v[i], rv[i] = w[i], rw[i]
        _same(v, rv)

    def test_refuses_floats_and_mismatched_lengths(self):
        v = jacobi.ExactVector([1, -2, 0], 3)
        for bad in (0.5, np.float64(0.5), np.ones(3)):
            with pytest.raises(TypeError):
                v + bad
            with pytest.raises(TypeError):
                bad * v
            with pytest.raises(TypeError):
                v[0] = bad
        with pytest.raises(ValueError):
            v + jacobi.ExactVector([1, 2])
        with pytest.raises(ValueError):
            v[1:] = jacobi.ExactVector([1, 2, 3])
        with pytest.raises(ValueError):
            v[0] = jacobi.ExactVector([1])


class TestApplyL:
    def test_linear_image(self):
        out = apply_L(exact_poly([0, 1]), jacobi_params(1, 0))
        assert out.coeffs == (F(-1), F(-3))

    def test_constants_in_kernel(self):
        assert apply_L(exact_poly([1]), jacobi_params(F(1, 2), F(1, 2))).coeffs == ()


class TestMoments:
    def test_legendre_moments(self):
        r = rel_weight_moments(jacobi_params(0, 0), 4)
        assert r == (F(1), F(0), F(1, 3), F(0), F(1, 5))

    def test_one_zero_moments(self):
        # m_0 = 2, m_1 = -2/3, m_2 = 2/3 for the weight (1 - t)
        assert rel_weight_moments(jacobi_params(1, 0), 2) == (F(1), F(-1, 3), F(1, 3))

    def test_exact_mass(self):
        assert weight_mass_exact(jacobi_params(0, 0)) == F(2)
        assert weight_mass_exact(jacobi_params(1, 0)) == F(2)
        assert weight_mass_exact(jacobi_params(F(1, 2), F(1, 2))) is None
        assert weight_mass_exact(jacobi_params(1.0, 0.0)) == F(2)
        assert weight_mass(jacobi_params(0, 0)) == pytest.approx(2.0, rel=1e-14)
        # half-integer case: mass is pi/2
        assert weight_mass(jacobi_params(F(1, 2), F(1, 2))) == pytest.approx(
            np.pi / 2.0, rel=1e-14
        )


class TestQuadrature:
    def test_midpoint_rule(self):
        rule = gauss_jacobi_rule(jacobi_params(0, 0), 1)
        assert rule.nodes == pytest.approx([0.0], abs=1e-15)
        assert rule.weights == pytest.approx([2.0], rel=1e-15)

    def test_two_point_legendre(self):
        rule = gauss_jacobi_rule(jacobi_params(0, 0), 2)
        assert rule.nodes == pytest.approx([-(3**-0.5), 3**-0.5], rel=1e-14)
        assert rule.weights == pytest.approx([1.0, 1.0], rel=1e-14)

    @pytest.mark.parametrize("m", [1, 4, 9])
    def test_weight_sum_one_zero(self, m):
        rule = gauss_jacobi_rule(jacobi_params(1, 0), m)
        assert rule.weights.sum() == pytest.approx(2.0, rel=1e-13)

    @pytest.mark.parametrize("params", PARAM_GRID, ids=str)
    @pytest.mark.parametrize("m", [1, 3, 7, 12])
    def test_moment_exactness(self, params, m):
        rule = gauss_jacobi_rule(params, m)
        m0 = weight_mass(params)
        rel = rel_weight_moments(params, 2 * m - 1)
        for j in range(2 * m):
            approx = float(rule.weights @ rule.nodes**j)
            exact = float(rel[j]) * m0
            assert abs(approx - exact) <= 1e-12 * max(abs(exact), m0)

    @pytest.mark.parametrize("params", PARAM_GRID, ids=str)
    def test_against_scipy(self, params):
        rule = gauss_jacobi_rule(params, 12)
        nodes, weights = roots_jacobi(12, params.alpha, params.beta)
        assert rule.nodes == pytest.approx(nodes, abs=1e-13)
        assert rule.weights == pytest.approx(weights, rel=1e-12)

    def test_invalid_order(self):
        with pytest.raises(ParameterError):
            gauss_jacobi_rule(jacobi_params(0, 0), 0)

    @pytest.mark.parametrize(
        "exc, raised",
        [(np.linalg.LinAlgError("stemr did not converge"), NumericalBreakdownError),
         (ValueError("illegal value"), NumericalBreakdownError),
         (MemoryError(), MemoryError)],
        ids=["lapack", "invalid", "memory"],
    )
    def test_eigensolver_failures(self, monkeypatch, exc, raised):
        # a LAPACK failure is a numerical breakdown; running out of memory is not
        def eigh(*args, **kwargs):
            raise exc

        monkeypatch.setattr(jacobi, "eigh_tridiagonal", eigh)
        with pytest.raises(raised):
            gauss_jacobi_rule.__wrapped__(jacobi_params(0, 0), 5)


class TestNorms:
    def test_frozen_values(self):
        assert weighted_norm_sq(0, jacobi_params(0, 0)) == pytest.approx(2.0, rel=1e-14)
        assert weighted_norm_sq(1, jacobi_params(0, 0)) == pytest.approx(2 / 3, rel=1e-13)
        assert weighted_norm_sq(1, jacobi_params(1, 0)) == pytest.approx(1.0, rel=1e-13)

    @pytest.mark.parametrize("params", PARAM_GRID, ids=str)
    def test_quadrature_vs_closed_form(self, params):
        for k in range(31):
            assert weighted_norm_sq(k, params) == pytest.approx(
                norm_sq_closed_form(k, params), rel=1e-12
            )

    @pytest.mark.parametrize("ab", [(F(-1, 2), F(-1, 2)), (F(-3, 5), F(-4, 5))], ids=str)
    def test_closed_form_degree_zero_for_alpha_plus_beta_at_most_minus_one(self, ab):
        # there the log-gamma form of h_0 sits on a pole or takes the wrong sign
        params = jacobi_params(*ab)
        assert norm_sq_closed_form(0, params) == pytest.approx(
            weighted_norm_sq(0, params), rel=1e-13
        )

    def test_exact_relative_norm(self):
        # integer parameters: absolute exact value = relative * rational mass
        for params in (jacobi_params(0, 0), jacobi_params(1, 0)):
            mass = weight_mass_exact(params)
            for k in range(9):
                p = exact_coeffs(k, params)
                exact = integrate_relative(p * p, params) * mass
                assert weighted_norm_sq(k, params) == pytest.approx(float(exact), rel=1e-12)

    @pytest.mark.parametrize("params", PARAM_GRID, ids=str)
    def test_orthogonality(self, params):
        rule = gauss_jacobi_rule(params, 20)
        table = jacobi_table(params, 15, rule.nodes)
        gram = table.T @ (table * rule.weights[:, None])
        h = np.diag(gram)
        off = np.abs(gram - np.diag(h)) / np.sqrt(np.outer(h, h))
        assert np.max(off) < 1e-12


    @pytest.mark.parametrize("ab", ORACLE_PAIRS, ids=str)
    def test_orthogonality_at_large_order(self, ab):
        # the rule size of N = 256 continuation; the smallest weights sit at
        # the outermost nodes, where Golub-Welsch loses relative accuracy
        params = jacobi_params(*ab)
        rule = gauss_jacobi_rule(params, 1536)
        table = jacobi_table(params, 255, rule.nodes)
        gram = table.T @ (table * rule.weights[:, None])
        h = np.array([norm_sq_closed_form(i, params) for i in range(256)])
        diag = np.diag(gram)
        off = np.abs(gram - np.diag(diag)) / np.sqrt(np.outer(h, h))
        assert np.max(off) <= 1e-9
        assert np.max(np.abs(diag / h - 1.0)) <= 2e-12


class TestZeros:
    def test_first_degree(self):
        assert jacobi_zeros(1, jacobi_params(1, 0)) == pytest.approx([-1 / 3], abs=1e-14)
        assert jacobi_zeros(1, jacobi_params(F(1, 2), F(1, 2))) == pytest.approx(
            [0.0], abs=1e-15
        )

    def test_legendre_two(self):
        assert jacobi_zeros(2, jacobi_params(0, 0)) == pytest.approx(
            [-(3**-0.5), 3**-0.5], rel=1e-14
        )

    @pytest.mark.parametrize("params", PARAM_GRID, ids=str)
    @pytest.mark.parametrize("k", [5, 13])
    def test_residual_and_ordering(self, params, k):
        roots = jacobi_zeros(k, params)
        assert roots.size == k
        assert np.all(np.diff(roots) > 0)
        assert roots[0] > -1 and roots[-1] < 1
        dense = np.linspace(-1.0, 1.0, 2001)
        scale = np.max(np.abs(jacobi_table(params, k, dense)[:, k]))
        residuals = np.abs(jacobi_table(params, k, roots)[:, k])
        assert np.max(residuals) < 1e-10 * scale


class TestDerivativeSeries:
    def test_matches_exact_derivative(self):
        params = jacobi_params(F(1, 2), F(1, 2))
        coeffs = np.array([0.0, 0.5, -0.25, 0.125, 0.0625])
        sp, dc = derivative_series(params, coeffs)
        t = np.linspace(-0.95, 0.95, 17)
        got = jacobi_table(sp, dc.size - 1, t) @ dc
        expected = sum(
            c * np.array([float(_exact_deriv(exact_coeffs(i, params))(F(x))) for x in t])
            for i, c in enumerate(coeffs)
        )
        assert got == pytest.approx(expected, abs=1e-13)


def test_integrate_relative_matches_moment_table():
    params = jacobi_params(F(3, 10), F(-7, 10))
    p = exact_poly([F(1, 3), F(-2), F(0), F(5, 7)])
    r = rel_weight_moments(params, 3)
    assert integrate_relative(p, params) == F(1, 3) * r[0] - 2 * r[1] + F(5, 7) * r[3]
