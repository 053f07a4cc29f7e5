import math
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from jacbif import (
    NumericalError,
    ParameterError,
    StructureViolationError,
    cube_integral,
    gasper_quartic,
    gauss_jacobi_rule,
    jacobi_params,
    jacobi_table,
    linearization_coeffs,
    quartic_sign_structure,
    sign_classification,
)
from jacbif.jacobi import exact_coeffs, integrate_relative, weight_mass_exact
from jacbif.linearization import classify

SIGN_GRID = [
    jacobi_params(F(-2, 5), F(-2, 5)),
    jacobi_params(0, 0),
    jacobi_params(F(1, 2), F(1, 2)),
    jacobi_params(F(3, 2), F(3, 2)),
    jacobi_params(1, 0),
    jacobi_params(F(3, 2), F(1, 2)),
    jacobi_params(2, F(-1, 2)),
    jacobi_params(F(3, 10), F(-7, 10)),
]


class TestCoefficients:
    def test_legendre_square_of_p1(self):
        # t^2 = (1/3) P_0 + (2/3) P_2
        table = linearization_coeffs(1, jacobi_params(0, 0))
        assert table.exact == (F(1, 3), F(0), F(2, 3))
        assert table.coeffs == pytest.approx([1 / 3, 0.0, 2 / 3], abs=1e-13)

    def test_degree_zero(self):
        table = linearization_coeffs(0, jacobi_params(F(3, 2), F(1, 2)))
        assert table.exact == (F(1),)

    @pytest.mark.parametrize("alpha", [F(1, 2), F(3, 2), 0])
    def test_middle_coefficient_vanishes_for_odd_k_symmetric(self, alpha):
        table = linearization_coeffs(1, jacobi_params(alpha, alpha))
        assert table.exact[1] == 0

    @pytest.mark.parametrize("params", SIGN_GRID, ids=str)
    def test_float_matches_exact(self, params):
        for k in (1, 4, 9, 12):
            table = linearization_coeffs(k, params)
            exact = np.array([float(c) for c in table.exact])
            scale = np.max(np.abs(exact))
            assert np.max(np.abs(table.coeffs - exact)) < 1e-10 * scale

    def test_float_matches_exact_entrywise(self):
        table = linearization_coeffs(5, jacobi_params(F(3, 2), F(1, 2)))
        exact = [float(c) for c in table.exact]
        assert len(table.coeffs) == 11
        assert np.allclose(table.coeffs, exact, rtol=1e-13, atol=0.0)

    def test_symmetric_odd_entries_are_zero_in_floats(self):
        # mid_j = 0 when alpha == beta, so no odd entry is ever rounded into
        table = linearization_coeffs(4, jacobi_params(F(1, 2), F(1, 2)))
        assert np.all(table.coeffs[1::2] == 0.0) and np.all(table.coeffs[0::2] > 0.0)
        assert all(c == 0 for c in table.exact[1::2])

    @pytest.mark.parametrize("params", SIGN_GRID, ids=str)
    def test_reconstruction(self, params):
        # sum_i C_k^i P_i reproduces P_k^2 in the weighted norm
        for k in (2, 7, 12):
            table = linearization_coeffs(k, params)
            rule = gauss_jacobi_rule(params, 2 * k + 5)
            basis = jacobi_table(params, 2 * k, rule.nodes)
            pk2 = basis[:, k] ** 2
            recon = basis @ table.coeffs
            err = np.sqrt(rule.weights @ (pk2 - recon) ** 2)
            ref = np.sqrt(rule.weights @ pk2**2)
            assert err < 1e-10 * ref

    @pytest.mark.parametrize("params", SIGN_GRID, ids=str)
    def test_cube_collapse(self, params):
        # orthogonality collapses int P_k^3 w to C_k^k h_k; the Gauss cube
        # integral checks it independently
        for k in range(1, 9):
            table = linearization_coeffs(k, params)
            ref = cube_integral(k, params)
            scale = max(abs(table.i3), abs(ref), table.h_k ** 1.5)
            assert abs(table.i3 - ref) < 1e-12 * scale


# rational exponents in (-1, 3], with a share within 1/1000 of -1
EXPONENTS = st.one_of(
    st.fractions(min_value=F(-999, 1000), max_value=3, max_denominator=1000),
    st.integers(1000, 10**6).map(lambda n: F(1, n) - 1),
)


@settings(max_examples=60, deadline=None)
@given(alpha=EXPONENTS, beta=EXPONENTS, k=st.integers(0, 7))
# alpha + beta in {-1, 0}, where the degree-1 recurrence degenerates
@example(alpha=F(-1, 2), beta=F(-1, 2), k=7)
@example(alpha=F(-3, 10), beta=F(-7, 10), k=6)
@example(alpha=F(1, 2), beta=F(-1, 2), k=7)
@example(alpha=F(0), beta=F(0), k=5)
def test_exact_coeffs_match_monomial_oracle(alpha, beta, k):
    params = jacobi_params(alpha, beta)
    p = [exact_coeffs(i, params) for i in range(2 * k + 1)]
    sq = p[k] * p[k]
    oracle = tuple(
        integrate_relative(sq * p[i], params) / integrate_relative(p[i] * p[i], params)
        for i in range(2 * k + 1)
    )
    assert linearization_coeffs(k, params).exact == oracle


class TestCubeIntegral:
    def test_frozen_values(self):
        p00 = jacobi_params(0, 0)
        p10 = jacobi_params(1, 0)
        assert abs(cube_integral(1, p00)) < 1e-15
        assert cube_integral(2, p00) == pytest.approx(4 / 35, rel=1e-12)
        assert cube_integral(1, p10) == pytest.approx(2 / 5, rel=1e-12)
        # exact route: relative integral times rational mass
        def cube_relative(k, params):
            p = exact_coeffs(k, params)
            return integrate_relative(p * p * p, params)

        assert cube_relative(2, p00) * weight_mass_exact(p00) == F(4, 35)
        assert cube_relative(1, p10) * weight_mass_exact(p10) == F(2, 5)
        assert cube_relative(1, p00) == 0


class TestSignClassification:
    def test_odd_k_symmetric(self):
        report = sign_classification(3, jacobi_params(F(1, 2), F(1, 2)))
        assert report.ok
        assert all(report.signs[i] == "zero" for i in (1, 3, 5))
        assert all(report.signs[i] == "positive" for i in (0, 2, 4, 6))

    def test_even_k_symmetric(self):
        report = sign_classification(2, jacobi_params(0, 0))
        assert report.ok
        assert all(report.signs[i] == "positive" for i in (0, 2, 4))

    def test_asymmetric_all_positive(self):
        report = sign_classification(2, jacobi_params(F(3, 2), F(1, 2)))
        assert report.ok
        assert report.signs == ("positive",) * 5

    def test_hypothesis_violation(self):
        with pytest.raises(ParameterError):
            sign_classification(2, jacobi_params(0, 1))
        with pytest.raises(ParameterError):
            sign_classification(2, jacobi_params(F(-3, 5), F(-3, 5)))

    def test_float_params_classify_exactly(self):
        report = sign_classification(2, jacobi_params(0.5, 0.5))
        ref = sign_classification(2, jacobi_params(F(1, 2), F(1, 2)))
        assert report.table.exact == ref.table.exact
        assert report.signs == ref.signs and report.ok

    def test_near_symmetric_float_params_classify_exactly(self):
        # alpha - beta = 2^-50: the float odd entries sit inside the 1e-12
        # band, but alpha > beta, so every exact C_k^i is positive
        al = 0.5 + 2.0**-50
        report = sign_classification(2, jacobi_params(al, 0.5))
        assert report.ok and report.signs == ("positive",) * 5
        assert report.signs == sign_classification(2, jacobi_params(F(al), F(1, 2))).signs

    @pytest.mark.parametrize(
        "values, index",
        [([1.0, math.nan, 1e-20], 1), ([math.nan, 1.0, 1e-20], 0), ([1.0, 2.0, math.nan], 2)],
        ids=["nan-second", "nan-first", "nan-last"],
    )
    @pytest.mark.parametrize("band", [0, 1e-12])
    def test_nan_has_no_sign(self, values, index, band):
        # a NaN read as "negative" once, and as the zero band once it came first
        with pytest.raises(NumericalError, match=f"^value {index} is NaN and has no sign$"):
            classify(values, band)
        with pytest.raises(NumericalError, match=f"^value {index} is NaN"):
            classify(np.array(values), band)
        assert classify([1.0, -2.0, 1e-20], 1e-12) == ("positive", "negative", "zero")

    @pytest.mark.parametrize(
        "values, index, text",
        [
            ([math.inf, 0.0], 0, "inf"),
            ([1.0, -math.inf], 1, "-inf"),
            ([0.0, math.inf, math.nan], 1, "inf"),
        ],
        ids=["inf-first", "minus-inf-second", "inf-before-nan"],
    )
    @pytest.mark.parametrize("band", [0, 1e-12])
    def test_infinity_has_no_sign(self, values, index, text, band):
        # with a band, an infinity widened tol to inf and labelled every value
        # "zero"; without one, the 0.0 after it was reported as NaN
        with pytest.raises(NumericalError, match=f"^value {index} is {text} and has no sign$"):
            classify(values, band)
        with pytest.raises(NumericalError, match=f"^value {index} is {text} "):
            classify(np.array(values), band)

    def test_zero_band_takes_no_max(self):
        # exact values, the band-0 path of every sign classification: one
        # pass over the values, so an iterator is read once and suffices
        assert classify(iter([F(1, 3), F(0), F(-2)])) == ("positive", "zero", "negative")


FLOAT_EXPONENTS = st.floats(min_value=-1.0, max_value=3.0, exclude_min=True)


def _sign_outcome(k, params):
    try:
        report = sign_classification(k, params)
    except ParameterError as exc:
        return str(exc)
    return report.signs, report.discrepancies, report.table.exact


@settings(max_examples=100, deadline=None)
@given(x=FLOAT_EXPONENTS, y=FLOAT_EXPONENTS, k=st.integers(1, 4))
def test_float_exponents_are_their_binary_values(x, y, k):
    p, ref = jacobi_params(x, y), jacobi_params(F(x), F(y))
    assert p == ref and hash(p) == hash(ref)
    for got, want in ((p.alpha, ref.alpha), (p.beta, ref.beta), (p.a, ref.a)):
        assert got.hex() == want.hex()
    assert _sign_outcome(k, p) == _sign_outcome(k, ref)


class TestQuartic:
    def test_value_at_zero(self):
        gq = gasper_quartic(2, 2)
        assert gq.expanded(0) == 164
        assert gq.factored(0) == 164

    def test_exact_identity_factored_vs_expanded(self):
        # degree-4 polynomials agreeing at 10 rational points are identical
        for k in range(2, 9):
            for a in (F(1, 4), F(1), F(2), F(7, 2)):
                gq = gasper_quartic(k, a)
                for j in range(10):
                    assert gq.expanded(F(j)) == gq.factored(F(j))

    def test_leading_coefficients(self):
        for k, a in ((2, 0.7), (5, 3.1)):
            gq = gasper_quartic(k, a)
            assert gq.coeffs[4] == -6
            assert gq.coeffs[3] == pytest.approx(-12 * (a + 2))

    def test_k_one_rejected(self):
        with pytest.raises(ParameterError):
            gasper_quartic(1, 2)
        with pytest.raises(ParameterError):
            gasper_quartic(3, 0)

    @pytest.mark.parametrize("a", [math.nan, math.inf, -math.inf], ids=str)
    def test_nonfinite_a_rejected(self, a):
        with pytest.raises(ParameterError, match="finite"):
            gasper_quartic(3, a)

    @pytest.mark.parametrize("a", [10**400, F(10**401, 7)], ids=["int", "fraction"])
    def test_a_whose_float_overflows_rejected(self, a):
        with pytest.raises(ParameterError, match="finite"):
            gasper_quartic(2, a)

    @pytest.mark.parametrize("a", [F(1, 2), F(2), 0.37])
    def test_sign_structure(self, a):
        gq = gasper_quartic(2, a)
        x0 = quartic_sign_structure(gq)
        assert x0 > 0
        assert gq.expanded(0.0) > 0
        # the root is genuine: the quartic changes sign across x0
        assert gq.expanded(x0 * (1 - 1e-6)) > 0 > gq.expanded(x0 * (1 + 1e-6))

    def test_structure_violation_on_tampered_quartic(self):
        gq = gasper_quartic(2, 2)
        bad = type(gq)(k=gq.k, a=gq.a, coeffs=(-164.0,) + gq.coeffs[1:])
        with pytest.raises(StructureViolationError):
            quartic_sign_structure(bad)
