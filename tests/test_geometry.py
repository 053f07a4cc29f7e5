import math
from fractions import Fraction as F

import pytest

from jacbif import (
    ParameterError,
    jacobi_params,
    params_from_sphere,
    sphere_eigenvalue,
    supercritical_threshold,
)


def test_symmetric_cases():
    for n, d in ((3, 1), (5, 2)):
        assert params_from_sphere(n, d, 0).exact == (F(1, 2), F(1, 2))


def test_asymmetric_case():
    assert params_from_sphere(7, 2, -2).exact == (F(3, 2), F(1, 2))


@pytest.mark.parametrize(
    "n,d,c",
    [(3, 5, 0), (2, 1, 0), (3, 1, 2), (3, 2, -4)],
    ids=["bad-degree", "low-dimension", "positive-c", "nonintegrable"],
)
def test_invalid_inputs(n, d, c):
    with pytest.raises(ParameterError):
        params_from_sphere(n, d, c)


def test_eigenvalues():
    assert sphere_eigenvalue(1, 3, 1) == -3
    assert sphere_eigenvalue(0, 3, 1) == 0
    assert sphere_eigenvalue(2, 5, 2) == -32


@pytest.mark.parametrize(
    "call",
    [
        lambda: sphere_eigenvalue(1.5, 4, 2),  # was -18.0, for an index that does not exist
        lambda: sphere_eigenvalue(True, 4, 2),  # was -10
        lambda: sphere_eigenvalue(-1, 4, 2),
        lambda: sphere_eigenvalue(1, 4.0, 2),
        lambda: params_from_sphere(3.5, 2, 0),  # was a TypeError from Fraction
        lambda: params_from_sphere(5, 2.0, 0),
        lambda: params_from_sphere(5, 2, False),
    ],
    ids=["i=1.5", "i=True", "i=-1", "n=4.0", "n=3.5", "d=2.0", "c=False"],
)
def test_sphere_integers_refuse_anything_but_an_integer(call):
    with pytest.raises(ParameterError, match="must be"):
        call()


def _valid_spheres():
    for n in range(3, 9):
        for d in (1, 2, 3, 4, 6):
            for c in (0, -1, -2, -4):
                try:
                    yield n, d, c, params_from_sphere(n, d, c)
                except ParameterError:
                    continue


def test_derived_parameter_identities():
    for n, d, c, params in _valid_spheres():
        al, be = params.exact
        assert be - al == F(c, 2)
        assert al + be + 2 == F(n + d - 1, d)
        assert al >= be
        assert al + be + 1 > 0


def test_consistency_identity_is_exact_zero():
    # -mu_di / d^2 == i (i + alpha + beta + 1): the sphere spectrum is the
    # interval spectrum scaled by d^2
    for n, d, c, params in _valid_spheres():
        al, be = params.exact
        for i in range(1, 21):
            assert F(-sphere_eigenvalue(i, n, d), d * d) == i * (i + al + be + 1)


# (g, m1, m2) of isoparametric hypersurfaces with g distinct principal
# curvatures of multiplicities m1, m2 (equal for odd g): spheres, Clifford
# products S^m1 x S^m2, Cartan's g = 3 examples, homogeneous and
# Ozeki-Takeuchi / Ferus-Karcher-Muenzner g = 4 examples, and g = 6
REALIZABLE = (
    [(1, m, m) for m in (2, 3, 4, 5, 7)]
    + [(2, m1, m2) for m1, m2 in ((1, 1), (1, 2), (1, 3), (1, 6), (1, 8), (2, 2),
                                  (2, 3), (3, 5), (4, 4), (5, 5))]
    + [(3, m, m) for m in (1, 2, 4, 8)]
    + [(4, m1, m2) for m1, m2 in ((1, 1), (1, 2), (1, 5), (2, 2), (2, 3), (2, 5),
                                  (3, 4), (4, 5), (4, 7), (5, 10), (6, 9), (7, 8),
                                  (8, 15), (9, 6))]
    + [(6, m, m) for m in (1, 2)]
)


@pytest.mark.parametrize("g,m1,m2", REALIZABLE, ids=str)
def test_supercritical_threshold(g, m1, m2):
    # sphere S^n with n - 1 = g (m1 + m2) / 2; the smaller focal submanifold,
    # of dimension m = n - 1 - max(m1, m2), gives (n-m+2)/(n-m-2)
    n = g * (m1 + m2) // 2 + 1
    m = n - 1 - max(m1, m2)
    oracle = math.inf if m == n - 2 else F(n - m + 2, n - m - 2)
    params = params_from_sphere(n, g, -abs(m1 - m2))
    assert supercritical_threshold(params) == oracle
    assert type(supercritical_threshold(params)) is type(oracle)


def test_supercritical_threshold_float_exponent():
    assert supercritical_threshold(jacobi_params(0.5, 0.0)) == 5.0
    assert supercritical_threshold(jacobi_params(0.0, 0.0)) == math.inf
