"""Map isoparametric sphere data (n, d, c) to interval weight exponents.

All arithmetic here is exact rational; floats only appear downstream.  The
supercritical threshold q_f depends on the interval exponents alone and
lives in ``linearization.supercritical_threshold``.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import ParameterError
from .jacobi import JacobiParams, _count, jacobi_params

__all__ = ["VALID_DEGREES", "params_from_sphere", "sphere_eigenvalue"]

VALID_DEGREES = (1, 2, 3, 4, 6)


def params_from_sphere(n: int, d: int, c: int) -> JacobiParams:
    """Interval exponents of sphere dimension n, invariant-hypersurface
    degree d and multiplicity difference c: solve beta - alpha = c/2 and
    alpha + beta + 2 = (n+d-1)/d exactly.

    Requires integers (jacobi._count) n >= 3, d in {1,2,3,4,6} and c <= 0,
    and an integrable weight (beta > -1).  Callers wanting c > 0 swap
    (alpha, beta) themselves.
    """
    n, d, c = _count("n", n, 3), _count("d", d), _count("c", c)
    if d not in VALID_DEGREES:
        raise ParameterError(f"invalid degree d={d}; must be one of {VALID_DEGREES}")
    if c > 0:
        raise ParameterError(f"c={c} > 0; swap the weight exponents instead")
    s = Fraction(n + d - 1, d) - 2  # alpha + beta
    half_c = Fraction(c, 2)
    alpha = (s - half_c) / 2
    beta = (s + half_c) / 2
    if beta <= -1:
        raise ParameterError(
            f"(n={n}, d={d}, c={c}) gives beta={beta} <= -1: weight not integrable"
        )
    return jacobi_params(alpha, beta)


def sphere_eigenvalue(i: int, n: int, d: int) -> int:
    """Laplacian eigenvalue -d*i*(n + d*i - 1) on invariant functions, for
    integers (jacobi._count) i >= 0, n and d."""
    i, n, d = _count("i", i, 0), _count("n", n), _count("d", d)
    return -d * i * (n + d * i - 1)
