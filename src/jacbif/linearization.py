"""Expansion of P_k^2 back into the Jacobi family, cube integrals, the
sign machinery for the expansion coefficients, and the parameter regimes
(theorem scope, supercritical threshold) that rest on (alpha, beta) alone.

Multiplication by t is tridiagonal in the Jacobi basis, so P_k^2 = P_k(T) e_k
follows from the three-term recurrence on coefficient vectors (Olver and
Townsend 2013), with T the operator ``jacobi.jacobi_operator`` that also
builds the basis tables and the Gauss rules.  The one algorithm runs on float
arrays and, for rational (alpha, beta), on ``jacobi.ExactVector``s (Python-int
numerators over one shared denominator, reduced once per divide).  Monomial
products (``jacobi.ExactPolynomial``, also on ints) and Gauss cube integrals
remain as independent oracles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import ParameterError, StructureViolationError
from .jacobi import (
    JacobiParams,
    exact_coeffs,
    gauss_jacobi_rule,
    integrate_relative,
    jacobi_operator,
    jacobi_table,
    norm_sq_closed_form,
)

__all__ = [
    "LinearizationTable",
    "linearization_coeffs",
    "cube_integral",
    "cube_integral_relative",
    "SignReport",
    "classify",
    "require_theorem_scope",
    "supercritical_threshold",
    "sign_classification",
    "GasperQuartic",
    "gasper_quartic",
    "QuarticStructure",
    "quartic_sign_structure",
]

ZERO_BAND = 1e-12  # floating coefficients within this relative band count as 0
QUARTIC_SAMPLES = 50  # sign checks of the Gasper quartic on each side of its root


@dataclass(frozen=True)
class LinearizationTable:
    """Coefficients C_k^i of P_k^2 = sum_i C_k^i P_i, i = 0 .. 2k.

    ``coeffs`` are floats; ``exact`` holds the same coefficients as Fractions
    when (alpha, beta) are rational.  ``h_k`` is the closed-form squared
    weighted norm of P_k, and ``i3`` = C_k^k * h_k is the cube integral
    int P_k^3 w dt, to which orthogonality collapses it.
    """

    k: int
    params: JacobiParams
    coeffs: np.ndarray
    exact: tuple[Fraction, ...] | None
    h_k: float
    i3: float


def _square_coeffs(k: int, alpha, beta):
    """C_k^0 .. C_k^2k as P_k(T) e_k: a float array for float (alpha, beta),
    an ExactVector for Fractions, the same lines on either.

    T is multiplication by t in the P basis, from ``jacobi.jacobi_operator``.
    P_n(T) e_k follows from the recurrence P_{n+1} = ((T - mid_n) P_n - down_n
    P_{n-1}) / up_n and lives on k - n .. k + n, so 2k + 1 entries hold every
    step exactly.  Exactly, each step is one gcd reduction (the divide by
    up_n).
    """
    size = 2 * k + 1
    up, mid, down = jacobi_operator(size, alpha, beta)

    def times_t(x):
        y = mid * x
        y[1:] += up[:-1] * x[:-1]
        y[:-1] += down[1:] * x[1:]
        return y

    cur = 0 * up  # +0.0 in floats, since every up_j > 0
    cur[k] = 1  # e_k in the scalar type
    prev = 0 * cur
    for n in range(k):
        prev, cur = cur, (times_t(cur) - mid[n] * cur - down[n] * prev) / up[n]
    return cur


def linearization_coeffs(k: int, params: JacobiParams) -> LinearizationTable:
    """The C_k^i of P_k^2 in floats and, for rational parameters, exactly."""
    if k < 0:
        raise ParameterError("negative degree")
    coeffs = _square_coeffs(k, params.alpha, params.beta)
    exact = tuple(_square_coeffs(k, *params.exact)) if params.exact is not None else None
    h_k = norm_sq_closed_form(k, params)
    return LinearizationTable(
        k=k,
        params=params,
        coeffs=coeffs,
        exact=exact,
        h_k=h_k,
        i3=float(coeffs[k] * h_k),
    )


def cube_integral(k: int, params: JacobiParams) -> float:
    """int P_k^3 w dt by Gauss quadrature of sufficient order."""
    if k < 0:
        raise ParameterError("negative degree")
    # the integrand has degree 3k: ceil((3k+1)/2) points plus 2 guard points
    rule = gauss_jacobi_rule(params, (3 * k + 1 + 1) // 2 + 2)
    vals = jacobi_table(params, k, rule.nodes)[:, k]
    return rule.integrate(vals**3)


def cube_integral_relative(k: int, params: JacobiParams) -> Fraction:
    """Exact (int P_k^3 w dt) / m_0; rational for rational parameters."""
    p = exact_coeffs(k, params)
    return integrate_relative(p * p * p, params)


@dataclass(frozen=True)
class SignReport:
    """Observed vs expected sign pattern of the coefficients of ``table``."""

    k: int
    signs: tuple[str, ...]      # each "positive" | "zero" | "negative"
    expected: tuple[str, ...]
    discrepancies: tuple[int, ...]
    table: LinearizationTable

    @property
    def ok(self) -> bool:
        return not self.discrepancies


def classify(values, band=0) -> tuple[str, ...]:
    """The sign label ("zero", "positive" or "negative") of each value; values
    within band * max|values| of 0 count as zero.  Exact values use band = 0."""
    tol = band * max(abs(v) for v in values)
    return tuple(
        "zero" if abs(v) <= tol else ("positive" if v > 0 else "negative") for v in values
    )


def require_theorem_scope(params: JacobiParams) -> None:
    """Raise ParameterError unless alpha >= beta and alpha + beta + 1 > 0, the
    hypotheses of the sign and bifurcation theorems; exact when rational."""
    al, be = params.scalars
    if al < be or al + be + 1 <= 0:
        raise ParameterError(
            f"hypothesis violation: need alpha >= beta and alpha+beta+1 > 0, "
            f"got ({al}, {be})"
        )


def supercritical_threshold(params: JacobiParams):
    """q_f = (alpha + 2) / alpha, or infinity for alpha <= 0.

    The focal submanifold at t = +1 has codimension m = 2 alpha + 2, and
    q_f = (m + 2) / (m - 2).  Exact (a Fraction) when the parameters are
    rational.
    """
    al = params.scalars[0]
    return (al + 2) / al if al > 0 else math.inf


def sign_classification(k: int, params: JacobiParams) -> SignReport:
    """Classify each C_k^i and compare with the expected pattern.

    Under alpha >= beta and alpha + beta + 1 > 0 the expected pattern is:
    alpha == beta  ->  zero for odd i, positive for even i;
    alpha > beta   ->  positive for every i.
    Violations are reported, not raised.
    """
    if k < 1:
        raise ParameterError("degree must be >= 1")
    require_theorem_scope(params)
    table = linearization_coeffs(k, params)
    if table.exact is not None:
        signs = classify(table.exact)
    else:
        signs = classify(table.coeffs, ZERO_BAND)
    if params.is_symmetric:
        expected = tuple(
            "zero" if i % 2 == 1 else "positive" for i in range(2 * k + 1)
        )
    else:
        expected = ("positive",) * (2 * k + 1)
    disc = tuple(i for i, (s, e) in enumerate(zip(signs, expected)) if s != e)
    return SignReport(
        k=k,
        signs=signs,
        expected=expected,
        discrepancies=disc,
        table=table,
    )


# ---------------------------------------------------------------------------
# the degree-4 sign polynomial from Gasper's recurrence analysis


@dataclass(frozen=True)
class GasperQuartic:
    """Q(J), the quartic controlling the sign of the middle recurrence
    coefficient; stored both as the factored difference and expanded
    monomial coefficients (ascending, exact when ``a`` is rational)."""

    k: int
    a: float
    coeffs: tuple          # (c0, c1, c2, c3, c4), Fraction or float
    a_exact: Fraction | None

    def factored(self, J):
        """(J+2)^2 (J+2k+2a+1)(2k-J-1)(2J+a+1) - (J+1)^2 (J+2k+2a)(2k-J)(2J+a+3)."""
        k = self.k
        a = self.a_exact if (self.a_exact is not None and not isinstance(J, float)) else self.a
        return (J + 2) ** 2 * (J + 2 * k + 2 * a + 1) * (2 * k - J - 1) * (2 * J + a + 1) - (
            J + 1
        ) ** 2 * (J + 2 * k + 2 * a) * (2 * k - J) * (2 * J + a + 3)

    def expanded(self, J):
        acc = 0 * J
        for c in reversed(self.coeffs):
            acc = acc * J + (float(c) if isinstance(J, float) else c)
        return acc


def gasper_quartic(k: int, a) -> GasperQuartic:
    """Construct Q(J) for fixed k >= 2 and a = alpha + beta + 1 > 0.

    The expanded coefficients are
        c4 = -6,  c3 = -12(a+2),
        c2 = 8k(k+a) - 6a^2 - 38a - 34,
        c1 = 8k(k+a)(a+2) - 14a^2 - 38a - 20,
        c0 = 4(k+3ka+3a+1)(k-1) + 4ak + 4a^2(3k-2).
    k = 1 is excluded: the recurrence boundary equations settle that case
    directly without the quartic.
    """
    if k < 2:
        raise ParameterError("k too small: the quartic analysis needs k >= 2")
    a_exact = Fraction(a) if isinstance(a, (int, Fraction)) else None
    av = a_exact if a_exact is not None else float(a)
    if not float(av) > 0.0:
        raise ParameterError("need a > 0")
    c4 = -6 * (av**0)  # keeps Fraction type when exact
    c3 = -12 * (av + 2)
    c2 = 8 * k * (k + av) - 6 * av**2 - 38 * av - 34
    c1 = 8 * k * (k + av) * (av + 2) - 14 * av**2 - 38 * av - 20
    c0 = 4 * (k + 3 * k * av + 3 * av + 1) * (k - 1) + 4 * av * k + av**2 * (12 * k - 8)
    gq = GasperQuartic(k=k, a=float(av), coeffs=(c0, c1, c2, c3, c4), a_exact=a_exact)
    if not (c3 < 0 and c1 > 0 and c0 > 0):
        raise StructureViolationError(
            f"quartic coefficient signs out of pattern for k={k}, a={a}"
        )
    return gq


@dataclass(frozen=True)
class QuarticStructure:
    """Verified sign structure of Q: one coefficient sign change, Q(0) > 0,
    positive on (0, x0), negative beyond."""

    x0: float
    q_at_zero: float
    coefficient_sign_changes: int


def quartic_sign_structure(gq: GasperQuartic) -> tuple[float, QuarticStructure]:
    """Locate the unique positive root x0 by bracketing + bisection and verify
    the sign pattern at QUARTIC_SAMPLES points on each side of x0; raises
    StructureViolationError on any failed check."""
    q0 = float(gq.expanded(0.0))
    if not q0 > 0.0:
        raise StructureViolationError(f"Q(0) = {q0} is not positive")
    # coefficient sign sequence (descending degree), zeros skipped
    signs = [c for c in (float(x) for x in reversed(gq.coeffs)) if c != 0.0]
    changes = sum(1 for x, y in zip(signs, signs[1:]) if x * y < 0.0)
    if changes != 1:
        raise StructureViolationError(f"{changes} coefficient sign changes, expected 1")
    hi = 1.0
    while gq.expanded(hi) > 0.0:
        hi *= 2.0
        if hi > 2.0**40:
            raise StructureViolationError("no sign change found while bracketing")
    lo = hi / 2.0 if hi > 1.0 else 0.0
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        if gq.expanded(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    x0 = 0.5 * (lo + hi)
    for i in range(1, QUARTIC_SAMPLES):
        if not gq.expanded(x0 * i / (QUARTIC_SAMPLES + 1)) > 0.0:
            raise StructureViolationError(f"Q not positive inside (0, x0) at sample {i}")
    span = 4.0 * gq.k
    for i in range(1, QUARTIC_SAMPLES + 1):
        if not gq.expanded(x0 + span * i / QUARTIC_SAMPLES) < 0.0:
            raise StructureViolationError(f"Q not negative beyond x0 at sample {i}")
    return x0, QuarticStructure(x0=x0, q_at_zero=q0, coefficient_sign_changes=changes)
