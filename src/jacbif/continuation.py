"""Spectral Galerkin discretization of

    (1 - t^2) u'' + (beta - alpha - (alpha+beta+2) t) u' - lambda (u - u^q) = 0

in the Jacobi basis of its own linear part, plus pseudo-arclength branch
tracing and fold localization.

Expanding u = sum c_i P_i makes the linear operator exactly diagonal with
entries -i(i + alpha + beta + 1), so the bifurcation points of the discrete
system coincide with the analytic ones.  The nonlinear term is evaluated
nodally on a Gauss-Jacobi grid and projected back; the singular boundary
conditions are natural for this weak form and are only checked a posteriori
(boundary_residual).

The Jacobian J is self-adjoint in L2_w.  The code forms the symmetric S =
H^(1/2) J H^(-1/2), H = diag(h), as the Gram form diag(lin - lambda) +
lambda q G^T G (_gram_operator), which B^T W B = H makes exact
(Discretization).  sigma_min reads eigvalsh(S) (_sigma_range), and the
bordered systems of the Newton step and the tangent are solved with S in the
unknowns H^(1/2) dc (_bordered_matrix); J = H^(-1/2) S H^(1/2) itself is
formed only for jacobian().

Branch tracing uses a Keller bordered predictor-corrector in the metric
<(dc, dlam), (dc', dlam')> = sum h_i dc_i dc_i' + dlam dlam'.  The phase
solve and the corrector share one bordered Newton kernel.  A sign change of
the lambda component of the unit tangent brackets a fold, and one Newton
solve of the Moore-Spence system {F = 0, J v = 0, <v0, v>_w = 1} localizes
it (_moore_spence), so the kernel direction v comes with the fold.

For alpha == beta, P_i(-t) = (-1)^i P_i(t) on symmetric Gauss nodes, so an
even state keeps the even and odd modes apart.  A state whose odd
coefficients are all exactly 0.0, as on the branch from an even k, is solved
on the even modes only, with nodal sums over the t >= 0 half of the nodes
(Discretization.even).  The public objects keep spec.N coefficients, the odd
ones exact zeros, and sigma_min is still that of the full J (_sigma_range).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .errors import (
    NewtonDivergenceError,
    NoFoldBracketError,
    NonpositiveStateError,
    NumericalBreakdownError,
    NumericalError,
    ParameterError,
    StructureViolationError,
    TangencyError,
)
from .jacobi import (
    JacobiParams,
    QuadratureRule,
    _chebyshev_values,
    _count,
    _endpoint_vector,
    chebyshev_connection,
    derivative_series,
    gauss_jacobi_rule,
    jacobi_series,
    jacobi_table,
    norm_sq_closed_form,
    stacked_series,
)
from .linearization import linearization_coeffs, require_theorem_scope

__all__ = [
    "ProblemSpec",
    "SpectralFunction",
    "BranchPoint",
    "Branch",
    "FoldRecord",
    "ContinuationSettings",
    "discretization",
    "boundary_residual",
    "jacobian",
    "bifurcation_lambda",
    "lambda_prime_zero",
    "solve_at_phase",
    "branch_switch",
    "continue_branch",
    "detect_fold",
    "point_diagnostics",
    "count_crossings",
    "critical_point_list",
    "count_critical_points",
    "endpoint_label",
    "find_degenerate",
]


def default_quadrature_order(n_modes: int) -> int:
    return max(2 * n_modes + 16, 3 * n_modes)


# The largest quadrature order M, for every spec: where the M-point projection
# can be inexact (_projection_is_exact), quad_gap builds the 2M-point level on
# first use (Discretization.refined).  Its rule takes O(M) memory, but its basis
# table B and Q are 2M x N floats each, 32 M N bytes together, so at most
# 16 M^2 (M >= 2N): 256 MiB at this bound (and 0.96 TB at N = 100000, M = 3N).
MAX_QUADRATURE_ORDER = 4096


@dataclass(frozen=True)
class ProblemSpec:
    """Discretization of the interval problem: weight parameters, exponent
    q > 1, number of Jacobi modes N, and quadrature order M >= 2N."""

    params: JacobiParams
    q: float
    N: int = 64
    M: int = 0

    def __post_init__(self):
        if not 1.0 < self.q < math.inf:
            raise ParameterError(f"q={self.q} must be finite and > 1")
        object.__setattr__(self, "N", _count("N", self.N, 8))
        object.__setattr__(self, "M", _count("M", self.M))
        object.__setattr__(self, "q", float(self.q))
        if self.M == 0:
            object.__setattr__(self, "M", default_quadrature_order(self.N))
        if self.M < 2 * self.N:
            raise ParameterError(f"M={self.M} must be >= 2N={2 * self.N}")
        if self.M > MAX_QUADRATURE_ORDER:
            raise ParameterError(
                f"N={self.N}, M={self.M}: M must be <= {MAX_QUADRATURE_ORDER}, so that "
                f"the 2M-point level of the M -> 2M check, built where the M-point "
                f"projection can be inexact, keeps its 2M x N basis table and Q "
                f"within {16 * MAX_QUADRATURE_ORDER ** 2:,} bytes"
            )


@dataclass(frozen=True)
class SpectralFunction:
    """Function on [-1, 1] stored as coefficients in the Jacobi basis."""

    coeffs: np.ndarray
    params: JacobiParams

    def __post_init__(self):
        c = np.array(self.coeffs, dtype=float)
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)

    def __call__(self, t):
        return jacobi_series(self.params, self.coeffs, t)

    @staticmethod
    def constant_one(spec: "ProblemSpec") -> "SpectralFunction":
        c = np.zeros(spec.N)
        c[0] = 1.0
        return SpectralFunction(c, spec.params)


@dataclass(frozen=True)
class BranchPoint:
    """One accepted continuation state with its diagnostics; ``sigma_min`` is
    min |eigenvalue| of J there, its smallest singular value in L2_w, where J
    is self-adjoint; ``crossings`` is the count and ``critical`` the list
    that point_diagnostics(u) returns, the list not serialized beyond its
    length, and ``tangent`` the unit tangent (tau_c, tau_lam) oriented along
    the tracing, not serialized."""

    u: SpectralFunction
    lam: float
    s: float
    residual_norm: float
    sigma_min: float
    crossings: int
    critical: list[tuple[float, str]]
    tangent: tuple[np.ndarray, float]

    @property
    def critical_points(self) -> int:
        return len(self.critical)


@dataclass
class Branch:
    """Ordered accepted points rooted at a bifurcation point."""

    spec: ProblemSpec
    k: int
    direction: int
    points: list[BranchPoint] = field(default_factory=list)
    folds: list["FoldRecord"] = field(default_factory=list)
    termination: str = ""


@dataclass
class FoldRecord:
    """A localized degenerate solution (turning point) with its kernel.

    ``null_direction`` is the kernel direction v of J at ||v||_w = 1, and
    ``moore_spence_residual`` the norm of (F(c, lambda), J v, <v0, v>_w - 1)
    at the root _moore_spence returns, its own stopping test.  ``sigma_ratio``
    is min|eig|/max|eig| of J, the ratio of its extreme singular values in
    L2_w.  Both check the solve at this N, not the fold at another.
    """

    point: BranchPoint
    lambda_star: float
    null_direction: SpectralFunction
    moore_spence_residual: float
    sigma_ratio: float
    branch: Branch | None = None


NEWTON_TOL = 1e-11  # bordered Newton: ||F||_w and the border equation, relative
MAX_ITER = 25  # Newton iterations per solve
DEGENERATE_TOL = 1e-8  # a fold needs min|eig|/max|eig| of J (self-adjoint in L2_w) below this
CERTIFICATE_TOL = 1e-10  # a fold needs its Moore-Spence residual below this
QUAD_CHECK_TOL = 1e-10  # largest relative change of an inexact projection when M doubles
TRANSVERSALITY_REL = 1e-8  # a root needs |f'| above this times max |f'| on the scan grid
FOLD_TRAIL = 3  # points traced past a bracketed fold with stop_on_fold


@dataclass(frozen=True)
class ContinuationSettings:
    ds0: float = 0.01
    ds_min: float = 1e-6
    ds_max: float = 0.05
    max_steps: int = 400
    lambda_floor: float = 1e-4
    lambda_ceiling: float = math.inf
    amplitude_cap: float = 1e3
    stop_on_fold: bool = False

    def __post_init__(self):
        object.__setattr__(self, "max_steps", _count("max_steps", self.max_steps, 1))
        if math.isnan(self.ds0):
            raise ParameterError("ds0 is NaN")
        if not 0.0 < self.ds_min <= self.ds_max:
            raise ParameterError(f"need 0 < ds_min <= ds_max, got {self.ds_min} and {self.ds_max}")
        if not math.isfinite(self.ds_max):
            raise ParameterError(f"ds_max={self.ds_max} must be finite")
        if not self.lambda_floor < self.lambda_ceiling:
            raise ParameterError(f"empty lambda window ({self.lambda_floor}, {self.lambda_ceiling})")
        if not self.amplitude_cap > 0.0:
            raise ParameterError(f"amplitude_cap={self.amplitude_cap} must be > 0")


# ---------------------------------------------------------------------------
# discretization


def _upper_half(rule: QuadratureRule) -> QuadratureRule:
    """The nodes t >= 0 of a rule symmetric about 0.  Every weight is doubled,
    each node standing for its mirror too, except that of t = 0 when the rule
    has odd size."""
    m = rule.nodes.size
    half = m // 2
    weights = 2.0 * rule.weights[half:]
    if m % 2:
        weights[0] = rule.weights[half]
    return QuadratureRule(rule.nodes[half:], weights)


def _projection_is_exact(spec: ProblemSpec, m: int) -> bool:
    """True when the m-point Gauss rule integrates every product that
    residual_coeffs and jacobian project, so the projection is the exact
    Galerkin one.  For integer q, P_i (u - u^q) and P_i (1 - q u^(q-1)) P_j
    are polynomials of degree at most (q + 1)(N - 1), and the rule is exact
    up to degree 2m - 1.  The default M covers every integer q <= 5."""
    return spec.q.is_integer() and (spec.q + 1.0) * (spec.N - 1) <= 2 * m - 1


class Discretization:
    """Precomputed quadrature rule and basis tables for one ProblemSpec at
    ``_m`` nodes: spec.M, or 2M for the refined level of the quad_gap check.
    Immutable after construction, apart from the even view and the refined
    level, each built on first use, and shared freely.

    ``basis`` is B[m, i] = P_i(t_m) at the nodes t_m, and ``orth`` is Q =
    W^(1/2) B H^(-1/2), with W = diag(w) the Gauss weights and H = diag(h);
    ``sqrt_w`` and ``sqrt_h`` hold sqrt(w) and sqrt(h).  B^T W B = H holds in
    exact arithmetic: each entry is a Gauss sum of P_i P_j, a polynomial of
    degree at most 2N - 2 <= 2M - 1 (ProblemSpec enforces M >= 2N), and in a
    parity view P_i P_j is even, so the doubled weights at t >= 0 sum it
    exactly too.  So Q^T Q = I, the Galerkin projection of nodal values f is
    H^(-1/2) Q^T (sqrt(w) f), and H^(1/2) J H^(-1/2) is the symmetric Gram
    form that _gram_operator builds.

    ``exact`` is _projection_is_exact at the node count.  Where it is False,
    so the projection can be inexact (fractional q, or integer q above what
    the nodes cover), ``refined`` is the same discretization at twice the
    nodes, against which quad_gap compares the projection of a state.

    ``modes`` selects the Jacobi modes whose coefficients the discretization
    solves for: all spec.N of them (x[modes] is x), or in a parity view those
    of index ``_parity`` (mod 2), at the t >= 0 half of the nodes; pad maps
    back to spec.N coefficients.  A parity view slices the rule and basis
    table of ``_full``, the full level at the same nodes, where given; the
    refined level of a parity view has no full level, and builds its table
    at the t >= 0 nodes alone.
    ``odd`` is None, or in the even view the odd view on the same nodes."""

    def __init__(self, spec: ProblemSpec, _m=None, _parity=None, _full=None):
        self.spec = spec
        self._m = spec.M if _m is None else _m
        self.exact = _projection_is_exact(spec, self._m)
        self.modes = slice(None) if _parity is None else slice(_parity, None, 2)
        self.odd = None
        p = spec.params
        self.h = np.array([norm_sq_closed_form(i, p) for i in range(spec.N)])[self.modes].copy()
        self.h.setflags(write=False)
        i = np.arange(spec.N, dtype=float)[self.modes]
        self.lin = -i * (i + p.a)
        rule = _full.rule if _full else gauss_jacobi_rule(p, self._m)
        if _parity is not None:
            rule = _upper_half(rule)
        # the table at the rule's nodes: _full's rows there, or built at them
        # alone (each row is computed on its own, so the two are bit-identical)
        rows = _full.basis[-rule.nodes.size :] if _full else jacobi_table(p, spec.N - 1, rule.nodes)
        self.rule, self.basis = rule, np.ascontiguousarray(rows[:, self.modes])
        self.sqrt_w = np.sqrt(rule.weights)
        self.sqrt_h = np.sqrt(self.h)
        self.orth = self.basis * self.sqrt_w[:, None]
        self.orth /= self.sqrt_h

    @cached_property
    def even(self) -> Discretization:
        """The even view, for alpha == beta (see the module docstring): the
        even modes at the t >= 0 half of the nodes, sliced from this
        discretization's rule and basis table, with the odd view as ``odd``."""
        if not self.spec.params.is_symmetric:
            raise ParameterError(f"no even view: {self.spec.params} has alpha != beta")
        even = Discretization(self.spec, self._m, 0, self)
        even.odd = Discretization(self.spec, self._m, 1, self)
        return even

    @cached_property
    def refined(self) -> Discretization:
        """This discretization at twice the nodes (a parity view: that view of it)."""
        return Discretization(self.spec, 2 * self._m, self.modes.start)

    def pad(self, x: np.ndarray) -> np.ndarray:
        """x on this discretization's modes as spec.N coefficients, 0.0 elsewhere."""
        out = np.zeros(self.spec.N)
        out[self.modes] = x
        return out

    def w_norm(self, c: np.ndarray) -> float:
        """Weighted L2 norm of the coefficients c, exact by orthogonality."""
        return math.sqrt(float(self.h @ (c * c)))

    def residual_coeffs(self, c: np.ndarray, lam: float) -> np.ndarray:
        return _StateEvaluation(self, c).residual(lam)

    def jacobian(self, c: np.ndarray, lam: float) -> np.ndarray:
        """J = H^(-1/2) S H^(1/2) at the state c and lambda (_gram_operator)."""
        return _StateEvaluation(self, c).operator(lam) * (self.sqrt_h / self.sqrt_h[:, None])

    def dresidual_dlambda(self, c: np.ndarray) -> np.ndarray:
        return -_StateEvaluation(self, c).projection

    def quad_gap(self, ev: _StateEvaluation) -> float:
        """Relative change of the nonlinear projection of ``ev``, an evaluation
        of this discretization, when the nodes double.  It is a method of
        Discretization, not of the evaluation, because perfbench traces it here.

        Where the projection is exact (_projection_is_exact: integer q with
        (q + 1)(N - 1) <= 2M - 1, so every projected product is a polynomial of
        at most that degree), doubling M changes it by roundoff only, so the
        gap is 0.0 and ``refined`` is not built.  Otherwise it is taken against
        the evaluation of ev.c on ``refined``, which checks u > 0 at the 2M
        nodes (the t >= 0 half of them in the even view), finer than the M
        nodes that ``ev`` has checked.  _check_quadrature runs it on every
        reported state, before _make_points checks u > 0 on the 8N+2 scan grid
        (point_diagnostics)."""
        if ev.disc is not self:
            raise ParameterError("quad_gap: the evaluation belongs to another discretization")
        if self.exact:
            return 0.0
        p2 = _StateEvaluation(self.refined, ev.c).projection
        return self.w_norm(ev.projection - p2) / (1.0 + self.w_norm(p2))


class _StateEvaluation:
    """The nonlinear term at one state c, evaluated once and shared by the
    residual, its lambda derivative and the Jacobian there.  ``vals`` is u at
    the M nodes, checked > 0 on construction, and ``projection`` P =
    H^(-1/2) Q^T (sqrt(w) (u - u^q)), formed on first use: the residual is
    lin c - lambda P and F_lambda is -P."""

    def __init__(self, disc: Discretization, c: np.ndarray):
        self.disc = disc
        self.c = c
        self.vals = disc.basis @ c
        if not self.vals.min() > 0.0:
            raise NonpositiveStateError(
                f"state reaches min {self.vals.min():.3e} at a quadrature node"
            )

    @cached_property
    def projection(self) -> np.ndarray:
        disc = self.disc
        return disc.orth.T @ (disc.sqrt_w * (self.vals - self.vals**disc.spec.q)) / disc.sqrt_h

    def residual(self, lam: float) -> np.ndarray:
        return self.disc.lin * self.c - lam * self.projection

    def operator(self, lam: float) -> np.ndarray:
        """S at lambda (_gram_operator)."""
        return _gram_operator(self.disc, self.vals, lam)


def _gram_operator(disc: Discretization, vals: np.ndarray, lam: float) -> np.ndarray:
    """S = H^(1/2) J H^(-1/2) = diag(lin - lambda) + lambda q G^T G, with G =
    diag(u^((q-1)/2)) Q, where u takes the values ``vals`` (> 0) at the nodes
    of ``disc``.  J = diag(lin) - lambda H^(-1) B^T W diag(1 - q u^(q-1)) B,
    and B^T W B = H (see Discretization), so S is this Gram form, formed by
    one symmetric product (BLAS syrk) and symmetric bit for bit."""
    q = disc.spec.q
    g = disc.orth * (vals ** (0.5 * (q - 1.0)))[:, None]
    mat = g.T @ g
    mat *= lam * q
    mat.flat[:: mat.shape[0] + 1] += disc.lin - lam
    return mat


@lru_cache(maxsize=None)
def discretization(spec: ProblemSpec) -> Discretization:
    return Discretization(spec)


def _state_discretization(spec: ProblemSpec, c: np.ndarray) -> Discretization:
    """The discretization that solves from the state c (spec.N coefficients):
    the even view of discretization(spec) (Discretization.even) where alpha ==
    beta and every odd coefficient of c is 0.0, as on the branch from an even
    k, else discretization(spec) itself."""
    disc = discretization(spec)
    if spec.params.is_symmetric and not c[1::2].any():
        return disc.even
    return disc


# ---------------------------------------------------------------------------
# basic operations


def _require_state_of(spec: ProblemSpec, u: SpectralFunction, what: str) -> None:
    """ParameterError unless u has spec.N coefficients in the basis of spec.params."""
    if u.coeffs.size != spec.N:
        raise ParameterError(f"{what} has {u.coeffs.size} coefficients, spec wants {spec.N}")
    if u.params != spec.params:
        raise ParameterError(f"{what} has parameters {u.params}, spec has {spec.params}")


def jacobian(u: SpectralFunction, lam: float, spec: ProblemSpec) -> np.ndarray:
    """State Jacobian J = diag(-i(i+a)) - lambda H^(-1) B^T W diag(1 - q
    u^(q-1)) B of a state u of spec (spec.N coefficients in the basis of
    spec.params), with B the basis at the M Gauss nodes and W their weights.
    As B^T W B = H exactly (Gauss sums of degree 2N - 2 <= 2M - 1; see
    Discretization), it is formed as H^(-1/2) S H^(1/2) from the symmetric
    Gram form S = diag(-i(i+a) - lambda) + lambda q G^T G of _gram_operator."""
    _require_state_of(spec, u, "state")
    return discretization(spec).jacobian(u.coeffs, lam)


def boundary_residual(u: SpectralFunction, lam: float, spec: ProblemSpec) -> tuple[float, float]:
    """Pointwise residuals of the natural boundary relations at -1 and +1:

        (2 beta + 2) u'(-1) - lambda (u(-1) - u(-1)^q)
       -(2 alpha + 2) u'(+1) - lambda (u(+1) - u(+1)^q)

    Small for converged smooth solutions; not imposed by the solver.  u must
    be a state of spec (spec.N coefficients in the basis of spec.params).
    """
    _require_state_of(spec, u, "state")
    p = spec.params
    ends = np.array([-1.0, 1.0])
    uv = u(ends)
    if not uv.min() > 0.0:
        raise NonpositiveStateError("state nonpositive at an endpoint")
    du = jacobi_series(*derivative_series(u.params, u.coeffs), ends)
    g = uv - uv**spec.q
    b_minus = (2.0 * p.beta + 2.0) * du[0] - lam * g[0]
    b_plus = -(2.0 * p.alpha + 2.0) * du[1] - lam * g[1]
    return float(b_minus), float(b_plus)


def bifurcation_lambda(k, a, q):
    """lambda_k = k(k + a) / (q - 1) with a = alpha + beta + 1; exact for
    Fraction arguments."""
    return k * (k + a) / (q - 1)


@lru_cache(maxsize=None, typed=True)
def lambda_prime_zero(k: int, spec: ProblemSpec) -> float:
    """Branch slope at the bifurcation point:

        dlambda/ds(0) = -q lambda_k (int P_k^3 w) / (2 int P_k^2 w) = -q lambda_k C_k^k / 2,

    with C_k^k the exact middle coefficient of P_k^2 = sum_i C_k^i P_i.  Zero
    exactly when alpha == beta and k is odd; negative in the other in-scope
    cases.  Cached: find_degenerate, solve_at_phase and branch_switch each
    read it for the same (k, spec).  The cache is typed, so a float or bool k
    never reads the entry of its int twin and always reaches the check.
    """
    k = _count("k", k, 1)
    require_theorem_scope(spec.params)
    lam_k = bifurcation_lambda(k, spec.params.a, spec.q)
    c_kk = linearization_coeffs(k, spec.params).exact[k]
    return -spec.q * lam_k * float(c_kk) / 2.0


# ---------------------------------------------------------------------------
# crossing / critical-point counting


@lru_cache(maxsize=None)
def _scan_grid(n_modes: int) -> np.ndarray:
    """The 8N+2 scan points: +-1 and 8N Chebyshev points between (read-only)."""
    m = 8 * n_modes
    i = np.arange(m, dtype=float)
    interior = -np.cos(np.pi * (i + 0.5) / m)
    grid = np.concatenate(([-1.0], interior, [1.0]))
    grid.setflags(write=False)
    return grid


def _chebyshev_derivative(a: np.ndarray) -> np.ndarray:
    """Chebyshev coefficients of d/dt sum_k a[..., k] T_k, row by row, as
    many as a has (the last 0): b_(k-1) = b_(k+1) + 2k a_k from the top, and
    b_0 halved.  Each parity class of k is one cumulative sum over the row."""
    n = a.shape[-1]
    w = 2.0 * np.arange(n) * a
    tail = np.empty_like(w)  # tail_k = w_k + w_(k+2) + ...
    for top in range(max(n - 2, 0), n):
        tail[..., top::-2] = np.cumsum(w[..., top::-2], axis=-1)
    b = np.zeros_like(a)
    b[..., :-1] = tail[..., 1:]
    b[..., 0] *= 0.5
    return b


def _scans(params: JacobiParams, minus_one: np.ndarray) -> tuple[list, np.ndarray]:
    """(series, scans) for the states whose u - 1 has the Jacobi coefficients
    ``minus_one``, a row per state.  ``series`` holds u - 1, u' and u'' as
    (params, coefficient rows) in their own Jacobi bases (derivative_series),
    and ``scans`` their values on _scan_grid(n) (shape (3, states, 8n + 2)):
    at +-1 the closed forms (_endpoint_vector), and between, one real
    inverse FFT of all 3 x states rows (_chebyshev_values) of the Chebyshev
    coefficients, u - 1 by one product with chebyshev_connection per state
    and u' and u'' by Chebyshev differentiation."""
    n = minus_one.shape[1]
    conn = chebyshev_connection(params, n)
    cheb = np.empty((3,) + minus_one.shape)
    for i, c in enumerate(minus_one):
        cheb[0, i] = conn @ c  # row by row: a matrix product would round by block size
    cheb[1] = _chebyshev_derivative(cheb[0])
    cheb[2] = _chebyshev_derivative(cheb[1])
    scans = np.empty((3, len(minus_one), 8 * n + 2))
    scans[:, :, 1:-1] = _chebyshev_values(cheb, 8 * n)
    series = [(params, minus_one)]
    series += [derivative_series(*series[0])]
    series += [derivative_series(*series[1])]
    for scan, (basis, rows) in zip(scans, series):
        for col, side in ((0, -1), (-1, 1)):
            scan[:, col] = (rows * _endpoint_vector(basis, rows.shape[1], side)).sum(1)
    return series, scans


def _is_constant(c: np.ndarray) -> bool:
    """True when the coefficients past c_0 vanish to roundoff."""
    tail = float(np.max(np.abs(c[1:]))) if c.size > 1 else 0.0
    return tail <= 1e-13 * (1.0 + abs(float(c[0])))


def _diagnose(params: JacobiParams, rows: np.ndarray) -> list:
    """point_diagnostics of each state sum_i rows[b, i] P_i of a block, from
    numpy calls the block shares.  For each state it gives (crossings,
    critical, slopes), slopes the |f'| of each root in the lists
    [crossings, critical points], or the error the state raises.  A state's
    outcome is the same, bit for bit, alone or in any block."""
    out: list = [None] * len(rows)
    live = []  # indices of the states that are scanned
    for state, c in enumerate(rows):
        if not np.all(np.isfinite(c)):
            why = "states with non-finite coefficients"
        elif _is_constant(c):
            why = "(numerically) constant states"
        else:
            live.append(state)
            continue
        out[state] = ParameterError(f"count is undefined for {why}")
    if not live:
        return out
    minus_one = rows[live]
    minus_one[:, 0] -= 1.0
    series, scans = _scans(params, minus_one)  # u - 1, u', u''
    positive = scans[0].min(axis=1) > -1.0
    grid = _scan_grid(minus_one.shape[1])
    a, b = scans[:2, :, :-1], scans[:2, :, 1:]
    cell = a * b < 0.0
    bracketed = (cell | ((a == 0.0) & (grid[:-1] > -1.0))) & positive[:, None]
    roots = [([], []) for _ in live]  # per state and series
    slopes = [([], []) for _ in live]
    iterates = []  # [state, series, root, lo, hi, f(lo) > 0, t, last two step lengths]
    for d, i, j in zip(*(ax.tolist() for ax in np.nonzero(bracketed))):
        lo, hi = float(grid[j]), float(grid[j + 1] if cell[d, i, j] else grid[j])
        k = len(roots[i][d])
        positive_lo = bool(a[d, i, j] > 0.0)
        iterates.append([i, d, k, lo, hi, positive_lo, 0.5 * (lo + hi), hi - lo, hi - lo])
        roots[i][d].append(0.0)
        slopes[i][d].append(0.0)
    tiny = 2.0 * np.finfo(float).eps
    while iterates:
        first = min(it[1] for it in iterates)
        owners = [it[0] for it in iterates]
        points = np.array([it[6] for it in iterates])
        span = range(first, max(it[1] for it in iterates) + 2)
        sums = stacked_series([(series[e][0], series[e][1][owners]) for e in span], points)
        still = []
        for it, s in zip(iterates, sums.T.tolist()):
            i, d, k, lo, hi, positive_lo, x, last, before_last = it
            f, df = s[d - first], s[d - first + 1]
            newton = f / df if df else math.inf  # f / 0 fails the tests below, as inf does
            roots[i][d][k], slopes[i][d][k] = x, abs(df)
            if f == 0.0 or abs(newton) <= tiny * max(1.0, abs(x)):
                continue
            lo, hi = (x, hi) if (f > 0.0) == positive_lo else (lo, x)
            mid = 0.5 * (lo + hi)
            guess = x - newton
            if lo < guess < hi and abs(newton) <= 0.5 * before_last:
                before_last, last, x = last, abs(newton), guess
            else:
                before_last, last, x = last, 0.5 * (hi - lo), mid
            if hi - lo < 1e-14:
                roots[i][d][k] = mid
            else:
                still.append([i, d, k, lo, hi, positive_lo, x, last, before_last])
        iterates = still
    scale = TRANSVERSALITY_REL * np.abs(scans[1:]).max(axis=2)  # per series and state
    labelled = []
    for i, state in enumerate(live):
        if not positive[i]:
            out[state] = NonpositiveStateError("state nonpositive on the scan grid")
            continue
        for d, what in enumerate(("crossing", "critical point")):
            bad = [k for k, slope in enumerate(slopes[i][d]) if slope <= scale[d, i]]
            if bad:
                t, slope = roots[i][d][bad[0]], slopes[i][d][bad[0]]
                msg = f"{what} at t={t:.6f} is nearly degenerate (|slope|={slope:.2e})"
                out[state] = TangencyError(msg, t=t, slope=slope)
                break
        else:
            labelled.append(i)
    at = [(i, t) for i in labelled for t in roots[i][1]]
    below = iter([])
    if at:  # the sign of u - 1 at every critical point, from one more solve
        owners, points = zip(*at)
        below = iter(stacked_series([(params, minus_one[list(owners)])], np.array(points))[0] < 0.0)
    for i in labelled:
        critical = [(t, "min" if next(below) else "max") for t in roots[i][1]]
        out[live[i]] = (roots[i][0], critical, slopes[i])
    return out


def point_diagnostics(u: SpectralFunction) -> tuple[list[float], list[tuple[float, str]]]:
    """(crossings, critical) of the state u from one pass: the roots of
    u = 1 in (-1, 1), and the roots of u' there as (t, 'min') where u < 1,
    (t, 'max') where u > 1, each in increasing order.  count_crossings,
    critical_point_list and count_critical_points are views.  It is the
    one-state view of _diagnose, which continue_branch runs on blocks of
    states, with the same outcome for each.

    A state with non-finite coefficients, or a (numerically) constant one,
    is a ParameterError.  u - 1 (the 1 taken off c_0, P_0 = 1, so a small
    u - 1 keeps its relative accuracy) goes to Chebyshev coefficients by one
    product with chebyshev_connection, and u' and u'' follow by Chebyshev
    differentiation.  All three are summed on the 8N+2 points of
    _scan_grid: at t = +-1 by the closed forms of the Jacobi series, between
    by one FFT (_scans).  Unless u - 1 > -1 at each point,
    NonpositiveStateError.  u' is the critical-point sign scan and, with u'',
    the scale of the roots' slopes.

    A grid node where a series is exactly 0 is a root, and a grid cell where
    it changes sign brackets one.  All brackets are polished together by
    safeguarded Newton (rtsafe, Press et al., Numerical Recipes, 9.4), from
    their midpoints.  Each round sums the series the live iterates need, at
    all of them, by one stacked banded solve of their Jacobi series
    (stacked_series, every point with the coefficients of its own state),
    whose blocks do not couple; each iterate reads its series and that
    series' derivative and is updated on its own, in Python floats.  It
    stops at an exact zero of f or when |f / f'| <= 2 eps max(1, |t|),
    tested before the bracket is updated from the sign of f, since at
    convergence that sign is roundoff.  Otherwise the step is Newton's
    unless it leaves the bracket or fails to halve the step before last, and
    bisection then; a bracket narrower than 1e-14 stops at its midpoint.  A
    node root is a bracket of width 0, read once.  Each root must be
    transversal, |f'| from its last round > TRANSVERSALITY_REL * max |f'|
    over the grid; otherwise TangencyError names the first offending
    crossing, or else critical point.  A critical point is labelled 'min'
    where (u - 1)(t) < 0, from one more stacked solve.
    """
    found = _diagnose(u.params, u.coeffs[None, :])[0]
    if isinstance(found, Exception):
        raise found
    return found[0], found[1]


def count_crossings(u: SpectralFunction) -> int:
    return len(point_diagnostics(u)[0])


def critical_point_list(u: SpectralFunction) -> list[tuple[float, str]]:
    return point_diagnostics(u)[1]


def count_critical_points(u: SpectralFunction) -> int:
    return len(point_diagnostics(u)[1])


def endpoint_label(u: SpectralFunction, side: int) -> str:
    """'max' when u(side) > 1 else 'min' (endpoint extremum type along the
    interval, as forced by the natural boundary relations), for side in
    {-1, +1}."""
    if side not in (-1, 1):
        raise ParameterError("side must be -1 or +1")
    return "max" if u(float(side)) > 1.0 else "min"


# ---------------------------------------------------------------------------
# branch construction


def _sigma_range(ev: _StateEvaluation, sym: np.ndarray, lam: float) -> tuple[float, float]:
    """(sigma_min, sigma_max) of the full J at the state of ``ev`` and lambda,
    as an operator on L2_w, where it is self-adjoint: min and max |eigenvalue|
    of J, read by eigvalsh from ``sym``, the symmetric S = H^(1/2) J H^(-1/2)
    on the modes of ev.disc.  _gram_operator forms S as a Gram form, exact as
    B^T W B = H (Gauss sums of degree 2N - 2 <= 2M - 1, of even polynomials in
    a parity view; see Discretization).  In the even view ``sym`` is the even
    block, the even-odd blocks vanish, and the odd block's S is formed from
    the same nodal values on the odd view; the range is over both blocks."""
    eig = [np.linalg.eigvalsh(sym)]
    if ev.disc.odd is not None:
        eig.append(np.linalg.eigvalsh(_gram_operator(ev.disc.odd, ev.vals, lam)))
    eig = np.abs(np.concatenate(eig))
    return float(eig.min()), float(eig.max())


def _check_quadrature(ev: _StateEvaluation) -> None:
    """The M -> 2M check of every reported state: quad_gap, which raises
    NonpositiveStateError where u is not positive at the 2M nodes, and a
    NumericalBreakdownError where the gap exceeds QUAD_CHECK_TOL."""
    gap = ev.disc.quad_gap(ev)
    if gap > QUAD_CHECK_TOL:
        raise NumericalBreakdownError(
            f"quadrature convergence check failed (gap={gap:.2e}); increase M"
        )


def _make_points(states: list, points: list) -> None:
    """The diagnostics of every reported state, for a block of states
    (ev, lam, s, smin, tangent) of one discretization that have passed
    _check_quadrature: point_diagnostics of all of them as one block
    (_diagnose).  ``smin`` is sigma_min of J at the state (_sigma_range) and
    ``tangent`` its unit tangent (tau_c, tau_lam) on the modes of ev.disc.

    Appends to ``points`` the points of the states before the first refused
    one, then raises that state's error: what _make_point on each state in
    turn would do.  A point holds c and tau_c padded to spec.N coefficients
    (Discretization.pad)."""
    disc = states[0][0].disc
    params = disc.spec.params
    # the arrays that the points keep are allocated before the block's scan
    # temporaries, so that these leave no holes around them when freed
    us = [SpectralFunction(disc.pad(ev.c), params) for ev, *_ in states]
    taus = [disc.pad(tangent[0]) for *_, tangent in states]
    found = _diagnose(params, np.array([u.coeffs for u in us]))
    for (ev, lam, s, smin, tangent), u, tau_c, diagnosed in zip(states, us, taus, found):
        if isinstance(diagnosed, Exception):
            raise diagnosed
        points.append(
            BranchPoint(
                u=u,
                lam=float(lam),
                s=float(s),
                residual_norm=disc.w_norm(ev.residual(lam)),
                sigma_min=smin,
                crossings=len(diagnosed[0]),
                critical=diagnosed[1],
                tangent=(tau_c, tangent[1]),
            )
        )


def _make_point(
    ev: _StateEvaluation, lam: float, s: float, smin: float, tangent: tuple
) -> BranchPoint:
    """The point (c, lam) of ``ev`` with its diagnostics: _check_quadrature,
    then _make_points on a block of one."""
    _check_quadrature(ev)
    points = []
    _make_points([(ev, lam, s, smin, tangent)], points)
    return points[0]


def _bordered_matrix(
    ev: _StateEvaluation, sym: np.ndarray, border: np.ndarray, border_lam: float
) -> np.ndarray:
    """[[J, F_lambda], [border, border_lam]] at the state of ``ev``, in the
    unknowns (H^(1/2) dc, dlambda) and with its first rows scaled by H^(1/2):
    [[S, H^(1/2) F_lambda], [border H^(-1/2), border_lam]], S = ``sym``
    (_gram_operator).  The diagonal scaling costs O(N), where forming J from
    S would cost O(N^2); a solve of it gives H^(1/2) dc."""
    sqh = ev.disc.sqrt_h
    n = sqh.size
    a_mat = np.empty((n + 1, n + 1))
    a_mat[:n, :n] = sym
    a_mat[:n, n] = -sqh * ev.projection
    a_mat[n, :n] = border / sqh
    a_mat[n, n] = border_lam
    return a_mat


def _bordered_newton(
    disc: Discretization,
    c: np.ndarray,
    lam: float,
    border: np.ndarray,
    border_lam: float,
    target: float,
    origin: tuple[np.ndarray, float] = (0.0, 0.0),
) -> tuple[_StateEvaluation, float, int]:
    """Newton iteration for {F(c, lambda) = 0, <border, c - c0> +
    border_lam (lambda - lam0) = target} from the guess (c, lambda), where
    (c0, lam0) is ``origin``.

    Converged when ||F||_w < NEWTON_TOL (1 + ||c||_w) and the border equation
    holds to NEWTON_TOL (1 + |target|).  Returns (evaluation, lambda,
    iterations): the evaluation of the converged c (its ``c``), and the
    iterations counting the residual checks including the converged one.
    """
    n = c.size
    c0, lam0 = origin
    for it in range(1, MAX_ITER + 1):
        ev = _StateEvaluation(disc, c)
        r = ev.residual(lam)
        g = float(border @ (c - c0)) + border_lam * (lam - lam0) - target
        converged = disc.w_norm(r) < NEWTON_TOL * (1.0 + disc.w_norm(c))
        if converged and abs(g) < NEWTON_TOL * (1.0 + abs(target)):
            return ev, lam, it
        a_mat = _bordered_matrix(ev, ev.operator(lam), border, border_lam)
        delta = np.linalg.solve(a_mat, np.append(-disc.sqrt_h * r, -g))
        c = c + delta[:n] / disc.sqrt_h
        lam = lam + delta[n]
    raise NewtonDivergenceError(f"bordered Newton did not converge in {MAX_ITER} iterations")


def solve_at_phase(
    k: int,
    spec: ProblemSpec,
    sigma: float,
    guess: tuple[np.ndarray, float] | None = None,
) -> tuple[np.ndarray, float]:
    """Newton solve of {residual = 0, <u - 1, P_k>_w = sigma * sqrt(h_k)}.

    The phase condition pins c_k = sigma / sqrt(h_k) through the border e_k
    of the Newton kernel.  Seeded from the tangent predictor
    u = 1 + sigma * P_k / ||P_k||_w unless a guess (c, lambda) is supplied.
    A non-finite sigma, or a guess that is not N finite coefficients and a
    finite lambda, is a ParameterError.
    """
    k = _count("k", k)
    if not 1 <= k < spec.N:
        raise ParameterError(f"k={k} must lie in [1, N) = [1, {spec.N})")
    if not math.isfinite(sigma):
        raise ParameterError(f"sigma={sigma} must be finite")
    sqh = math.sqrt(discretization(spec).h[k])
    ck = sigma / sqh
    if guess is not None:
        c = np.array(guess[0], dtype=float)
        lam = float(guess[1])
        if c.shape != (spec.N,):
            raise ParameterError(f"guess coefficients have shape {c.shape}, spec wants ({spec.N},)")
        if not (np.all(np.isfinite(c)) and math.isfinite(lam)):
            raise ParameterError("guess coefficients and lambda must be finite")
    else:
        c = np.zeros(spec.N)
        c[0] = 1.0
        lam = bifurcation_lambda(k, spec.params.a, spec.q) + sigma * lambda_prime_zero(
            k, spec
        ) / sqh
    c[k] = ck
    disc = _state_discretization(spec, c)
    e_k = (np.arange(spec.N)[disc.modes] == k).astype(float)
    ev, lam, _ = _bordered_newton(disc, c[disc.modes], lam, e_k, 0.0, ck)
    return disc.pad(ev.c), lam


def branch_switch(
    k: int,
    spec: ProblemSpec,
    s0: float,
    direction: int,
) -> BranchPoint:
    """First nontrivial point on the branch through (1, lambda_k), at signed
    tangent amplitude sigma = direction * s0, accepted by _make_point."""
    require_theorem_scope(spec.params)
    if direction not in (-1, 1):
        raise ParameterError("direction must be +1 or -1")
    if not 0.0 < s0 <= 0.05:
        raise ParameterError("s0 must lie in (0, 0.05]")
    k = _count("k", k)
    if not 1 <= k <= spec.N // 2:
        raise ParameterError(f"k={k} must lie in [1, N/2] = [1, {spec.N // 2}]")
    sigma = direction * s0
    c, lam = solve_at_phase(k, spec, sigma)
    disc = _state_discretization(spec, c)
    # the tangent is oriented along direction * (P_k / ||P_k||_w, lambda'(0))
    sqh = math.sqrt(discretization(spec).h[k])
    guess_c = np.zeros(spec.N)
    guess_c[k] = direction / sqh
    guess_lam = direction * lambda_prime_zero(k, spec) / sqh
    ev = _StateEvaluation(disc, c[disc.modes])
    sym = ev.operator(lam)  # serves sigma_min and the tangent
    tangent = _tangent(ev, sym, guess_c[disc.modes], guess_lam)
    bp = _make_point(ev, lam, sigma, _sigma_range(ev, sym, lam)[0], tangent)
    if bp.crossings != k:
        raise StructureViolationError(
            f"first branch point has {bp.crossings} crossings, expected {k}; "
            "increase N or decrease s0"
        )
    return bp


def _tangent(
    ev: _StateEvaluation,
    sym: np.ndarray,
    guess_c: np.ndarray,
    guess_lam: float,
) -> tuple[np.ndarray, float]:
    """Unit tangent of the solution curve at the state of ``ev`` and lambda,
    where S = ``sym`` (_gram_operator), oriented along the guess direction;
    computed from a bordered solve so it stays well-defined at folds."""
    disc = ev.disc
    n = ev.c.size
    rhs = np.zeros(n + 1)
    rhs[n] = 1.0
    a_mat = _bordered_matrix(ev, sym, disc.h * guess_c, guess_lam)
    sol = np.linalg.solve(a_mat, rhs)
    tc, tl = sol[:n] / disc.sqrt_h, sol[n]
    nrm = math.sqrt(float(disc.h @ (tc * tc)) + tl * tl)
    tc, tl = tc / nrm, tl / nrm
    if float(disc.h @ (tc * guess_c)) + tl * guess_lam < 0.0:
        tc, tl = -tc, -tl
    return tc, tl


def _fold_bracket(points: list[BranchPoint]) -> int | None:
    """First i where tau_lam changes sign between points i and i + 1, or None."""
    for i in range(len(points) - 1):
        if points[i].tangent[1] * points[i + 1].tangent[1] <= 0.0:
            return i
    return None


# Traced states that continue_branch diagnoses together (_make_points): ACCEPT_BLOCK
# up to N = 64 and fewer above, so that the FFT arrays of a block (3 x 16N
# values a state) stay those of 8 states at N = 64.  Blocks of 8 at N = 256 leave
# the malloc heap so that fold-n256 reads a median peak RSS of 81.0 MB, 5 of 10
# runs at 82.7 to 84.1 MB, against 77.9 MB with blocks of 2 (10 alternating runs).
ACCEPT_BLOCK = 8


def _block_size(n_modes: int) -> int:
    return max(1, ACCEPT_BLOCK * 64 // max(n_modes, 64))


def continue_branch(
    start: BranchPoint,
    spec: ProblemSpec,
    settings: ContinuationSettings | None = None,
) -> Branch:
    """Pseudo-arclength predictor-corrector from an already-converged point.

    Each accepted point is Newton-converged for the bordered system
    {F(c, lambda) = 0, <x - x_prev, tau>_metric = ds} and carries the full
    diagnostic set.  Terminates on step budget, lambda leaving
    (lambda_floor, lambda_ceiling), amplitude cap, a return to the trivial
    solution u = 1, a corrected state that is positive at the M nodes but not
    at the 2M nodes of quad_gap or on the scan grid of point_diagnostics
    (neither state is appended), or (optionally) FOLD_TRAIL points after the
    first fold bracket (_fold_bracket on the point tangents).

    The traced states (_trace, which checks quad_gap on each) wait for their
    diagnostics, and _make_points diagnoses them in blocks of
    _block_size(spec.N) (ACCEPT_BLOCK = 8 up to N = 64), and in a finally
    whatever is still pending when tracing ends or raises.  A refusal among
    the pending states thus comes before any other exit, and states traced
    past it are dropped, so the branch, its termination and any error are
    those of accepting each state as it is traced.

    A start that is not a state of ``spec`` (spec.N coefficients, spec.params,
    and a residual that passes the Newton test of _bordered_newton, as every
    converged point does) is a ParameterError.  The start decides the modes
    solved for (_state_discretization): from an even state of an alpha ==
    beta spec the branch is traced on the even view, and its points hold odd
    coefficients of exactly 0.0.
    """
    settings = settings or ContinuationSettings()
    _require_state_of(spec, start.u, "start")
    c = start.u.coeffs
    disc = _state_discretization(spec, c)
    c = c[disc.modes]
    res = disc.w_norm(disc.residual_coeffs(c, start.lam))
    if not res < NEWTON_TOL * (1.0 + disc.w_norm(c)):
        raise ParameterError(f"start does not solve the spec: residual {res:.2e}")
    direction = 1 if start.s >= 0.0 else -1
    branch = Branch(spec=spec, k=start.crossings, direction=direction, points=[start])
    block = _block_size(spec.N)
    pending: list = []
    try:
        try:
            for state in _trace(branch, disc, settings):
                pending.append(state)
                if len(pending) == block:
                    states, pending = pending, []
                    _make_points(states, branch.points)
        finally:
            if pending:
                _make_points(pending, branch.points)
    except NonpositiveStateError:
        # positive at the M nodes but not where quad_gap or _make_points
        # looks: the branch has left the positive solutions
        branch.termination = "nonpositive-state"
    return branch


def _trace(branch: Branch, disc: Discretization, settings: ContinuationSettings):
    """The states continue_branch traces after the start of ``branch``, each
    as (ev, lam, s, smin, tangent) for _make_points once it has passed
    _check_quadrature.  Sets branch.termination where tracing ends, and
    raises NewtonDivergenceError where the corrector fails below ds_min."""
    start, direction = branch.points[0], branch.direction
    c, lam, s = start.u.coeffs[disc.modes], start.lam, start.s
    tau = (start.tangent[0][disc.modes], start.tangent[1])
    ds = min(max(settings.ds0, settings.ds_min), settings.ds_max)
    steps_after_bracket = 0
    for _ in range(settings.max_steps - 1):  # the start is the first point
        while True:
            try:  # predictor step ds along tau, then the corrector
                ev, lam_next, iters = _bordered_newton(
                    disc, c + ds * tau[0], lam + ds * tau[1], disc.h * tau[0], tau[1], ds, (c, lam)
                )
                break
            except (NewtonDivergenceError, NonpositiveStateError, np.linalg.LinAlgError):
                if 0.5 * ds < settings.ds_min:
                    raise NewtonDivergenceError(
                        f"corrector failed below ds_min at s={abs(s):.4f}, lambda={lam:.6f}",
                        s=abs(s),
                        lam=float(lam),
                        ds=ds,
                    ) from None
                ds *= 0.5
        if _is_constant(ev.c):
            # the branch has come back to u = 1, where no count is defined
            branch.termination = "trivial-branch"
            return
        # the corrector's last evaluation and one S serve sigma_min, the
        # tangent and the residual norm
        sym = ev.operator(lam_next)
        tangent = _tangent(ev, sym, *tau)
        smin = _sigma_range(ev, sym, lam_next)[0]
        _check_quadrature(ev)
        c, lam, s = ev.c, lam_next, s + direction * ds
        yield ev, lam, s, smin, tangent
        if not (settings.lambda_floor < lam < settings.lambda_ceiling):
            branch.termination = "lambda-window"
            return
        if disc.w_norm(c) > settings.amplitude_cap:
            branch.termination = "amplitude-cap"
            return
        # tau_lam changes sign from the last point: _fold_bracket of the two
        if settings.stop_on_fold and (steps_after_bracket or tau[1] * tangent[1] <= 0.0):
            steps_after_bracket += 1
            if steps_after_bracket > FOLD_TRAIL:
                branch.termination = "fold-bracketed"
                return
        tau = tangent
        if iters <= 4:
            ds = min(ds * 1.4, settings.ds_max)
        elif iters >= 10:
            ds = max(ds * 0.6, settings.ds_min)
    branch.termination = "max-steps"


# ---------------------------------------------------------------------------
# fold localization


def _moore_spence(
    disc: Discretization, c: np.ndarray, lam: float, v0: np.ndarray
) -> tuple[_StateEvaluation, float, np.ndarray, float]:
    """Newton iteration for the Moore-Spence system {F(c, lambda) = 0, J v =
    0, <v0, v>_w = 1} of a turning point (Moore and Spence, SIAM J. Numer.
    Anal. 17(4), 1980) from (c, lambda, v0), v0 scaled to ||v0||_w = 1.  The
    unknowns are (H^(1/2) c, lambda, H^(1/2) v), and each step eliminates on
    the tangent's bordered matrix A (_bordered_matrix, border v0), so no
    (2N+1)-square matrix is formed: the (c, lambda) step is a + t phi, A a =
    (-H^(1/2) F, 0) and A phi = (0, 1); the v step w solves A (w, mu) = (-S
    H^(1/2) v - K (a + t phi), 1 - <v0, v>_w), K the derivative of S H^(1/2) v
    in (H^(1/2) c, lambda), lambda q (q - 1) Q^T diag(u^(q-2) B v) Q and (S -
    diag(lin)) H^(1/2) v / lambda; mu = 0 fixes t.  Returns (evaluation,
    lambda, v, residual) once ||(F, J v, <v0, v>_w - 1)||, in the w-norm, is
    below NEWTON_TOL (1 + ||c||_w).  A step to a state not positive at the
    nodes, a singular step or MAX_ITER steps is a NewtonDivergenceError."""
    n, q, sqh = c.size, disc.spec.q, disc.sqrt_h
    v0 = v0 / disc.w_norm(v0)
    z = sqh * v0  # H^(1/2) v
    for _ in range(MAX_ITER):
        try:
            ev = _StateEvaluation(disc, c)
            sym = ev.operator(lam)
            f, jv, g = sqh * ev.residual(lam), sym @ z, float(sqh @ (v0 * z)) - 1.0
            res = math.sqrt(float(f @ f) + float(jv @ jv) + g * g)
            if res < NEWTON_TOL * (1.0 + disc.w_norm(c)):
                return ev, lam, z / sqh, res
            a_mat = _bordered_matrix(ev, sym, disc.h * v0, 0.0)
            rhs = np.zeros((n + 1, 2))
            rhs[:n, 0], rhs[n, 1] = -f, 1.0
            x = np.linalg.solve(a_mat, rhs)  # the columns a and phi
            weight = lam * q * (q - 1.0) * ev.vals ** (q - 2.0) * (disc.basis @ (z / sqh))
            rhs[:n] = -disc.orth.T @ (weight[:, None] * (disc.orth @ x[:n]))
            rhs[:n] -= np.outer((jv - disc.lin * z) / lam, x[n])
            rhs[:n, 0] -= jv
            rhs[n] = -g, 0.0
            w = np.linalg.solve(a_mat, rhs)
            t = -float(w[n, 0]) / float(w[n, 1])  # ZeroDivisionError: the step is singular
        except (NonpositiveStateError, np.linalg.LinAlgError, ZeroDivisionError) as err:
            raise NewtonDivergenceError(f"Moore-Spence solve failed: {err}") from None
        c = c + (x[:n, 0] + t * x[:n, 1]) / sqh
        lam = lam + float(x[n, 0] + t * x[n, 1])
        z = z + w[:n, 0] + t * w[:n, 1]
    raise NewtonDivergenceError(f"Moore-Spence solve did not converge in {MAX_ITER} iterations")


def detect_fold(branch: Branch) -> FoldRecord:
    """Localize the first turning point bracketed by the branch, on branch.spec.

    tau_lam, the lambda component of the unit tangent, first changes sign
    between points i and i + 1 (_fold_bracket).  The fold is the root that
    _moore_spence reaches from points[i + 1], on its modes, with v0 the state
    part of its tangent.  Its arclength <tau_i, x - x_i> from points[i], in
    the branch metric, must lie in (0, |s_(i+1) - s_i|), else
    NewtonDivergenceError.  The kernel direction v is scaled to ||v||_w = 1,
    largest weighted component positive, and the fold point's tangent is
    (+-v, 0), oriented along that of points[i].  The Moore-Spence residual
    must be below CERTIFICATE_TOL and min|eig|/max|eig| of J (_sigma_range)
    below DEGENERATE_TOL (FoldRecord); the fold point then passes _make_point.
    """
    spec = branch.spec
    i = _fold_bracket(branch.points)
    if i is None:
        why = {
            "trivial-branch": " (the branch returned to u = 1)",
            "nonpositive-state": " (the branch reached a state that is not positive)",
        }.get(branch.termination, "")
        raise NoFoldBracketError(f"tau_lambda keeps its sign on the traced branch{why}")
    start, end = branch.points[i : i + 2]
    disc = _state_discretization(spec, end.u.coeffs)
    m = disc.modes
    ev, lam, v, ms_res = _moore_spence(disc, end.u.coeffs[m], end.lam, end.tangent[0][m])
    tau_c, tau_lam = start.tangent[0][m], start.tangent[1]
    ds = float(disc.h @ (tau_c * (ev.c - start.u.coeffs[m]))) + tau_lam * (lam - start.lam)
    width = abs(end.s - start.s)
    if not 0.0 < ds < width:
        raise NewtonDivergenceError(f"fold root at ds={ds:.2e} outside the bracket (0, {width:.2e})")
    if not ms_res < CERTIFICATE_TOL:
        raise NewtonDivergenceError(f"fold certificate failed: residual {ms_res:.2e}")
    smin, smax = _sigma_range(ev, ev.operator(lam), lam)
    if not smin < DEGENERATE_TOL * smax:
        raise NumericalError(
            f"fold candidate is not degenerate: sigma_min/sigma_max = {smin / smax:.2e}"
        )
    v = v / disc.w_norm(v)
    tangent = (v if float(disc.h @ (tau_c * v)) >= 0.0 else -v, 0.0)
    # deterministic sign: largest weighted component positive
    idx = int(np.argmax(np.abs(v) * np.sqrt(disc.h)))
    if v[idx] < 0.0:
        v = -v
    point = _make_point(ev, lam, start.s + branch.direction * ds, smin, tangent)
    return FoldRecord(
        point=point,
        lambda_star=float(lam),
        null_direction=SpectralFunction(disc.pad(v), spec.params),
        moore_spence_residual=float(ms_res),
        sigma_ratio=smin / smax,
    )


# ---------------------------------------------------------------------------
# top-level composition


def _alternating(labels: list[str]) -> bool:
    return all(a != b for a, b in zip(labels, labels[1:]))


def _extremum_labels(point: BranchPoint) -> list[str]:
    """The extremum types of u along [-1, 1]: endpoint_label at -1, the
    critical-point labels in order, endpoint_label at +1."""
    u = point.u
    return [endpoint_label(u, -1)] + [kind for _, kind in point.critical] + [endpoint_label(u, +1)]


def find_degenerate(k: int, spec: ProblemSpec, s0: float = 1e-3) -> FoldRecord:
    """Trace the branch rooted at (1, lambda_k) in the direction of
    decreasing lambda until a fold is bracketed, then localize it.

    For alpha == beta the branch slope vanishes for odd k and the descent
    direction is undetermined, so odd k is rejected in that case.  q at or
    above ``linearization.supercritical_threshold(spec.params)`` is accepted:
    some folds there are resolved at N and some are not.
    """
    require_theorem_scope(spec.params)
    k = _count("k", k, 1)
    if spec.params.is_symmetric and k % 2 == 1:
        raise ParameterError(
            "parity violation: for alpha == beta the slope vanishes for odd k "
            "and no descent direction is available"
        )
    slope = lambda_prime_zero(k, spec)
    if not slope < 0.0:
        raise StructureViolationError(
            f"expected a negative branch slope, got {slope:.3e}"
        )
    start = branch_switch(k, spec, s0, +1)
    branch = continue_branch(start, spec, ContinuationSettings(stop_on_fold=True, max_steps=3000))
    record = detect_fold(branch)
    record.branch = branch
    branch.folds.append(record)

    lam_k = bifurcation_lambda(k, spec.params.a, spec.q)
    point = record.point
    if point.crossings != k or point.critical_points != k - 1:
        raise NumericalError(
            f"fold has crossings={point.crossings}, critical={point.critical_points}; "
            f"expected ({k}, {k - 1}); increase N"
        )
    if not 0.0 < record.lambda_star < lam_k:
        raise NumericalError(
            f"fold lambda_star={record.lambda_star:.6f} outside (0, {lam_k:.6f})"
        )
    labels = _extremum_labels(point)
    if not _alternating(labels):
        raise StructureViolationError(f"extremum labels do not alternate: {labels}")
    return record
