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

Branch tracing uses a Keller bordered predictor-corrector in the metric
<(dc, dlam), (dc', dlam')> = sum h_i dc_i dc_i' + dlam dlam'.  The phase
solve, the corrector and fold localization share one bordered Newton kernel.
A fold is located as a root of the lambda component of the unit tangent; the
tangent there is (v, 0) with J v = 0, so the kernel direction comes with the
fold, and the Moore-Spence residual of {F = 0, J v = 0, ||v||_w = 1}
certifies it a posteriori.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

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
    chebyshev_series,
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
    "residual",
    "boundary_residual",
    "jacobian",
    "bifurcation_lambda",
    "bifurcation_points",
    "lambda_prime_zero",
    "solve_at_phase",
    "branch_switch",
    "continue_branch",
    "detect_fold",
    "crossing_points",
    "count_crossings",
    "critical_point_list",
    "count_critical_points",
    "endpoint_label",
    "find_degenerate",
]


def default_quadrature_order(n_modes: int) -> int:
    return max(2 * n_modes + 16, 3 * n_modes)


# The largest quadrature order M.  A discretization builds Gauss rules of M and
# 2M points, and Golub-Welsch holds every eigenvector of the second: a 2M x 2M
# float matrix, 512 MiB at this bound (and 2.9 TB at N = 100000, M = 3N).
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
        if self.N < 8:
            raise ParameterError(f"N={self.N} must be >= 8")
        object.__setattr__(self, "q", float(self.q))
        if self.M == 0:
            object.__setattr__(self, "M", default_quadrature_order(self.N))
        if self.M < 2 * self.N:
            raise ParameterError(f"M={self.M} must be >= 2N={2 * self.N}")
        if self.M > MAX_QUADRATURE_ORDER:
            raise ParameterError(
                f"N={self.N}, M={self.M}: the {2 * self.M} x {2 * self.M} Golub-Welsch "
                f"eigenvector matrix would take {8 * (2 * self.M) ** 2:,} bytes; "
                f"M must be <= {MAX_QUADRATURE_ORDER}"
            )


@lru_cache(maxsize=None)
def _h_vector(params: JacobiParams, n: int) -> np.ndarray:
    h = np.array([norm_sq_closed_form(i, params) for i in range(n)])
    h.setflags(write=False)
    return h


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

    def w_norm(self) -> float:
        """Weighted L2 norm, exact in the coefficients by orthogonality."""
        h = _h_vector(self.params, self.coeffs.size)
        return math.sqrt(float(h @ (self.coeffs * self.coeffs)))

    def derivative_values(self, t):
        return jacobi_series(*derivative_series(self.params, self.coeffs), t)

    @staticmethod
    def constant_one(spec: "ProblemSpec") -> "SpectralFunction":
        c = np.zeros(spec.N)
        c[0] = 1.0
        return SpectralFunction(c, spec.params)


@dataclass(frozen=True)
class BranchPoint:
    """One accepted continuation state with its diagnostics; ``critical`` is
    critical_point_list(u), not serialized beyond its length."""

    u: SpectralFunction
    lam: float
    s: float
    residual_norm: float
    sigma_min: float
    crossings: int
    critical: list[tuple[float, str]]

    @property
    def critical_points(self) -> int:
        return len(self.critical)


@dataclass
class Branch:
    """Ordered accepted points rooted at a bifurcation point, each with its unit
    tangent (tau_c, tau_lam) oriented along the tracing (not serialized)."""

    spec: ProblemSpec
    k: int
    direction: int
    points: list[BranchPoint] = field(default_factory=list)
    tangents: list[tuple[np.ndarray, float]] = field(default_factory=list)
    folds: list["FoldRecord"] = field(default_factory=list)
    termination: str = ""


@dataclass
class FoldRecord:
    """A localized degenerate solution (turning point) with its kernel.

    ``null_direction`` is the state part v of the unit tangent at the fold,
    rescaled to ||v||_w = 1.  ``moore_spence_residual`` is the norm of
    (F(c, lambda), J v, ||v||_w^2 - 1) there.  No iteration minimizes it, so
    it certifies the fold point and its kernel direction independently, as
    does ``sigma_ratio`` = sigma_min/sigma_max of J at the fold.
    """

    point: BranchPoint
    lambda_star: float
    null_direction: SpectralFunction
    moore_spence_residual: float
    sigma_ratio: float
    branch: Branch | None = None


NEWTON_TOL = 1e-11  # bordered Newton: ||F||_w and the border equation, relative
MAX_ITER = 25  # Newton iterations per solve, and Illinois steps per fold
DEGENERATE_TOL = 1e-8  # a fold needs sigma_min/sigma_max of J below this
CERTIFICATE_TOL = 1e-10  # a fold needs its Moore-Spence residual below this
QUAD_CHECK_TOL = 1e-10  # largest relative change of the projection when M doubles
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
        if math.isnan(self.ds0):
            raise ParameterError("ds0 is NaN")
        if not 0.0 < self.ds_min <= self.ds_max:
            raise ParameterError(f"need 0 < ds_min <= ds_max, got {self.ds_min} and {self.ds_max}")
        if not math.isfinite(self.ds_max):
            raise ParameterError(f"ds_max={self.ds_max} must be finite")
        if self.max_steps < 1:
            raise ParameterError(f"max_steps={self.max_steps} must be >= 1")
        if not self.lambda_floor < self.lambda_ceiling:
            raise ParameterError(f"empty lambda window ({self.lambda_floor}, {self.lambda_ceiling})")
        if not self.amplitude_cap > 0.0:
            raise ParameterError(f"amplitude_cap={self.amplitude_cap} must be > 0")


# ---------------------------------------------------------------------------
# discretization


class Discretization:
    """Precomputed quadrature rule, basis tables and projection operators for
    one ProblemSpec.  Immutable after construction and shared freely."""

    def __init__(self, spec: ProblemSpec):
        self.spec = spec
        p = spec.params
        self.rule = gauss_jacobi_rule(p, spec.M)
        self.rule2 = gauss_jacobi_rule(p, 2 * spec.M)
        self.basis = jacobi_table(p, spec.N - 1, self.rule.nodes)
        self.basis2 = jacobi_table(p, spec.N - 1, self.rule2.nodes)
        self.h = _h_vector(p, spec.N)
        i = np.arange(spec.N, dtype=float)
        self.lin = -i * (i + p.a)
        self.proj = (self.basis * self.rule.weights[:, None]).T / self.h[:, None]
        self.proj2 = (self.basis2 * self.rule2.weights[:, None]).T / self.h[:, None]

    def w_norm(self, c: np.ndarray) -> float:
        return math.sqrt(float(self.h @ (c * c)))

    def values(self, c: np.ndarray) -> np.ndarray:
        return self.basis @ c

    def positive_values(self, c: np.ndarray) -> np.ndarray:
        vals = self.basis @ c
        if not vals.min() > 0.0:
            raise NonpositiveStateError(
                f"state reaches min {vals.min():.3e} at a quadrature node"
            )
        return vals

    def residual_coeffs(self, c: np.ndarray, lam: float) -> np.ndarray:
        vals = self.positive_values(c)
        return self.lin * c - lam * (self.proj @ (vals - vals**self.spec.q))

    def jacobian(self, c: np.ndarray, lam: float) -> np.ndarray:
        vals = self.positive_values(c)
        phi = 1.0 - self.spec.q * vals ** (self.spec.q - 1.0)
        mat = -lam * (self.proj @ (self.basis * phi[:, None]))
        mat[np.diag_indices_from(mat)] += self.lin
        return mat

    def dresidual_dlambda(self, c: np.ndarray) -> np.ndarray:
        vals = self.positive_values(c)
        return -(self.proj @ (vals - vals**self.spec.q))

    def quad_gap(self, c: np.ndarray) -> float:
        """Relative change of the nonlinear projection when M doubles."""
        vals = self.positive_values(c)
        v2 = self.basis2 @ c
        if not v2.min() > 0.0:
            raise NonpositiveStateError("state nonpositive on refined grid")
        p1 = self.proj @ (vals - vals**self.spec.q)
        p2 = self.proj2 @ (v2 - v2**self.spec.q)
        return self.w_norm(p1 - p2) / (1.0 + self.w_norm(p2))


@lru_cache(maxsize=None)
def discretization(spec: ProblemSpec) -> Discretization:
    return Discretization(spec)


# ---------------------------------------------------------------------------
# basic operations


def _as_coeffs(u: SpectralFunction | np.ndarray, spec: ProblemSpec) -> np.ndarray:
    c = u.coeffs if isinstance(u, SpectralFunction) else np.asarray(u, dtype=float)
    if c.size != spec.N:
        raise ParameterError(f"state has {c.size} coefficients, spec wants {spec.N}")
    return c


def residual(u: SpectralFunction, lam: float, spec: ProblemSpec) -> SpectralFunction:
    """Galerkin residual of F(u, lambda), returned as a coefficient vector."""
    disc = discretization(spec)
    return SpectralFunction(disc.residual_coeffs(_as_coeffs(u, spec), lam), spec.params)


def jacobian(u: SpectralFunction, lam: float, spec: ProblemSpec) -> np.ndarray:
    """State Jacobian: diag(-i(i+a)) - lambda * M[1 - q u^(q-1)]."""
    disc = discretization(spec)
    return disc.jacobian(_as_coeffs(u, spec), lam)


def boundary_residual(u: SpectralFunction, lam: float, spec: ProblemSpec) -> tuple[float, float]:
    """Pointwise residuals of the natural boundary relations at -1 and +1:

        (2 beta + 2) u'(-1) - lambda (u(-1) - u(-1)^q)
       -(2 alpha + 2) u'(+1) - lambda (u(+1) - u(+1)^q)

    Small for converged smooth solutions; not imposed by the solver.
    """
    p = spec.params
    ends = np.array([-1.0, 1.0])
    uv = u(ends)
    if not uv.min() > 0.0:
        raise NonpositiveStateError("state nonpositive at an endpoint")
    du = u.derivative_values(ends)
    g = uv - uv**spec.q
    b_minus = (2.0 * p.beta + 2.0) * du[0] - lam * g[0]
    b_plus = -(2.0 * p.alpha + 2.0) * du[1] - lam * g[1]
    return float(b_minus), float(b_plus)


def bifurcation_lambda(k, a, q):
    """lambda_k = k(k + a) / (q - 1) with a = alpha + beta + 1; exact for
    Fraction arguments."""
    return k * (k + a) / (q - 1)


def bifurcation_points(spec: ProblemSpec, kmax: int) -> list[tuple[int, float]]:
    """(k, lambda_k) with lambda_k = k(k + alpha + beta + 1) / (q - 1)."""
    if kmax < 1:
        raise ParameterError("kmax must be >= 1")
    return [(k, bifurcation_lambda(k, spec.params.a, spec.q)) for k in range(1, kmax + 1)]


def lambda_prime_zero(k: int, spec: ProblemSpec) -> float:
    """Branch slope at the bifurcation point:

        dlambda/ds(0) = -q lambda_k (int P_k^3 w) / (2 int P_k^2 w) = -q lambda_k C_k^k / 2,

    with C_k^k the middle coefficient of P_k^2 = sum_i C_k^i P_i, exact when
    the parameters are rational.  Zero exactly when alpha == beta and k is
    odd; negative in the other in-scope cases.
    """
    if k < 1:
        raise ParameterError("k must be >= 1")
    require_theorem_scope(spec.params)
    lam_k = bifurcation_lambda(k, spec.params.a, spec.q)
    table = linearization_coeffs(k, spec.params)
    c_kk = table.exact[k] if table.exact is not None else table.coeffs[k]
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


_ENDS = np.array([-1.0, 1.0])
_ENDS.setflags(write=False)


def _scan_values(params: JacobiParams, coeffs: np.ndarray, n_modes: int) -> np.ndarray:
    """f = sum_i coeffs_i P_i on _scan_grid(n_modes): the closed form at +-1
    and one FFT at the 8N Chebyshev points between (chebyshev_series)."""
    ends = jacobi_series(params, coeffs, _ENDS)
    return np.concatenate((ends[:1], chebyshev_series(params, coeffs, 8 * n_modes), ends[1:]))


def _is_constant(c: np.ndarray) -> bool:
    """True when the coefficients past c_0 vanish to roundoff."""
    tail = float(np.max(np.abs(c[1:]))) if c.size > 1 else 0.0
    return tail <= 1e-13 * (1.0 + abs(float(c[0])))


def _nonconstant_or_raise(u: SpectralFunction) -> None:
    if not np.all(np.isfinite(u.coeffs)):
        raise ParameterError("count is undefined for states with non-finite coefficients")
    if _is_constant(u.coeffs):
        raise ParameterError("count is undefined for (numerically) constant states")


def _series_roots(params: JacobiParams, coeffs: np.ndarray, n_modes: int, what: str) -> list[float]:
    """Roots in (-1, 1) of f = sum_i coeffs_i P_i, in increasing order, from
    a sign scan of f on _scan_grid(n_modes).

    A grid node where f is exactly 0 is a root; every grid cell where f
    changes sign brackets one.  Only when there are roots is f' formed
    (derivative_series).  All brackets are then polished together by
    safeguarded Newton (rtsafe, Press et al., Numerical Recipes, 9.4): each
    round sums f and f' at every live iterate by one stacked banded solve
    (stacked_series), starting from the bracket midpoints.  An iterate stops
    at an exact zero of f or when |f / f'| <= 2 eps max(1, |t|), tested
    before the bracket is updated from the sign of f, since at convergence
    that sign is roundoff.  Otherwise the step is Newton's unless it leaves
    the bracket or fails to halve the step before last, and bisection then;
    a bracket narrower than 1e-14 stops at its midpoint.  A node root is a
    bracket of width 0, so its one round reads f' there.  Each root must be
    transversal, |f'| from its last round > TRANSVERSALITY_REL * max |f'|
    over the grid, or TangencyError names the first offending one as ``what``.
    """
    grid = _scan_grid(n_modes)
    fvals = _scan_values(params, coeffs, n_modes)
    a, b = fvals[:-1], fvals[1:]
    cell = a * b < 0.0
    j = np.flatnonzero(cell | ((a == 0.0) & (grid[:-1] > -1.0)))
    if j.size == 0:
        return []
    dparams, dcoeffs = derivative_series(params, coeffs)
    series = ((params, coeffs), (dparams, dcoeffs))
    lo = grid[j]
    hi = np.where(cell[j], grid[j + 1], lo)
    positive = fvals[j] > 0.0  # the sign of f at lo
    x = 0.5 * (lo + hi)
    last = before_last = hi - lo  # the last two step lengths
    roots, slopes = np.empty(j.size), np.empty(j.size)
    live = np.arange(j.size)
    tiny = 2.0 * np.finfo(float).eps
    while live.size:
        f, df = stacked_series(series, x)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            newton = f / df
        roots[live], slopes[live] = x, np.abs(df)
        done = (f == 0.0) | (np.abs(newton) <= tiny * np.maximum(1.0, np.abs(x)))
        at_lo = (f > 0.0) == positive
        lo, hi = np.where(at_lo, x, lo), np.where(at_lo, hi, x)
        mid = 0.5 * (lo + hi)
        guess = x - newton
        ok = (lo < guess) & (guess < hi) & (np.abs(newton) <= 0.5 * before_last)
        before_last, last = last, np.where(ok, np.abs(newton), 0.5 * (hi - lo))
        x = np.where(ok, guess, mid)
        narrow = ~done & (hi - lo < 1e-14)
        roots[live[narrow]] = mid[narrow]
        keep = ~done & ~narrow
        live, lo, hi, positive, x, last, before_last = (
            v[keep] for v in (live, lo, hi, positive, x, last, before_last)
        )
    d_scale = np.max(np.abs(_scan_values(dparams, dcoeffs, n_modes)))
    bad = np.flatnonzero(slopes <= TRANSVERSALITY_REL * d_scale)
    if bad.size:
        i = bad[0]
        raise TangencyError(
            f"{what} at t={roots[i]:.6f} is nearly degenerate (|slope|={slopes[i]:.2e})",
            t=float(roots[i]),
            slope=float(slopes[i]),
        )
    return roots.tolist()


def crossing_points(u: SpectralFunction) -> list[float]:
    """Roots of u(t) = 1 in (-1, 1), in increasing order: sign scan on a
    Chebyshev-distributed grid of 8N points, joint safeguarded Newton polish
    of the brackets, and the transversality check |u'(root)| >
    TRANSVERSALITY_REL * ||u'||_inf (see _series_roots)."""
    _nonconstant_or_raise(u)
    # P_0 = 1: subtract 1 from c_0, not from the sum, so a small u - 1 keeps
    # its relative accuracy
    f = u.coeffs.copy()
    f[0] -= 1.0
    return _series_roots(u.params, f, u.coeffs.size, "crossing")


def count_crossings(u: SpectralFunction) -> int:
    return len(crossing_points(u))


def critical_point_list(u: SpectralFunction) -> list[tuple[float, str]]:
    """Interior roots of u' with labels: 'min' where u < 1, 'max' where u > 1
    (the only possibilities along solution branches)."""
    _nonconstant_or_raise(u)
    roots = _series_roots(*derivative_series(u.params, u.coeffs), u.coeffs.size, "critical point")
    below = u(np.array(roots)) < 1.0
    return [(r, "min" if b else "max") for r, b in zip(roots, below)]


def count_critical_points(u: SpectralFunction) -> int:
    return len(critical_point_list(u))


def endpoint_label(u: SpectralFunction, side: int) -> str:
    """'max' when u(side) > 1 else 'min' (endpoint extremum type along the
    interval, as forced by the natural boundary relations)."""
    return "max" if u(float(side)) > 1.0 else "min"


# ---------------------------------------------------------------------------
# branch construction


def _sigma_min(jac: np.ndarray) -> float:
    return float(np.linalg.svd(jac, compute_uv=False)[-1])


def _make_point(c: np.ndarray, lam: float, s: float, spec: ProblemSpec, smin: float) -> BranchPoint:
    """The point (c, lam) with its diagnostics; ``smin`` is sigma_min of J there."""
    disc = discretization(spec)
    u = SpectralFunction(c, spec.params)
    return BranchPoint(
        u=u,
        lam=float(lam),
        s=float(s),
        residual_norm=disc.w_norm(disc.residual_coeffs(c, lam)),
        sigma_min=smin,
        crossings=count_crossings(u),
        critical=critical_point_list(u),
    )


def _bordered_matrix(
    disc: Discretization,
    jac: np.ndarray,
    c: np.ndarray,
    border: np.ndarray,
    border_lam: float,
) -> np.ndarray:
    """[[J, F_lambda], [border, border_lam]] at (c, lambda), J = ``jac`` there."""
    n = c.size
    a_mat = np.empty((n + 1, n + 1))
    a_mat[:n, :n] = jac
    a_mat[:n, n] = disc.dresidual_dlambda(c)
    a_mat[n, :n] = border
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
) -> tuple[np.ndarray, float, int]:
    """Newton iteration for {F(c, lambda) = 0, <border, c - c0> +
    border_lam (lambda - lam0) = target} from the guess (c, lambda), where
    (c0, lam0) is ``origin``.

    Converged when ||F||_w < NEWTON_TOL (1 + ||c||_w) and the border equation
    holds to NEWTON_TOL (1 + |target|).  Returns (c, lambda, iterations), the
    iterations counting the residual checks including the converged one.
    """
    n = c.size
    c0, lam0 = origin
    for it in range(1, MAX_ITER + 1):
        r = disc.residual_coeffs(c, lam)
        g = float(border @ (c - c0)) + border_lam * (lam - lam0) - target
        converged = disc.w_norm(r) < NEWTON_TOL * (1.0 + disc.w_norm(c))
        if converged and abs(g) < NEWTON_TOL * (1.0 + abs(target)):
            return c, lam, it
        a_mat = _bordered_matrix(disc, disc.jacobian(c, lam), c, border, border_lam)
        delta = np.linalg.solve(a_mat, np.append(-r, -g))
        c = c + delta[:n]
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
    u = 1 + sigma * P_k / ||P_k||_w unless a guess is supplied.
    """
    disc = discretization(spec)
    sqh = math.sqrt(disc.h[k])
    ck = sigma / sqh
    if guess is not None:
        c = np.array(guess[0], dtype=float)
        lam = float(guess[1])
    else:
        c = np.zeros(spec.N)
        c[0] = 1.0
        lam = bifurcation_lambda(k, spec.params.a, spec.q) + sigma * lambda_prime_zero(
            k, spec
        ) / sqh
    c[k] = ck
    e_k = np.eye(spec.N)[k]
    return _bordered_newton(disc, c, lam, e_k, 0.0, ck)[:2]


def branch_switch(
    k: int,
    spec: ProblemSpec,
    s0: float,
    direction: int,
) -> BranchPoint:
    """First nontrivial point on the branch through (1, lambda_k), at signed
    tangent amplitude sigma = direction * s0."""
    require_theorem_scope(spec.params)
    if direction not in (-1, 1):
        raise ParameterError("direction must be +1 or -1")
    if not 0.0 < s0 <= 0.05:
        raise ParameterError("s0 must lie in (0, 0.05]")
    if not 1 <= k <= spec.N // 2:
        raise ParameterError(f"k={k} must lie in [1, N/2] = [1, {spec.N // 2}]")
    sigma = direction * s0
    c, lam = solve_at_phase(k, spec, sigma)
    bp = _make_point(c, lam, sigma, spec, _sigma_min(jacobian(c, lam, spec)))
    if bp.crossings != k:
        raise StructureViolationError(
            f"first branch point has {bp.crossings} crossings, expected {k}; "
            "increase N or decrease s0"
        )
    return bp


def _tangent(
    disc: Discretization,
    jac: np.ndarray,
    c: np.ndarray,
    guess_c: np.ndarray,
    guess_lam: float,
) -> tuple[np.ndarray, float]:
    """Unit tangent of the solution curve at (c, lambda), where J = ``jac``,
    oriented along the guess direction; computed from a bordered solve so it
    stays well-defined at folds."""
    n = c.size
    rhs = np.zeros(n + 1)
    rhs[n] = 1.0
    sol = np.linalg.solve(_bordered_matrix(disc, jac, c, disc.h * guess_c, guess_lam), rhs)
    tc, tl = sol[:n], sol[n]
    nrm = math.sqrt(float(disc.h @ (tc * tc)) + tl * tl)
    tc, tl = tc / nrm, tl / nrm
    if float(disc.h @ (tc * guess_c)) + tl * guess_lam < 0.0:
        tc, tl = -tc, -tl
    return tc, tl


def _fold_bracket(tangents: list[tuple[np.ndarray, float]]) -> int | None:
    """First i where tau_lam changes sign between tangents i and i + 1, or None."""
    for i in range(len(tangents) - 1):
        if tangents[i][1] * tangents[i + 1][1] <= 0.0:
            return i
    return None


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
    solution u = 1 (that state is not appended), or (optionally) FOLD_TRAIL
    points after the first fold bracket (_fold_bracket on Branch.tangents).
    """
    settings = settings or ContinuationSettings()
    disc = discretization(spec)
    n = spec.N
    k = start.crossings
    direction = 1 if start.s >= 0.0 else -1
    branch = Branch(spec=spec, k=k, direction=direction, points=[start])

    c = np.array(start.u.coeffs, dtype=float)
    lam = start.lam
    sqh = math.sqrt(disc.h[k])
    guess_c = np.zeros(n)
    guess_c[k] = direction / sqh
    guess_lam = direction * lambda_prime_zero(k, spec) / sqh
    branch.tangents.append(_tangent(disc, disc.jacobian(c, lam), c, guess_c, guess_lam))

    s_abs = abs(start.s)
    ds = min(max(settings.ds0, settings.ds_min), settings.ds_max)
    steps_after_bracket = 0

    while len(branch.points) < settings.max_steps:
        while True:
            try:
                accepted = _correct(disc, c, lam, *branch.tangents[-1], ds)
                break
            except (NewtonDivergenceError, NonpositiveStateError, np.linalg.LinAlgError):
                if 0.5 * ds < settings.ds_min:
                    raise NewtonDivergenceError(
                        f"corrector failed below ds_min at s={s_abs:.4f}, "
                        f"lambda={lam:.6f}",
                        s=s_abs,
                        lam=float(lam),
                        ds=ds,
                    ) from None
                ds *= 0.5
        c_new, lam_new, iters = accepted
        gap = disc.quad_gap(c_new)
        if gap > QUAD_CHECK_TOL:
            raise NumericalBreakdownError(
                f"quadrature convergence check failed (gap={gap:.2e}); increase M"
            )
        if _is_constant(c_new):
            # the branch has come back to u = 1, where no count is defined
            branch.termination = "trivial-branch"
            return branch
        s_abs += ds
        # one Jacobian serves sigma_min and the next tangent
        jac = disc.jacobian(c_new, lam_new)
        point = _make_point(c_new, lam_new, direction * s_abs, spec, _sigma_min(jac))
        branch.points.append(point)
        c, lam = c_new, lam_new
        branch.tangents.append(_tangent(disc, jac, c, *branch.tangents[-1]))

        if not (settings.lambda_floor < lam < settings.lambda_ceiling):
            branch.termination = "lambda-window"
            return branch
        if point.u.w_norm() > settings.amplitude_cap:
            branch.termination = "amplitude-cap"
            return branch
        if settings.stop_on_fold and (
            steps_after_bracket or _fold_bracket(branch.tangents[-2:]) is not None
        ):
            steps_after_bracket += 1
            if steps_after_bracket > FOLD_TRAIL:
                branch.termination = "fold-bracketed"
                return branch
        if iters <= 4:
            ds = min(ds * 1.4, settings.ds_max)
        elif iters >= 10:
            ds = max(ds * 0.6, settings.ds_min)
    branch.termination = "max-steps"
    return branch


def _correct(
    disc: Discretization,
    c_prev: np.ndarray,
    lam_prev: float,
    tau_c: np.ndarray,
    tau_lam: float,
    ds: float,
) -> tuple[np.ndarray, float, int]:
    """One predictor step of arclength ds along (tau_c, tau_lam), then the
    bordered Newton corrector on {F = 0, <x - x_prev, tau>_metric = ds}."""
    return _bordered_newton(
        disc,
        c_prev + ds * tau_c,
        lam_prev + ds * tau_lam,
        disc.h * tau_c,
        tau_lam,
        ds,
        origin=(c_prev, lam_prev),
    )


# ---------------------------------------------------------------------------
# fold localization


def detect_fold(branch: Branch, spec: ProblemSpec) -> FoldRecord:
    """Localize the first turning point bracketed by the branch.

    The fold test function is tau_lam, the lambda component of the unit
    tangent, which changes sign at a regular fold.  Its first sign change
    between Branch.tangents i and i + 1 (_fold_bracket) brackets the fold,
    and its root in arclength is found by the Illinois method from points[i]
    along tangents[i], each evaluation being one corrector step and one
    tangent.  At the root the tangent is (v, 0) with J v = 0, and v is the
    kernel direction, scaled to ||v||_w = 1 with its largest weighted
    component positive.  The fold is certified a posteriori: the Moore-Spence
    residual ||(F, J v, ||v||_w^2 - 1)|| must be below CERTIFICATE_TOL and
    sigma_min/sigma_max of J below DEGENERATE_TOL.
    """
    disc = discretization(spec)
    pts, taus = branch.points, branch.tangents
    i = _fold_bracket(taus)
    if i is None:
        why = " (the branch returned to u = 1)" if branch.termination == "trivial-branch" else ""
        raise NoFoldBracketError(f"tau_lambda keeps its sign on the traced branch{why}")
    start = pts[i]
    tau_c, tau_lam = taus[i]
    # regula falsi on tau_lam(ds) with the Illinois rule: the root stays
    # between a and the latest iterate b, and the value kept at a is halved
    # whenever a survives a step
    a, fa, b, fb = 0.0, tau_lam, abs(pts[i + 1].s - start.s), taus[i + 1][1]
    xtol = NEWTON_TOL * b
    for _ in range(MAX_ITER):
        ds = b - fb * (b - a) / (fb - fa)
        c, lam, _ = _correct(disc, start.u.coeffs, start.lam, tau_c, tau_lam, ds)
        jac = disc.jacobian(c, lam)  # J at the last iterate serves the certificate
        v, f = _tangent(disc, jac, c, tau_c, tau_lam)
        if f * fb < 0.0:
            a, fa = b, fb
        else:
            fa *= 0.5
        b, fb = ds, f
        if f == 0.0 or abs(b - a) <= xtol:
            break
    else:
        raise NewtonDivergenceError(f"fold not located to {xtol:.1e} in arclength")
    v = v / disc.w_norm(v)
    ms_res = math.sqrt(
        disc.w_norm(disc.residual_coeffs(c, lam)) ** 2
        + disc.w_norm(jac @ v) ** 2
        + (float(disc.h @ (v * v)) - 1.0) ** 2
    )
    if not ms_res < CERTIFICATE_TOL:
        raise NewtonDivergenceError(f"fold certificate failed: residual {ms_res:.2e}")
    svals = np.linalg.svd(jac, compute_uv=False)
    if not svals[-1] < DEGENERATE_TOL * svals[0]:
        raise NumericalError(
            f"fold candidate is not degenerate: sigma_min/sigma_max = "
            f"{svals[-1] / svals[0]:.2e}"
        )
    # deterministic sign: largest weighted component positive
    idx = int(np.argmax(np.abs(v) * np.sqrt(disc.h)))
    if v[idx] < 0.0:
        v = -v
    point = _make_point(c, lam, start.s + branch.direction * ds, spec, float(svals[-1]))
    return FoldRecord(
        point=point,
        lambda_star=float(lam),
        null_direction=SpectralFunction(v, spec.params),
        moore_spence_residual=float(ms_res),
        sigma_ratio=float(svals[-1] / svals[0]),
    )


# ---------------------------------------------------------------------------
# top-level composition


def _alternating(labels: list[str]) -> bool:
    return all(a != b for a, b in zip(labels, labels[1:]))


def find_degenerate(k: int, spec: ProblemSpec, s0: float = 1e-3) -> FoldRecord:
    """Trace the branch rooted at (1, lambda_k) in the direction of
    decreasing lambda until a fold is bracketed, then localize it.

    For alpha == beta the branch slope vanishes for odd k and the descent
    direction is undetermined, so odd k is rejected in that case.  q at or
    above ``linearization.supercritical_threshold(spec.params)`` is accepted:
    some folds there are resolved at N and some are not.
    """
    require_theorem_scope(spec.params)
    if k < 1:
        raise ParameterError("k must be >= 1")
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
    record = detect_fold(branch, spec)
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
    labels = (
        [endpoint_label(point.u, -1)]
        + [kind for _, kind in point.critical]
        + [endpoint_label(point.u, +1)]
    )
    if not _alternating(labels):
        raise StructureViolationError(f"extremum labels do not alternate: {labels}")
    return record
