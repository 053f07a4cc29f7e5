"""Jacobi polynomials for the weight (1-t)^alpha (1+t)^beta on [-1, 1].

The three-term recurrence is written once, as the multiplication-by-t
operator (jacobi_operator: float arrays, or for the exact exponents
ExactVectors, Python-int numerators over one shared denominator); the basis
tables, the Gauss rules, the Clenshaw series sums, the Jacobi-to-Chebyshev
connection matrices and the P_k^2 expansion of ``linearization`` all run from
it.  A series is
summed at given interior points by banded LAPACK solves of Clenshaw's
recurrence, at t = +-1 from the closed-form endpoint values, and on a grid of
first-kind Chebyshev points by one FFT of its Chebyshev coefficients.  Exact
monomial coefficients are built independently from the differential operator
L(y) = (1-t^2) y'' + (beta - alpha - (alpha+beta+2) t) y', whose
degree-k eigenpolynomial (eigenvalue -k(k+alpha+beta+1)) is pinned to the
normalization P_k(1) = (alpha+1)_k / k!.  The two routes cross-check each
other throughout the test suite.  The exact oracles run on Python ints over
one common denominator and form each reduced Fraction once, at the end.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np
from scipy.linalg import eigh_tridiagonal
from scipy.linalg.lapack import dtbtrs

from .errors import NumericalBreakdownError, ParameterError

__all__ = [
    "JacobiParams",
    "jacobi_params",
    "ExactPolynomial",
    "exact_poly",
    "QuadratureRule",
    "ExactVector",
    "jacobi_operator",
    "jacobi_table",
    "jacobi_series",
    "stacked_series",
    "chebyshev_connection",
    "eval_jacobi",
    "endpoint_value",
    "exact_coeffs",
    "apply_L",
    "rel_weight_moments",
    "weight_mass",
    "weight_mass_exact",
    "gauss_jacobi_rule",
    "weighted_norm_sq",
    "norm_sq_closed_form",
    "jacobi_zeros",
    "derivative_series",
]

@dataclass(frozen=True)
class JacobiParams:
    """Weight exponents (alpha, beta), both > -1, with the derived sum
    a = alpha + beta + 1.

    ``exact`` holds (alpha, beta) as Fractions, which the exact oracles and
    the sign checks read; the floats alpha, beta and a, which the numerics
    read, are rounded from them.  The hash is the dataclass one, stored on
    first use, since every lru_cache lookup keyed on the parameters asks for
    it and hashing the Fractions dominates such a lookup.
    """

    alpha: float
    beta: float
    a: float
    exact: tuple[Fraction, Fraction]

    def __hash__(self) -> int:
        h = self.__dict__.get("_hash")
        if h is None:
            h = hash((self.alpha, self.beta, self.a, self.exact))
            object.__setattr__(self, "_hash", h)
        return h

    @property
    def is_symmetric(self) -> bool:
        """True when alpha == beta (Gegenbauer case)."""
        return self.exact[0] == self.exact[1]

    def __repr__(self) -> str:  # keep reprs short in test output
        return f"JacobiParams({self.exact[0]}, {self.exact[1]})"


def _exact_value(x, name: str) -> Fraction:
    """x as a Fraction of Python ints: a numbers.Rational (np.integer too) at
    its value, any other number at the exact binary value of float(x).  Its
    float must be finite (``name`` labels x in the error), so a rational
    beyond the float range is refused as inf is."""
    rational = isinstance(x, numbers.Rational)
    value = Fraction(int(x.numerator), int(x.denominator)) if rational else x
    try:
        xf = float(value)
    except OverflowError:  # float(Fraction) past the largest float
        xf = math.inf if value > 0 else -math.inf
    if not math.isfinite(xf):
        raise ParameterError(f"{name}={xf} must be finite")
    return value if rational else Fraction(xf)


def _count(name: str, value, least: int | None = None) -> int:
    """value as a Python int (numpy integers included), at least ``least``
    when that is given; a ParameterError, naming value as ``name``, for a
    bool, a non-integral value (2.0 too) or one below ``least``.  The one
    check of every degree, mode index and count in jacobi, linearization and
    continuation."""
    if not isinstance(value, bool):
        try:
            n = operator.index(value)
        except TypeError:
            pass
        else:
            if least is not None and n < least:
                raise ParameterError(f"{name}={n} must be >= {least}")
            return n
    raise ParameterError(f"{name}={value!r} must be an integer")


def jacobi_params(alpha, beta) -> JacobiParams:
    """Build JacobiParams, keeping (alpha, beta) exactly (_exact_value).

    A float keeps its binary value, so 0.1 is 3602879701896397 / 2^55: pass
    Fraction("0.1") when the decimal is meant.
    """
    exact = (_exact_value(alpha, "alpha"), _exact_value(beta, "beta"))
    af, bf = float(exact[0]), float(exact[1])
    if not (af > -1.0 and bf > -1.0):  # also when an exponent rounds to -1
        raise ParameterError(f"weight not integrable: alpha={alpha}, beta={beta}")
    return JacobiParams(af, bf, af + bf + 1.0, exact)


# ---------------------------------------------------------------------------
# the three-term recurrence, in floats or exactly


class ExactVector:
    """A vector of rationals num[i] / den: Python-int numerators over one
    shared positive int denominator.

    Elementwise +, - and * (by another vector of the same length, an int or a
    Fraction) bring the operands to a common denominator without reducing;
    / (elementwise or by a scalar) reduces the result by one gcd over den and
    every numerator.  Indexing a position and iterating give reduced
    Fractions; a slice is a vector, and a slice or position can be assigned a
    vector or a scalar.  The exact scalar type of ``jacobi_operator`` and of
    the P_k^2 recurrence in ``linearization``.
    """

    __slots__ = ("num", "den")
    __array_ufunc__ = None  # numpy operands defer to these methods, which refuse them

    def __init__(self, num, den: int = 1):
        self.num = list(num)
        self.den = den

    @classmethod
    def from_rationals(cls, values) -> "ExactVector":
        """A sequence of ints and Fractions over their least common denominator."""
        den = math.lcm(*(v.denominator for v in values))
        return cls([v.numerator * (den // v.denominator) for v in values], den)

    def __len__(self) -> int:
        return len(self.num)

    def __iter__(self):
        den = self.den
        return (Fraction(n, den) for n in self.num)

    def __repr__(self) -> str:
        return f"ExactVector({[str(v) for v in self]})"

    def _operand(self, other):
        """(numerators, denominator) of a vector or scalar operand, the scalar
        repeated to this length; None for any other type."""
        if isinstance(other, ExactVector):
            if len(other.num) != len(self.num):
                raise ValueError(f"length {len(other.num)} != {len(self.num)}")
            return other.num, other.den
        if isinstance(other, (int, Fraction)):
            return [other.numerator] * len(self.num), other.denominator
        return None

    def _scales(self, den: int) -> tuple[int, int, int]:
        """(lcm, lcm // self.den, lcm // den)."""
        lcm = math.lcm(self.den, den)
        return lcm, lcm // self.den, lcm // den

    def __add__(self, other):
        if (op := self._operand(other)) is None:
            return NotImplemented
        b, den = op
        lcm, fa, fb = self._scales(den)
        return ExactVector([x * fa + y * fb for x, y in zip(self.num, b)], lcm)

    __radd__ = __add__

    def __sub__(self, other):
        if (op := self._operand(other)) is None:
            return NotImplemented
        b, den = op
        lcm, fa, fb = self._scales(den)
        return ExactVector([x * fa - y * fb for x, y in zip(self.num, b)], lcm)

    def __mul__(self, other):
        if (op := self._operand(other)) is None:
            return NotImplemented
        b, den = op
        return ExactVector([x * y for x, y in zip(self.num, b)], self.den * den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if (op := self._operand(other)) is None:
            return NotImplemented
        b, den = op
        if not all(b):
            raise ZeroDivisionError("ExactVector division by zero")
        # (x_i / self.den) / (b_i / den) = x_i den (lcm / b_i) / (self.den lcm)
        lcm = math.lcm(*b)
        num = [x * den * (lcm // y) for x, y in zip(self.num, b)]
        den = self.den * lcm
        g = math.gcd(den, *num)
        return ExactVector([x // g for x in num], den // g)

    def __rtruediv__(self, other):
        if (op := self._operand(other)) is None:
            return NotImplemented
        return ExactVector(*op) / self

    def __getitem__(self, key):
        if isinstance(key, slice):
            return ExactVector(self.num[key], self.den)
        return Fraction(self.num[key], self.den)

    def __setitem__(self, key, value) -> None:
        if isinstance(value, ExactVector):
            b, den = value.num, value.den
        elif isinstance(value, (int, Fraction)):
            b, den = value.numerator, value.denominator
        else:
            raise TypeError(f"cannot assign {type(value).__name__} to an ExactVector")
        lcm, fa, fb = self._scales(den)
        if fa != 1:
            self.num = [x * fa for x in self.num]
            self.den = lcm
        if not isinstance(key, slice):
            if isinstance(b, list):
                raise ValueError("cannot assign a vector to one position")
            self.num[key] = b * fb
            return
        n = len(range(*key.indices(len(self.num))))
        if not isinstance(b, list):
            b = [b] * n
        elif len(b) != n:
            raise ValueError(f"cannot assign {len(b)} values to a slice of {n}")
        self.num[key] = [y * fb for y in b]


def jacobi_operator(m: int, alpha, beta):
    """(up, mid, down) of t P_j = up_j P_{j+1} + mid_j P_j + down_j P_{j-1}, j < m,
    in the scalar type of (alpha, beta): float arrays, or ExactVectors for
    Fractions.  Column j >= 1 is the recurrence at degree j + 1 with its common
    factors cancelled; column 0 has its own line, since the degree-1 recurrence
    degenerates when alpha + beta is 0 or -1.  down_0 = 0.
    """
    apb = alpha + beta
    i = ExactVector(range(m)) if isinstance(apb, Fraction) else np.arange(m, dtype=float)
    up, mid, down = 0 * i, 0 * i, 0 * i
    # column 0: t P_0 = (2 P_1 - (alpha - beta)) / (alpha + beta + 2); [:1] is empty if m = 0
    up[:1], mid[:1], down[:1] = 2 / (apb + 2), (beta - alpha) / (apb + 2), 0 * apb
    j = i[1:]
    s = 2 * j + apb
    up[1:] = 2 * (j + 1) * (j + 1 + apb) / ((s + 1) * (s + 2))
    mid[1:] = (beta * beta - alpha * alpha) / (s * (s + 2))
    down[1:] = 2 * (j + alpha) * (j + beta) / (s * (s + 1))
    return up, mid, down


# ---------------------------------------------------------------------------
# floating-point evaluation


def jacobi_table(params: JacobiParams, kmax: int, t) -> np.ndarray:
    """Values of P_0 .. P_kmax at the points t (raveled), shape (t.size, kmax+1).

    P_{n+1} = ((t - mid_n) P_n - down_n P_{n-1}) / up_n from jacobi_operator,
    with P_{-1} = 0, vectorized over t; stable for all k used here.  The
    recurrence runs on contiguous vectors P_{n-1}, P_n, and each new degree is
    written once into its column.  A degree-major (kmax+1, t.size) build with
    a transposed copy is faster still, but holds the table twice at its peak.
    """
    kmax = _count("kmax", kmax, 0)
    t = np.asarray(t, dtype=float).ravel()
    up, mid, down = jacobi_operator(kmax, params.alpha, params.beta)
    out = np.empty((t.size, kmax + 1))
    out[:, 0] = 1.0
    prev, cur = np.zeros(t.size), np.ones(t.size)
    for n in range(kmax):
        prev, cur = cur, ((t - mid[n]) * cur - down[n] * prev) / up[n]
        out[:, n + 1] = cur
    return out


def _shaped(vals: np.ndarray, t):
    """vals reshaped to the shape of t; a float for a scalar t."""
    return float(vals[0]) if np.ndim(t) == 0 else vals.reshape(np.shape(t))


# Unknowns per banded solve, so that the work arrays of one solve stay bounded
# for any number of points t.  A point costs n + 1 unknowns of 4 doubles (band
# and right-hand side), about 8 kB at n = 256, so one solve over 10^5 points
# would allocate about 0.8 GB.  The program's own calls, the polish rounds and
# labels of a block of up to 8 states in continuation, take a few dozen points:
# one or two solves per call at N = 64, and several at N = 256.
_BAND_UNKNOWNS = 5000


@lru_cache(maxsize=None)
def _clenshaw_operator(params: JacobiParams, n: int) -> tuple[np.ndarray, ...]:
    """mid_j and up_j for j < n, and the (n + 1, 3) band template of one
    point: row j holds the coefficients of b_j in equations j - 2, j - 1 and
    j (ratio_{j-2} = down_{j-1} / up_{j-1}, a placeholder 0 for the point's
    own entry, and 1), 0 where j < 2."""
    up, mid, down = jacobi_operator(n, params.alpha, params.beta)
    band = np.zeros((n + 1, 3))
    band[:, 2] = 1.0
    band[2:, 0] = down[1:] / up[1:]
    for a in (mid, up, band):
        a.setflags(write=False)
    return mid, up, band


def stacked_series(series, x: np.ndarray) -> np.ndarray:
    """Row s holds sum_i c_i P_i at the interior points of the 1-d x, for
    (params, c) = series[s], all rows from the same banded LAPACK solves.  A
    2-d c holds one row of coefficients per point of x, so that each point
    sums its own series.

    Clenshaw's recurrence b_j - ((t - mid_j) / up_j) b_{j+1} + ratio_j b_{j+2}
    = c_j of one series at one point is a unit upper-triangular system of
    bandwidth 2 in b_0 .. b_n, and its sum is b_0.  Point p owns one such
    block per series, in the order of ``series``, one after another.  Rows 0
    and 1 of each block hold zeros where they would reach into the block
    before, so the blocks do not couple and every row equals the sum of its
    series alone, bit for bit.  The band is built point-major
    in a C-order (unknowns, 3) array, whose transpose is the Fortran layout
    dtbtrs reads without a copy.  One solve takes as many points as fit in
    _BAND_UNKNOWNS unknowns; the split does not change the result.  The
    recurrences lose digits at t = +-1 when an exponent is near -1, so
    jacobi_series takes those points from the closed form instead.
    """
    ops = [_clenshaw_operator(params, c.shape[-1] - 1) for params, c in series]
    starts = np.cumsum([0] + [c.shape[-1] for _, c in series])
    width = int(starts[-1])
    template = np.concatenate([band for _, _, band in ops])
    step = max(1, _BAND_UNKNOWNS // width)
    out = np.empty((len(series), x.size))
    for lo in range(0, x.size, step):
        xs = x[lo : lo + step]
        band = np.empty((xs.size, width, 3))
        band[:] = template
        for (mid, up, _), s in zip(ops, starts):
            band[:, s + 1 : s + 1 + mid.size, 1] = (mid - xs[:, None]) / up
        rhs = np.empty((xs.size, width))  # its own buffer: dtbtrs overwrites it
        for (_, c), s, e in zip(series, starts[:-1], starts[1:]):
            rhs[:, s:e] = c if c.ndim == 1 else c[lo : lo + xs.size]
        ab = band.reshape(-1, 3).T
        b, info = dtbtrs(ab, rhs.reshape(-1, 1), uplo="U", diag="U", overwrite_b=1)
        if info != 0:
            raise NumericalBreakdownError(f"banded Clenshaw solve failed: dtbtrs info={info}")
        out[:, lo : lo + xs.size] = b.reshape(xs.size, width)[:, starts[:-1]].T
    return out


def jacobi_series(params: JacobiParams, coeffs, t):
    """sum_i coeffs_i P_i at the points t.

    At t = +-1 the sum is coeffs @ (P_i(+-1)), from the closed-form endpoint
    values (_endpoint_vector); the recurrences lose digits there when an
    exponent is near -1.  Elsewhere it is Clenshaw's backward recurrence:
    with P_{j+1} = ((t - mid_j) P_j - down_j P_{j-1}) / up_j from
    jacobi_operator, b_j = c_j + (t - mid_j) b_{j+1} / up_j
    - (down_{j+1} / up_{j+1}) b_{j+2} runs down from b_{n+1} = b_{n+2} = 0,
    and the sum is b_0 since P_0 = 1 and down_0 = 0.  All points are summed
    together by banded solves (stacked_series), and no (len(t), n) table is
    built.  The result has the shape of t, and a scalar t gives a float.
    Several series at the same interior points, such as u - 1, u' and u''
    in the root polish of ``continuation``, share one such solve when passed
    to stacked_series together.
    """
    c = np.asarray(coeffs, dtype=float).ravel()
    if c.size == 0:
        raise ParameterError("a series needs at least one coefficient")
    t = np.asarray(t, dtype=float)
    x = t.ravel()
    inner = np.abs(x) != 1.0
    vals = np.empty(x.size)
    if inner.any():
        vals[inner] = stacked_series(((params, c),), x[inner])[0]
    for side in (-1, 1):
        at = x == side
        if at.any():
            vals[at] = _endpoint_vector(params, c.size, side) @ c
    return _shaped(vals, t)


# The scans of a state use one connection matrix, that of u - 1 in its own
# basis (continuation takes u' and u'' from its Chebyshev coefficients), 0.5 MB
# at N = 256.  Keeping three at most bounds the memory when one process traces
# several parameter sets: over the two fold-n256 cases, peak RSS read 1.8 MB
# higher with an unbounded cache when each state still used three.
@lru_cache(maxsize=3, typed=True)
def chebyshev_connection(params: JacobiParams, n: int) -> np.ndarray:
    """The (n, n) matrix C with sum_i c_i P_i = sum_k (C c)_k T_k for n
    coefficients c (read-only): column i holds the Chebyshev coefficients of
    P_i, so C is upper triangular.  They come from the recurrence
    P_{j+1} = ((t - mid_j) P_j - down_j P_{j-1}) / up_j of jacobi_operator,
    run on Chebyshev coefficient vectors, where multiplication by t is
    t T_0 = T_1 and t T_k = (T_{k+1} + T_{k-1}) / 2; no values at rounded
    nodes enter.  P_j is built as row j and the result is the transpose.
    Cached by argument type, as exact_coeffs is.
    """
    n = _count("n", n, 1)
    up, mid, down = jacobi_operator(n - 1, params.alpha, params.beta)
    rows = np.zeros((n, n))
    rows[0, 0] = 1.0
    prev = np.zeros(n)
    for j in range(n - 1):
        cur = rows[j]  # degree j < n - 1, so t P_j still fits in n coefficients
        t_cur = np.zeros(n)
        t_cur[1:] = 0.5 * cur[:-1]
        t_cur[:-1] += 0.5 * cur[1:]
        t_cur[1] += 0.5 * cur[0]
        rows[j + 1] = (t_cur - mid[j] * cur - down[j] * prev) / up[j]
        prev = cur
    conn = np.ascontiguousarray(rows.T)
    conn.setflags(write=False)
    return conn


def _chebyshev_values(a: np.ndarray, m: int) -> np.ndarray:
    """sum_k a[..., k] T_k at the m increasing points -cos(pi (j + 1/2) / m),
    for every row of a (at most m coefficients each); with a = C c
    (chebyshev_connection) these are the sums of sum_i c_i P_i.

    With T_k(-cos theta) = (-1)^k cos(k theta), the sums are the DCT-III
    f_j = sum_k (-1)^k a_k cos(pi k (2 j + 1) / 2m), taken as one real
    inverse FFT of length 2m of z_k = m (-1)^k a_k e^{i pi k / 2m}
    (z_0 = 2m a_0), whose first m entries are f.  The FFT transforms each row
    on its own, so a row's sums do not depend on the other rows."""
    n = a.shape[-1]
    z = np.zeros(a.shape[:-1] + (m + 1,), dtype=complex)
    z[..., :n] = (m * a) * np.exp(0.5j * np.pi * np.arange(n) / m)
    z[..., 1:n:2] *= -1.0
    z[..., 0] *= 2.0
    return np.fft.irfft(z, 2 * m)[..., :m]


def eval_jacobi(k: int, params: JacobiParams, t):
    """P_k at t (scalar or array), normalized so P_k(1) = (alpha+1)_k / k!."""
    k = _count("k", k, 0)
    return _shaped(jacobi_table(params, k, t)[:, k], t)


def _endpoint_values(params: JacobiParams, n: int, side: int) -> list[tuple[int, int]]:
    """P_0 .. P_{n-1} at side in {-1, +1}, by the running product
    P_k(1) = (alpha+1)_k / k!  and  P_k(-1) = (-1)^k (beta+1)_k / k!, as
    unreduced (numerator, denominator) int pairs, prod_{j<=k} side (p + j q)
    / (j q) for the exponent p / q."""
    base = params.exact[0 if side == 1 else 1]
    p, q = base.numerator, base.denominator
    pairs = [(1, 1)]
    for j in range(1, n):
        num, den = pairs[-1]
        pairs.append((num * side * (p + j * q), den * j * q))
    return pairs


@lru_cache(maxsize=None)
def _endpoint_vector(params: JacobiParams, n: int, side: int) -> np.ndarray:
    """_endpoint_values as a read-only float vector (int / int rounds once)."""
    vec = np.array([num / den for num, den in _endpoint_values(params, n, side)], dtype=float)
    vec.setflags(write=False)
    return vec


def endpoint_value(k: int, params: JacobiParams, side: int) -> Fraction:
    """Closed-form P_k(side) for side in {-1, +1} (see _endpoint_values), exactly."""
    k = _count("k", k, 0)
    if side not in (-1, 1):
        raise ParameterError("side must be -1 or +1")
    return Fraction(*_endpoint_values(params, k + 1, int(side))[k])


# ---------------------------------------------------------------------------
# exact polynomial arithmetic


@dataclass(frozen=True)
class ExactPolynomial:
    """Polynomial with exact rational monomial coefficients.

    ``coeffs[i]`` multiplies t^i; the empty tuple is the zero polynomial.
    """

    coeffs: tuple[Fraction, ...]

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, t):
        """Horner evaluation: exact for int/Fraction t, a float for a float t
        (Fraction + float is a float)."""
        acc = 0
        for coef in reversed(self.coeffs):
            acc = acc * t + coef
        return acc

    def __mul__(self, other: "ExactPolynomial") -> "ExactPolynomial":
        """One integer convolution, each operand over one denominator."""
        if not self.coeffs or not other.coeffs:
            return exact_poly([])
        a, b = ExactVector.from_rationals(self.coeffs), ExactVector.from_rationals(other.coeffs)
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a.num):
            if x:
                j = i + len(b)
                out[i:j] = [o + x * y for o, y in zip(out[i:j], b.num)]
        return exact_poly(ExactVector(out, a.den * b.den))


def exact_poly(coeffs) -> ExactPolynomial:
    """Normalize a coefficient sequence (trim trailing zeros, Fraction-ify)."""
    cs = [Fraction(c) for c in coeffs]
    while cs and cs[-1] == 0:
        cs.pop()
    return ExactPolynomial(tuple(cs))


def apply_L(p: ExactPolynomial, params: JacobiParams) -> ExactPolynomial:
    """Exact image of p under L(y) = (1-t^2) y'' + (beta-alpha-(alpha+beta+2)t) y':
    its t^j coefficient is (j+2)(j+1) c_{j+2} + (j+1)(beta-alpha) c_{j+1}
    - j(j+alpha+beta+1) c_j."""
    al, be = params.exact
    c = p.coeffs + (0, 0)
    return exact_poly(
        (j + 2) * (j + 1) * c[j + 2] + (j + 1) * (be - al) * c[j + 1] - j * (j + al + be + 1) * c[j]
        for j in range(len(p.coeffs))
    )


@lru_cache(maxsize=None, typed=True)
def exact_coeffs(k: int, params: JacobiParams) -> ExactPolynomial:
    """Exact monomial coefficients of P_k.

    Builds the degree-k eigenpolynomial of L for eigenvalue -k(k+a) by a
    descending coefficient recurrence (each lower-degree correction term is
    uniquely solvable since the eigenvalues j(j+a) are distinct for j <= k),
    then rescales so the value at 1 matches (alpha+1)_k / k!.  Fraction-free:
    with alpha = A / L and beta = B / L the divisor (k - m)(k + m + a) is
    D_m / L, D_m = (k - m)((k + m + 1) L + A + B) > 0, and over the common
    denominator D_0 .. D_{k-1} the monic numerators are N_k = D_0 .. D_{k-1},
    N_m = -((m + 1)(B - A) N_{m+1} + (m + 2)(m + 1) L N_{m+2}) / D_m, exactly.
    Cached by argument type (typed), so a float or bool k never reads the
    entry of its int twin and always reaches the degree check.
    """
    k = _count("k", k, 0)
    v = ExactVector.from_rationals(params.exact)
    (A, B), L = v.num, v.den
    d = [(k - m) * ((k + m + 1) * L + A + B) for m in range(k)]
    n = [0] * k + [math.prod(d), 0]  # N_0 .. N_{k+1}
    for m in range(k - 1, -1, -1):
        n[m] = -((m + 1) * (B - A) * n[m + 1] + (m + 2) * (m + 1) * L * n[m + 2]) // d[m]
    n.pop()  # N_{k+1} = 0
    e_num, e_den = _endpoint_values(params, k + 1, +1)[k]
    den = sum(n) * e_den  # > 0: P_k(1) and the monic P_k at 1 are positive
    return ExactPolynomial(tuple(Fraction(x * e_num, den) for x in n))


# ---------------------------------------------------------------------------
# weight moments and quadrature


@lru_cache(maxsize=None)
def rel_weight_moments(params: JacobiParams, jmax: int) -> tuple[Fraction, ...]:
    """Moments m_j / m_0 of the weight, m_j = int t^j (1-t)^a (1+t)^b dt.

    The ratios are rational and follow from integrating
    d/dt [ t^j (1-t)^(alpha+1) (1+t)^(beta+1) ] over [-1, 1].
    On ints, with alpha = A / L, beta = B / L and E_j = (j + 2) L + A + B,
    r_j = s_j / (E_0 .. E_{j-1}) and s_{j+1} = (B - A) s_j + j L E_{j-1} s_{j-1}.
    """
    v = ExactVector.from_rationals(params.exact)
    (A, B), L = v.num, v.den
    r = [Fraction(1)]
    s_prev, s, den = 0, 1, 1
    for j in range(jmax):
        s_prev, s = s, (B - A) * s + j * L * ((j + 1) * L + A + B) * s_prev
        den *= (j + 2) * L + A + B
        r.append(Fraction(s, den))
    return tuple(r)


def weight_mass(params: JacobiParams) -> float:
    """Total mass m_0 = 2^(alpha+beta+1) B(alpha+1, beta+1)."""
    al, be = params.alpha, params.beta
    return math.exp(
        (al + be + 1.0) * math.log(2.0)
        + math.lgamma(al + 1.0)
        + math.lgamma(be + 1.0)
        - math.lgamma(al + be + 2.0)
    )


def weight_mass_exact(params: JacobiParams) -> Fraction | None:
    """Exact m_0 when it is rational (integer alpha, beta >= 0), else None."""
    al, be = params.exact
    if al.denominator != 1 or be.denominator != 1 or al < 0 or be < 0:
        return None
    ai, bi = int(al), int(be)
    num = 2 ** (ai + bi + 1) * math.factorial(ai) * math.factorial(bi)
    return Fraction(num, math.factorial(ai + bi + 1))


def integrate_relative(p: ExactPolynomial, params: JacobiParams) -> Fraction:
    """Exact (int p w dt) / m_0 for an exact polynomial p: an integer dot product."""
    if not p.coeffs:
        return Fraction(0)
    r = rel_weight_moments(params, p.degree)
    terms = ExactVector.from_rationals(p.coeffs) * ExactVector.from_rationals(r)
    return Fraction(sum(terms.num), terms.den)


@dataclass(eq=False)
class QuadratureRule:
    """Gauss rule for the Jacobi weight: int f w dt ~ weights @ f(nodes), exact
    for degree <= 2 * nodes.size - 1."""

    nodes: np.ndarray
    weights: np.ndarray


@lru_cache(maxsize=None, typed=True)
def gauss_jacobi_rule(params: JacobiParams, m: int) -> QuadratureRule:
    """m-point Gauss-Jacobi rule by Golub-Welsch.

    The symmetric Jacobi matrix has the diagonal mid and the off-diagonal
    sqrt(up_j down_{j+1}) of jacobi_operator; nodes are its eigenvalues,
    weights are m_0 times the squared first eigenvector components.  Cached
    by argument type, as exact_coeffs is.
    """
    m = _count("m", m, 1)
    up, mid, down = jacobi_operator(m, params.alpha, params.beta)
    try:
        nodes, vecs = eigh_tridiagonal(mid, np.sqrt(up[:-1] * down[1:]))
    except (np.linalg.LinAlgError, ValueError) as exc:  # LAPACK's info != 0; MemoryError passes
        raise NumericalBreakdownError(f"tridiagonal eigensolve failed: {exc}") from exc
    weights = weight_mass(params) * vecs[0, :] ** 2
    if not (
        np.all(weights > 0.0)
        and np.all(np.diff(nodes) > 0.0)
        and nodes[0] > -1.0
        and nodes[-1] < 1.0
    ):
        raise NumericalBreakdownError("Golub-Welsch produced an invalid rule")
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return QuadratureRule(nodes, weights)


def weighted_norm_sq(k: int, params: JacobiParams) -> float:
    """h_k = int P_k^2 w dt, computed with a (k+1)-point Gauss rule."""
    k = _count("k", k, 0)
    rule = gauss_jacobi_rule(params, k + 1)
    vals = jacobi_table(params, k, rule.nodes)[:, k]
    return float(rule.weights @ (vals * vals))


def norm_sq_closed_form(k: int, params: JacobiParams) -> float:
    """The standard closed form for h_k, via log-gamma."""
    k = _count("k", k, 0)
    al, be = params.alpha, params.beta
    if k == 0 and al + be + 1.0 <= 0.0:  # log-gamma form singular or wrong-signed
        return weight_mass(params)
    return math.exp(
        (al + be + 1.0) * math.log(2.0)
        + math.lgamma(k + al + 1.0)
        + math.lgamma(k + be + 1.0)
        - math.lgamma(k + al + be + 1.0)
        - math.lgamma(k + 1.0)
    ) / (2.0 * k + al + be + 1.0)


def jacobi_zeros(k: int, params: JacobiParams) -> np.ndarray:
    """The k increasing zeros of P_k in (-1, 1): Gauss nodes + one Newton polish."""
    k = _count("k", k, 1)
    x = np.array(gauss_jacobi_rule(params, k).nodes)
    f = jacobi_table(params, k, x)[:, k]
    sp, dc = derivative_series(params, np.arange(k + 1) == k)  # d/dt P_k = dc[k-1] P_{k-1}^sp
    x -= f / (dc[k - 1] * jacobi_table(sp, k - 1, x)[:, k - 1])
    return x


@lru_cache(maxsize=None)
def _shifted_params(params: JacobiParams) -> JacobiParams:
    """(alpha+1, beta+1): one object per parameter set, so that the caches
    keyed on the derivative's parameters match it by identity."""
    al, be = params.exact
    return jacobi_params(al + 1, be + 1)


def derivative_series(params: JacobiParams, coeffs: np.ndarray):
    """Coefficients of d/dt of sum c_i P_i, in the (alpha+1, beta+1) basis, by
    the degree/parameter shift identity

    d/dt P_i = (i + alpha + beta + 1)/2 * P_{i-1}^{(alpha+1, beta+1)},

    along the last axis of coeffs, so each row of a 2-d array is one series.
    Equal parameters give the same (alpha+1, beta+1) object.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    sp = _shifted_params(params)
    if coeffs.ndim == 0 or coeffs.shape[-1] <= 1:
        return sp, np.zeros(coeffs.shape[:-1] + (1,))
    i = np.arange(1, coeffs.shape[-1], dtype=float)
    return sp, coeffs[..., 1:] * (i + params.a) / 2.0
