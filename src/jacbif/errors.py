"""Exception hierarchy shared by all modules."""


class JacbifError(Exception):
    """Base class for all library errors."""


class ParameterError(JacbifError, ValueError):
    """Invalid configuration or a violated precondition (bad degree,
    non-integrable weight, hypothesis violation, parity violation, ...)."""


class NumericalError(JacbifError, RuntimeError):
    """Base class for runtime numerical failures."""


class NumericalBreakdownError(NumericalError):
    """An eigensolver or quadrature construction produced unusable output."""


class NewtonDivergenceError(NumericalError):
    """A Newton corrector failed to converge within its iteration budget.

    When continue_branch gives up below ds_min, ``s`` is the arclength traced
    so far, ``lam`` lambda at the last accepted point and ``ds`` the last step
    tried; elsewhere they are None.
    """

    def __init__(self, message: str, *, s=None, lam=None, ds=None):
        super().__init__(message)
        self.s, self.lam, self.ds = s, lam, ds


class NonpositiveStateError(NumericalError):
    """The state is not strictly positive at the quadrature nodes, so u^q
    cannot be evaluated for non-integer q."""


class NoFoldBracketError(NumericalError):
    """The lambda component tau_lam of the unit tangents stored on the points
    of the traced branch (BranchPoint.tangent) never changes sign, so no fold
    is bracketed and there is nothing to localize."""


class TangencyError(NumericalError):
    """A root of the scanned function is nearly tangent; counts would be
    unreliable at the current resolution.  ``t`` is the root and ``slope``
    the |f'| there that failed the transversality test."""

    def __init__(self, message: str, *, t=None, slope=None):
        super().__init__(message)
        self.t, self.slope = t, slope


class StructureViolationError(NumericalError):
    """A structural self-check failed; this signals an implementation bug
    rather than a mathematical impossibility."""
