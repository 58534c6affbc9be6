"""Exception types shared across the toolkit.

Geometric precondition failures (convexity, symmetry, ...) are kept separate
from numerical failures (blow-up, step control) so that callers can map them
to distinct exit codes.
"""


class CurveFlowError(Exception):
    """Base class for all toolkit errors."""


class InputError(CurveFlowError):
    """Invalid input data (too few points, degenerate geometry, bad files)."""


class TooFewPoints(InputError):
    pass


class DegenerateSegment(InputError):
    pass


class GeometricPreconditionError(CurveFlowError):
    """A geometric precondition (convexity, origin placement, ...) failed."""


class NotConvex(GeometricPreconditionError):
    pass


class OriginOutside(GeometricPreconditionError):
    pass


class NotAnOval(GeometricPreconditionError):
    """Support samples violate p + p'' > 0 somewhere."""


class NotSymmetric(GeometricPreconditionError):
    pass


class NotAShrinker(GeometricPreconditionError):
    pass


class NotConvexAfterGluing(GeometricPreconditionError):
    """Symmetrized half lost convexity; the discretization is too coarse."""


class NumericalError(CurveFlowError):
    """Numerical failure during integration or iteration."""


class BlowUp(NumericalError):
    pass


class ToleranceNotMet(NumericalError):
    pass


class SolverFailed(NumericalError):
    """An external optimizer (the inradius LP) reported failure."""


class CurveCollapsed(NumericalError):
    """A flow step would take the curve's length, or the renormalized flow's
    area, to zero."""


class IsoperimetricViolation(InputError):
    """Area/length pair with L^2 - 4*pi*A significantly negative."""


class TooFewSamples(InputError):
    pass
