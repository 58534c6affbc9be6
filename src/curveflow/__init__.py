"""Plane-curve toolkit for the curve shortening flow.

Discrete closed curves, Minkowski support functions, self-shrinker
verification, spectral flow stepping, Bonnesen inequality machinery, and
Gage's equal-area-chord symmetrization; together they reproduce the numerical
evidence that the circle is the only closed embedded contracting homothetic
solution of the flow.
"""

from .bonnesen import (
    BonnesenReport,
    bonnesen_chain,
    bonnesen_roots,
    circumradius,
    inradius,
    minimal_enclosing_circle,
)
from .curves import (
    ClosedCurve,
    FrenetData,
    centroid,
    is_convex,
    is_simple,
    length,
    read_curve_csv,
    resample_arclength,
    signed_area,
    signed_curvature,
    turning_number,
    winding_number,
    write_curve_csv,
)
from .errors import (
    BlowUp,
    CurveCollapsed,
    CurveFlowError,
    DegenerateSegment,
    IsoperimetricViolation,
    NotAnOval,
    NotAShrinker,
    NotConvex,
    NotConvexAfterGluing,
    NotSymmetric,
    OriginOutside,
    SolverFailed,
    ToleranceNotMet,
    TooFewPoints,
    TooFewSamples,
)
from .flow import (
    FlowState,
    FlowTrajectory,
    SimilarityProfile,
    area_decay_check,
    csf_step,
    rescaled_flow,
    run_flow,
    suggested_dt,
    write_curve_svg,
)
from .shrinker import (
    ClassificationReport,
    OdeTrajectory,
    ShrinkerReport,
    classify_closed_solutions,
    fundamental_residual,
    gauge_constant,
    integrate_support_ode,
    ode_energy,
    period_by_quadrature,
    shoot_period,
    verify_shrinker,
)
from .support import (
    SupportFunction,
    area_from_support,
    cauchy_length,
    curve_from_support,
    support_from_curve,
    write_support_csv,
)
from .symmetrize import (
    ChordCut,
    SymmetrizedPair,
    SymmetricShrinkerReport,
    chord_cut,
    find_bisecting_chord,
    symmetric_shrinker_check,
    symmetrize,
)

__version__ = "0.1.0"
