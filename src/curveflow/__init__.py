"""Plane-curve toolkit for the curve shortening flow.

Discrete closed curves, Minkowski support functions, self-shrinker
verification, spectral flow stepping, Bonnesen inequality machinery, and
Gage's equal-area-chord symmetrization; together they reproduce the numerical
evidence that the circle is the only closed embedded contracting homothetic
solution of the flow.

The package namespace is lazy. ``_EXPORTS`` lists the names each submodule
exports, and the module ``__getattr__`` (PEP 562) looks ``curveflow.<name>``
up in its submodule on every access, importing the submodule the first time.
So ``import curveflow`` loads ``symmetrize`` and the modules it imports
(``curves``, ``errors``, ``support``), and each other submodule only when one
of its names is first read. No name is cached here: while a tracer has
swapped a submodule's function, ``curveflow.<name>`` returns the swapped
object, and the original once it is put back. The submodules resolve as
``curveflow.flow`` and so on, as they did when the package imported them all,
and ``from curveflow import *`` binds every exported name and submodule
through ``__all__``. A tracer may be the first to import ``flow``,
``shrinker`` or ``bonnesen``; those modules read the traced ``curves``
functions through the module, so no wrapper stays bound in them after the
tracer undoes its swaps.

``symmetrize`` is the one name bound eagerly. The function shares its name
with its submodule, and the first import of ``curveflow.symmetrize`` binds
the package attribute to the module. Importing the function here, during that
first import, rebinds the attribute to the function for good.
"""

import importlib as _importlib
import sys as _sys

from .symmetrize import symmetrize

__version__ = "0.1.0"

_EXPORTS = {
    "bonnesen": ["BonnesenReport", "bonnesen_chain", "bonnesen_roots", "circumradius",
                 "inradius", "minimal_enclosing_circle"],
    "curves": ["ClosedCurve", "FrenetData", "centroid", "is_convex", "is_simple", "length",
               "read_curve_csv", "resample_arclength", "signed_area", "signed_curvature",
               "turning_number", "winding_number", "write_curve_csv"],
    "errors": ["BlowUp", "CurveCollapsed", "CurveFlowError", "DegenerateSegment",
               "IsoperimetricViolation", "NotAnOval", "NotAShrinker", "NotConvex",
               "NotConvexAfterGluing", "NotSymmetric", "OriginOutside", "SolverFailed",
               "ToleranceNotMet", "TooFewPoints", "TooFewSamples"],
    "flow": ["FlowState", "FlowTrajectory", "SimilarityProfile", "area_decay_check", "csf_step",
             "rescaled_flow", "run_flow", "suggested_dt", "write_curve_svg"],
    "shrinker": ["ClassificationReport", "OdeTrajectory", "ShrinkerReport",
                 "classify_closed_solutions", "fundamental_residual", "gauge_constant",
                 "integrate_support_ode", "ode_energy", "period_by_quadrature", "shoot_period",
                 "verify_shrinker"],
    "support": ["SupportFunction", "area_from_support", "cauchy_length", "curve_from_support",
                "support_from_curve", "write_support_csv"],
    "symmetrize": ["ChordCut", "SymmetrizedPair", "SymmetricShrinkerReport", "chord_cut",
                   "find_bisecting_chord", "symmetric_shrinker_check", "symmetrize"],
}
# exported name -> the submodule that defines it
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(set(_EXPORTS) | set(_MODULE_OF))


def __getattr__(name):
    if name in _EXPORTS:
        return _importlib.import_module(f"{__name__}.{name}")
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    qualified = f"{__name__}.{module}"
    return getattr(_sys.modules.get(qualified) or _importlib.import_module(qualified), name)


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS) | set(_MODULE_OF))
