"""Exact-arithmetic computation of the topological Z_p-module structure
of E_0(K) for elliptic curves with additive reduction over finite
extensions K of Q_p."""

__version__ = "0.1.0"

from .classifier import (ClassificationReport, GroupStructure,
                         classify_congruence, classify_general,
                         classify_unramified, ramified_g_map)
from .curve import (CurvePoint, WeierstrassCurve, normalize_additive,
                    psi_E0, reduce_point, reduction_type)
from .local_field import LocalField
from .oracle import FiniteModel, compare, finite_model

__all__ = [
    "ClassificationReport", "GroupStructure", "classify_congruence",
    "classify_general", "classify_unramified", "ramified_g_map",
    "CurvePoint", "WeierstrassCurve", "normalize_additive", "psi_E0",
    "reduce_point", "reduction_type", "LocalField",
    "FiniteModel", "compare", "finite_model", "__version__",
]
