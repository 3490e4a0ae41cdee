"""Exact-arithmetic construction and cross-verification of weighted GJMS
operators on the quasi-Einstein and Gover-Leitner model backgrounds."""

from .ambient import (
    GjmsPolynomial,
    HomogeneousFunction,
    ObstructedWeight,
    RestrictionError,
    ambient_laplacian,
    gjms_iterated,
    gjms_recursion,
    harmonic_extension,
    obstruction,
)
from .backgrounds import Background, SpaceformReport, verify_spaceform_conditions
from .core import AlgebraError, OrderShortfall, SigmaPoly, VariableMismatch, rat, rat_str
from .factorization import RouteReport, cross_route_report, gl_product, qe_product
from .scattering import (
    GreensLogReport,
    ScatteringSolution,
    apply_Ds,
    gjms_route_scattering,
    greens_log_coefficient,
    scattering_solve,
)
from .series import LogSeries, TruncatedSeries
from .sl2 import NcPoly, extract_Zk, verify_commutator_identity

__all__ = [
    "AlgebraError",
    "Background",
    "GjmsPolynomial",
    "GreensLogReport",
    "HomogeneousFunction",
    "LogSeries",
    "NcPoly",
    "ObstructedWeight",
    "OrderShortfall",
    "RestrictionError",
    "RouteReport",
    "ScatteringSolution",
    "SigmaPoly",
    "SpaceformReport",
    "TruncatedSeries",
    "VariableMismatch",
    "ambient_laplacian",
    "apply_Ds",
    "cross_route_report",
    "extract_Zk",
    "gjms_iterated",
    "gjms_recursion",
    "gjms_route_scattering",
    "gl_product",
    "greens_log_coefficient",
    "harmonic_extension",
    "obstruction",
    "qe_product",
    "rat",
    "rat_str",
    "scattering_solve",
    "verify_commutator_identity",
    "verify_spaceform_conditions",
]
