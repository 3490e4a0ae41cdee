"""Closed-form expansion data for the two model backgrounds.

Both models deform the base metric and weight by polynomial factors in rho
that are constant on the base manifold, g(x,rho) = c(rho)^2 g(x) and
f(x,rho) = q(rho) f(x), so on a fixed eigenfunction sector every geometric
input reduces to a scalar series.  ``Background`` states each family's c and
q.  The r picture is the rho picture composed with rho = -r^2/2, with primes
meaning d/dr there.
"""

from __future__ import annotations

from fractions import Fraction
from math import prod
from typing import Any, Callable

from .core import AlgebraError, RatLike, Record, rat, rat_str
from .series import R, RHO, PolynomialOperator, TruncatedSeries

QUASI_EINSTEIN = "quasi_einstein"
GOVER_LEITNER = "gover_leitner"


def check_dimensions(d: int, m: RatLike) -> Fraction:
    """Return m as a rational, or raise unless d is an integer >= 2, m >= 0
    and d + m != 2 (the one statement of the dimension rule)."""
    m = rat(m)
    if not isinstance(d, int) or isinstance(d, bool) or d < 2:
        raise AlgebraError("d must be an integer >= 2")
    if m < 0:
        raise AlgebraError("m must be >= 0")
    if d + m == 2:
        raise AlgebraError("d + m = 2 degenerates the weighted Schouten data")
    return m


class Background(Record):
    _fields = ("kind", "d", "m", "lam")
    # dm = d + m; c and q, the factors' rho-coefficients (constant term 1);
    # and (picture, formula) -> the operator prepared on this instance: all
    # outside ==, hash and repr, so equal backgrounds stay equal
    __slots__ = _fields + ("dm", "c", "q", "_operators")

    def __init__(self, kind: str, d: int, m: RatLike, lam: RatLike | None = None):
        if kind not in (QUASI_EINSTEIN, GOVER_LEITNER):
            raise AlgebraError(f"unknown background kind {kind!r}")
        if lam is not None:
            lam = rat(lam)
        m = check_dimensions(d, m)
        if kind == QUASI_EINSTEIN and lam is None:
            raise AlgebraError("quasi-Einstein background needs lambda")
        if kind == GOVER_LEITNER and lam is not None:
            raise AlgebraError("Gover-Leitner background has no lambda")
        c, q = ((1, lam), (1, lam)) if kind == QUASI_EINSTEIN else ((1, Fraction(-1, 2)), (1, Fraction(1, 2)))
        Record.__init__(self, kind, d, m, lam, d + m, c, q, {})

    @classmethod
    def quasi_einstein(cls, d: int, m: RatLike, lam: RatLike) -> "Background":
        return cls(QUASI_EINSTEIN, d, m, lam)

    @classmethod
    def gover_leitner(cls, d: int, m: RatLike) -> "Background":
        return cls(GOVER_LEITNER, d, m)

    def prepared(self, picture: str, coefficients: Callable) -> PolynomialOperator:
        """The route operator a*v*P'' + (b0 + v*b1)*P' + (c0 + x*c1)*P in the
        picture's variable v, with (b1, c0, c1) = coefficients(T, LF).

        T (``trace_term``), LF (``laplacian_factor``) and the unit u (``unit``)
        are read once, at order 2 deg(u) + 2: times u, each coefficient has
        degree at most deg(u) + 1, and PolynomialOperator checks that the
        upper deg(u) + 1 vanish and keeps u, u*b1, u*c0 and u*c1 as integer
        polynomials.  Made once per instance and key, and shared by every
        weight, order and level; an equal Background prepares its own.
        """
        key = (picture, coefficients)
        if key not in self._operators:
            deg_u = sum(len(getattr(self, f)) - 1 for f in self._unit_factors()) * (2 if picture == R else 1)
            n = 2 * deg_u + 2
            t, lf = self.trace_term(picture, n), self.laplacian_factor(picture, n)
            self._operators[key] = PolynomialOperator(self.unit(picture, n), *coefficients(t, lf))
        return self._operators[key]

    def label(self) -> str:
        if self.kind == QUASI_EINSTEIN:
            return f"QE(d={self.d}, m={rat_str(self.m)}, lambda={rat_str(self.lam)})"
        return f"GL(d={self.d}, m={rat_str(self.m)})"

    # -- model factors -----------------------------------------------------
    #
    # c or q as a series in the picture's variable: the r picture substitutes
    # rho = -r^2/2.

    def _factor(self, which: str, picture: str, order: int) -> TruncatedSeries:
        coeffs = getattr(self, which)
        factor = TruncatedSeries(RHO, coeffs, len(coeffs) - 1)
        if picture == R:
            factor = factor.substitute_rho()
        elif picture != RHO:
            raise AlgebraError(f"unknown picture {picture!r}")
        return factor.as_exact(order)

    def _unit_factors(self) -> tuple[str, ...]:
        """The factors of u = c lcm(c, q).  Two linear factors with constant
        term 1 are equal or coprime, so lcm(c, q) is c when q = c (QE) and
        c q otherwise (GL)."""
        return ("c", "c") if self.q == self.c else ("c", "c", "q")

    def unit(self, picture: str, order: int) -> TruncatedSeries:
        """u = c lcm(c, q), the least polynomial that every expansion
        accessor's denominator divides: T = (d+m) c'/c and LF = c^-2 for QE,
        so u = c^2 there, and c^2 q for GL."""
        first, *rest = (self._factor(f, picture, order) for f in self._unit_factors())
        return prod(rest, start=first)

    # -- expansion accessors ------------------------------------------------
    #
    # Each call builds its series afresh.  ``prepared`` reads trace_term (so
    # both traces) and laplacian_factor once per picture and instance, and a
    # Green pairing reads density_factor once.

    def metric_trace(self, picture: str, order: int) -> TruncatedSeries:
        """g^{ij} g'_{ij} = 2 d c'/c for a conformal family g = c^2 g0."""
        c = self._factor("c", picture, order + 1)
        return (2 * self.d * c.derivative() * c.reciprocal()).truncate(order)

    def measure_trace(self, picture: str, order: int) -> TruncatedSeries:
        """(m/f) f' = m q'/q for a weight family f = q f0."""
        q = self._factor("q", picture, order + 1)
        return (self.m * q.derivative() * q.reciprocal()).truncate(order)

    def trace_term(self, picture: str, order: int) -> TruncatedSeries:
        """The drift trace (1/2) g^{ij} g'_{ij} + (m/f) f'."""
        half = Fraction(1, 2) * self.metric_trace(picture, order)
        return half + self.measure_trace(picture, order)

    def laplacian_factor(self, picture: str, order: int) -> TruncatedSeries:
        """Scaling of the base weighted Laplacian on the sector: c^-2."""
        return self._factor("c", picture, order).rpow(-2)

    def density_factor(self, order: int) -> TruncatedSeries:
        """(f_r/f)^m (det g_r / det g)^(1/2) = q^m c^d, in the r picture."""
        c = self._factor("c", R, order)
        q = self._factor("q", R, order)
        return q.rpow(self.m) * c.rpow(self.d)

    # -- serialization -------------------------------------------------------

    def to_json(self) -> dict[str, Any]:
        out: dict[str, Any] = {"kind": self.kind, "d": self.d, "m": rat_str(self.m)}
        if self.kind == QUASI_EINSTEIN:
            out["lambda"] = rat_str(self.lam)
        return out

    @classmethod
    def from_json(cls, data: dict[str, Any]) -> "Background":
        return cls(data["kind"], data["d"], data["m"], data.get("lambda"))


class SpaceformReport(Record):
    """Scalar weighted-curvature data for a constant-curvature, constant-f input."""

    __slots__ = _fields = ("R_phi", "J_phi", "P_coeff", "is_quasi_einstein", "is_gover_leitner")

    def __init__(self, R_phi: Fraction, J_phi: Fraction, P_coeff: Fraction, is_quasi_einstein: bool, is_gover_leitner: bool):
        Record.__init__(self, R_phi, J_phi, P_coeff, is_quasi_einstein, is_gover_leitner)

    def to_json(self) -> dict[str, Any]:
        return {
            "R_phi": rat_str(self.R_phi),
            "J_phi": rat_str(self.J_phi),
            "P_coeff": rat_str(self.P_coeff),
            "is_quasi_einstein": self.is_quasi_einstein,
            "is_gover_leitner": self.is_gover_leitner,
        }


def verify_spaceform_conditions(
    d: int,
    m: RatLike,
    mu: RatLike,
    kappa: RatLike,
    f0: RatLike,
) -> SpaceformReport:
    """Weighted curvature scalars of a spaceform of sectional curvature kappa
    with constant weight function f0.

    With phi = -m log f0 constant, the drift terms drop and
      R_phi = d(d-1) kappa + m(m-1) mu / f0^2,
      J_phi = R_phi / (2(d+m-1)),
      P_phi = P_coeff * g with P_coeff = ((d-1) kappa - J_phi) / (d+m-2).
    """
    m, mu, kappa, f0 = check_dimensions(d, m), rat(mu), rat(kappa), rat(f0)
    if f0 <= 0:
        raise AlgebraError("f0 must be positive")
    r_phi = d * (d - 1) * kappa + m * (m - 1) * mu / f0**2
    j_phi = r_phi / (2 * (d + m - 1))
    ric_coeff = (d - 1) * kappa  # Ric_phi = Ric for constant phi
    p_coeff = (ric_coeff - j_phi) / (d + m - 2)
    is_qe = j_phi == (d + m) * p_coeff
    is_gl = f0 == 1 and mu == 1 and ric_coeff == -(d - 1)
    return SpaceformReport(r_phi, j_phi, p_coeff, is_qe, is_gl)
