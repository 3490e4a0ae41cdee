"""Closed-form expansion data for the two model backgrounds.

Both models deform the base metric and weight by factors that are constant on
the base manifold, so on a fixed eigenfunction sector every geometric input
reduces to a scalar series:

  quasi-Einstein:  g(x,rho) = (1+lam*rho)^2 g(x),  f(x,rho) = (1+lam*rho) f(x)
  Gover-Leitner:   g(x,rho) = (1-rho/2)^2  g(x),   f(x,rho) = 1 + rho/2

The r picture is the rho picture composed with rho = -r^2/2, with primes
meaning d/dr there.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Any

from .core import AlgebraError, RatLike, SigmaPoly, rat, rat_str
from .series import R, RHO, TruncatedSeries

QUASI_EINSTEIN = "quasi_einstein"
GOVER_LEITNER = "gover_leitner"


@dataclass(frozen=True)
class Background:
    kind: str
    d: int
    m: Fraction
    lam: Fraction | None = None
    mu: Fraction | None = None

    def __post_init__(self):
        if self.kind not in (QUASI_EINSTEIN, GOVER_LEITNER):
            raise AlgebraError(f"unknown background kind {self.kind!r}")
        if not isinstance(self.d, int) or self.d < 2:
            raise AlgebraError("d must be an integer >= 2")
        if self.m < 0:
            raise AlgebraError("m must be >= 0")
        if self.d + self.m == 2:
            raise AlgebraError("d + m = 2 degenerates the weighted Schouten data")
        if self.kind == QUASI_EINSTEIN and self.lam is None:
            raise AlgebraError("quasi-Einstein background needs lambda")
        if self.kind == GOVER_LEITNER:
            if self.lam is not None:
                raise AlgebraError("Gover-Leitner background has no lambda")
            if self.mu != 1:
                raise AlgebraError("Gover-Leitner background fixes mu = 1")

    @classmethod
    def quasi_einstein(cls, d: int, m: RatLike, lam: RatLike, mu: RatLike | None = None) -> "Background":
        return cls(QUASI_EINSTEIN, d, rat(m), rat(lam), None if mu is None else rat(mu))

    @classmethod
    def gover_leitner(cls, d: int, m: RatLike) -> "Background":
        return cls(GOVER_LEITNER, d, rat(m), None, Fraction(1))

    @property
    def dm(self) -> Fraction:
        return self.d + self.m

    def label(self) -> str:
        if self.kind == QUASI_EINSTEIN:
            return f"QE(d={self.d}, m={rat_str(self.m)}, lambda={rat_str(self.lam)})"
        return f"GL(d={self.d}, m={rat_str(self.m)})"

    # -- model factors -----------------------------------------------------
    #
    # conformal factor c: g_picture = c^2 * g;  weight factor q: f_picture = q * f.
    # Both are 1 + shift*rho in the rho picture; the r picture substitutes
    # rho = -r^2/2.

    def _factor(self, which: str, picture: str, order: int) -> TruncatedSeries:
        if self.kind == QUASI_EINSTEIN:
            shift = self.lam
        else:
            shift = Fraction(-1, 2) if which == "c" else Fraction(1, 2)
        factor = TruncatedSeries(RHO, [1, shift], 1)
        if picture == R:
            factor = factor.substitute_rho()
        elif picture != RHO:
            raise AlgebraError(f"unknown picture {picture!r}")
        return factor.as_exact(order)

    # -- expansion accessors ------------------------------------------------

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
            if self.mu is not None:
                out["mu"] = rat_str(self.mu)
        return out

    @classmethod
    def from_json(cls, data: dict[str, Any]) -> "Background":
        kind = data["kind"]
        if kind == QUASI_EINSTEIN:
            return cls.quasi_einstein(
                int(data["d"]), data["m"], data["lambda"], data.get("mu")
            )
        if kind == GOVER_LEITNER:
            return cls.gover_leitner(int(data["d"]), data["m"])
        raise AlgebraError(f"unknown background kind {kind!r}")


@dataclass(frozen=True)
class SpaceformReport:
    """Scalar weighted-curvature data for a constant-curvature, constant-f input."""

    R_phi: Fraction
    J_phi: Fraction
    P_coeff: Fraction
    is_quasi_einstein: bool
    is_gover_leitner: bool

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
    m, mu, kappa, f0 = rat(m), rat(mu), rat(kappa), rat(f0)
    if d + m == 1 or d + m == 2:
        raise AlgebraError("d + m in {1, 2} degenerates the Schouten denominators")
    if f0 <= 0:
        raise AlgebraError("f0 must be positive")
    r_phi = d * (d - 1) * kappa + m * (m - 1) * mu / f0**2
    j_phi = r_phi / (2 * (d + m - 1))
    ric_coeff = (d - 1) * kappa  # Ric_phi = Ric for constant phi
    p_coeff = (ric_coeff - j_phi) / (d + m - 2)
    is_qe = j_phi == (d + m) * p_coeff
    is_gl = f0 == 1 and mu == 1 and ric_coeff == -(d - 1)
    return SpaceformReport(r_phi, j_phi, p_coeff, is_qe, is_gl)
