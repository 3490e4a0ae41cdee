"""The ambient weighted Laplacian on homogeneous functions over model backgrounds.

On the eigenfunction sector a weight-w homogeneous function is t^w * P(rho)
with P a truncated series whose coefficients are polynomials in sigma, the
eigenvalue of the base weighted Laplacian.  One application of the ambient
weighted Laplacian maps it to t^(w-2) times the second-order operator
a*rho*P'' + (b0 + rho*b1)*P' + c*P with

    a = -2,  b0 = 2w + d + m - 2,  b1 = -(Gtr + 2 MF),
    c = sigma*LF + (w/2) Gtr + w MF,

where Gtr = g^{ij} g'_{ij}, MF = (m/f) f', and LF is the sector scaling of
the base Laplacian.  The iterated, extension and obstruction constructions
apply this map; the jet recursion solves the same equation from its own
coefficients (0, 0, -2T, sigma*LF + w T) in the drift trace T, with the
principal part folded into the divisor 2j(k-j).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from typing import Any

from .backgrounds import Background
from .core import AlgebraError, OrderShortfall, RatLike, SigmaPoly, rat, rat_str
from .series import (
    RHO,
    ObstructedWeight,
    TruncatedSeries,
    apply_second_order,
    solve_order_by_order,
)


class RestrictionError(AlgebraError):
    """k exceeds (d+m)/2 with d+m an even integer, and no override was given."""


ROUTES = ("factorization", "iterated", "recursion", "obstruction", "scattering")
_MONIC_ROUTES = {"factorization", "iterated", "recursion", "scattering"}


@dataclass(frozen=True)
class HomogeneousFunction:
    """t^weight * (profile series in rho) on a fixed eigenfunction sector."""

    weight: Fraction
    profile: TruncatedSeries

    def __post_init__(self):
        if self.profile.var != RHO:
            raise AlgebraError("homogeneous-function profiles live in rho")


@dataclass(frozen=True)
class GjmsPolynomial:
    k: int
    background: Background
    route: str
    poly: SigmaPoly

    def __post_init__(self):
        if self.route not in ROUTES:
            raise AlgebraError(f"unknown route {self.route!r}")
        if self.route in _MONIC_ROUTES:
            if self.poly.degree != self.k or not self.poly.is_monic():
                raise AlgebraError(
                    f"route {self.route} produced a non-monic degree-"
                    f"{self.poly.degree} polynomial for k={self.k}"
                )

    def to_json(self) -> dict[str, Any]:
        return {
            "k": self.k,
            "route": self.route,
            "background": self.background.to_json(),
            "poly_sigma": self.poly.to_strings(),
        }


def iterated_vs_obstruction_constant(k: int) -> Fraction:
    """(-4)^(k-1) ((k-1)!)^2, the ratio between the two ambient constructions."""
    return Fraction(-4) ** (k - 1) * Fraction(factorial(k - 1)) ** 2


def jet_normalization(k: int) -> Fraction:
    """c_k = (-1)^(k-1) / (2^(k-1) (k-1)!), the jet-recursion normalization."""
    return Fraction(-1) ** (k - 1) / (2 ** (k - 1) * factorial(k - 1))


def critical_weight(bg: Background, k: int) -> Fraction:
    return -bg.dm / 2 + rat(k)


def check_k_restriction_dm(dm: RatLike, k: int, override: bool = False) -> None:
    """Reject k > (d+m)/2 when d+m is an even positive integer, unless overridden."""
    if k < 1:
        raise AlgebraError("k must be a positive integer")
    dm = rat(dm)
    if override:
        return
    if dm.denominator == 1 and dm.numerator % 2 == 0 and k > dm / 2:
        raise RestrictionError(
            f"k={k} exceeds (d+m)/2={rat_str(dm / 2)} with d+m even; "
            "pass the override flag to compute anyway"
        )


def check_k_restriction(bg: Background, k: int, override: bool = False) -> None:
    check_k_restriction_dm(bg.dm, k, override)


def ambient_laplacian(bg: Background, func: HomogeneousFunction) -> HomogeneousFunction:
    """One application of the ambient weighted Laplacian; weight drops by 2,
    the profile loses one valid order."""
    prof = func.profile
    if prof.order < 1:
        raise OrderShortfall(
            "ambient Laplacian needs a profile of order >= 1; got order "
            f"{prof.order}"
        )
    n = prof.order
    w = func.weight
    gtr = bg.metric_trace(RHO, n)
    mf = bg.measure_trace(RHO, n)
    lf = bg.laplacian_factor(RHO, n)
    b1 = -(gtr + 2 * mf)
    c = SigmaPoly.sigma() * lf + (w / 2) * gtr + w * mf
    out = apply_second_order(-2, 2 * w + bg.dm - 2, b1, c, prof)
    return HomogeneousFunction(w - 2, out)


def _profile_from_perturbation(
    bg: Background, k: int, perturbation: TruncatedSeries | None
) -> TruncatedSeries:
    if perturbation is None:
        return TruncatedSeries.constant(RHO, 1, k)
    if perturbation.var != RHO:
        raise AlgebraError("perturbations are rho-series")
    if not perturbation.coeff(0).is_zero():
        raise AlgebraError("a Q*H perturbation has no rho^0 coefficient")
    if perturbation.order < k:
        raise OrderShortfall(
            f"perturbation valid to order {perturbation.order}; need order >= {k}"
        )
    return perturbation + 1


def iterate_at_weight(
    bg: Background,
    w: RatLike,
    k: int,
    perturbation: TruncatedSeries | None = None,
) -> SigmaPoly:
    """Apply the ambient Laplacian k times to t^w (1 + perturbation) and read
    the rho^0 coefficient.  Used both for the invariant weight and for the
    off-critical weights where the answer genuinely depends on the extension."""
    profile = _profile_from_perturbation(bg, k, perturbation)
    func = HomogeneousFunction(rat(w), profile)
    for _ in range(k):
        func = ambient_laplacian(bg, func)
    return func.profile.coeff(0)


def gjms_iterated(
    bg: Background,
    k: int,
    perturbation: TruncatedSeries | None = None,
    override: bool = False,
) -> GjmsPolynomial:
    """Iterated route: k-fold ambient Laplacian at the invariant weight."""
    check_k_restriction(bg, k, override)
    poly = iterate_at_weight(bg, critical_weight(bg, k), k, perturbation)
    return GjmsPolynomial(k, bg, "iterated", poly)


def gjms_recursion(bg: Background, k: int, override: bool = False) -> GjmsPolynomial:
    """Jet-recursion route: solve the profile jets order by order, then read
    the operator off the order-(k-1) jet with normalization c_k."""
    check_k_restriction(bg, k, override)
    w = critical_weight(bg, k)
    t = bg.trace_term(RHO, k)
    b1 = -2 * t
    c = SigmaPoly.sigma() * bg.laplacian_factor(RHO, k) + w * t

    def apply(prof: TruncatedSeries) -> TruncatedSeries:
        return apply_second_order(0, 0, b1, c, prof)

    jets = solve_order_by_order(apply, lambda j: 2 * j * (k - j), k - 1, RHO)
    poly = factorial(k - 1) * apply(jets).coeff(k - 1) / jet_normalization(k)
    return GjmsPolynomial(k, bg, "recursion", poly)


def _solve_extension_jets(bg: Background, w: Fraction, levels: int) -> TruncatedSeries:
    """Jets a_0..a_levels making the ambient Laplacian vanish through order
    levels-1, as a profile exact at order levels+1.  Raises ObstructedWeight
    when the forced divisor 2j(k-j), k = w + (d+m)/2, vanishes."""
    k = w + bg.dm / 2
    return solve_order_by_order(
        lambda prof: ambient_laplacian(bg, HomogeneousFunction(w, prof)).profile,
        lambda j: 2 * j * (k - j),
        levels,
        RHO,
    )


def harmonic_extension(bg: Background, w: RatLike, order: int) -> HomogeneousFunction:
    """Unique formal harmonic extension of t^w through the given order.

    The ambient Laplacian of the result has zero profile through order-1.
    Errors with the obstructed level when w + (d+m)/2 is an integer in
    1..order.
    """
    w = rat(w)
    return HomogeneousFunction(w, _solve_extension_jets(bg, w, order).truncate(order))


def obstruction(bg: Background, k: int, override: bool = False) -> GjmsPolynomial:
    """Obstruction route: apply the ambient Laplacian once to the partial
    harmonic extension and read the Q^(k-1) coefficient (rho^(k-1) over
    2^(k-1), since Q = 2 rho t^2)."""
    check_k_restriction(bg, k, override)
    w = critical_weight(bg, k)
    prof = _solve_extension_jets(bg, w, k - 1)
    image = ambient_laplacian(bg, HomogeneousFunction(w, prof))
    poly = image.profile.coeff(k - 1) / (Fraction(2) ** (k - 1))
    return GjmsPolynomial(k, bg, "obstruction", poly)


def random_admissible_perturbation(
    rng: random.Random, order: int, max_sigma_degree: int = 2, span: int = 6
) -> TruncatedSeries:
    """Random Q*H perturbation profile: zero constant term, small rational
    SigmaPoly coefficients."""
    coeffs = [SigmaPoly.zero()]
    for _ in range(order):
        poly = SigmaPoly(
            Fraction(rng.randint(-span, span), rng.randint(1, 4))
            for _ in range(rng.randint(1, max_sigma_degree + 1))
        )
        coeffs.append(poly)
    return TruncatedSeries(RHO, coeffs, order)
