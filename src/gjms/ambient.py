"""The ambient weighted Laplacian on homogeneous functions over model backgrounds.

On the eigenfunction sector a weight-w homogeneous function is t^w * P(rho)
with P a truncated series whose coefficients are polynomials in sigma, the
eigenvalue of the base weighted Laplacian.  One application of the ambient
weighted Laplacian maps it to t^(w-2) times the second-order operator
a*rho*P'' + (b0 + rho*b1)*P' + c*P with c = c0 + w*c1 and

    a = -2,  b0 = 2w + d + m - 2,  b1 = -2T,  c0 = sigma*LF,  c1 = T,

where T = (1/2) g^{ij} g'_{ij} + (m/f) f' is the rho-picture drift trace and
LF the sector scaling of the base Laplacian; ``Background.prepared`` builds
it.  The iterated and extension constructions apply this map, and the
obstruction route applies it once more to the extension it reads.
The jet recursion applies the same operator without its principal part
(a = b0 = 0), folded into the divisor 2j(k-j) instead, so it solves the
obstruction route's jets: its polynomial is the raw obstruction polynomial
times (k-1)! 2^(k-1) / c_k.  That part's rows below a level do not vanish,
but its row t reads p_0..p_t only, so they are the route's own earlier
residuals r_1..r_t: each level divides u out of one row,
r_j = (u*L*P)_(j-1) - sum_(i>=1) u_i r_(j-i).

Profiles are TruncatedSeries of SigmaPolys throughout, and each read-off is
one SigmaPoly scaling; how a SigmaPoly is stored is left to ``core`` and
``series``.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial
from typing import Any

from .backgrounds import Background
from .core import AlgebraError, OrderShortfall, RatLike, Record, SigmaPoly, positive_k, rat, rat_str
from .series import RHO, ObstructedWeight, TruncatedSeries, solve_order_by_order


class RestrictionError(AlgebraError):
    """k exceeds (d+m)/2 with d+m an even integer, and no override was given;
    raised by ``route_polynomial`` and the CLI, never by a construction."""


ROUTES = ("factorization", "iterated", "recursion", "obstruction", "scattering")
_MONIC_ROUTES = {"factorization", "iterated", "recursion", "scattering"}


class HomogeneousFunction(Record):
    """t^weight * (profile series in rho) on a fixed sector."""

    __slots__ = _fields = ("weight", "profile")

    def __init__(self, weight: RatLike, profile: TruncatedSeries):
        if profile.var != RHO:
            raise AlgebraError("homogeneous-function profiles live in rho")
        Record.__init__(self, rat(weight), profile)


class GjmsPolynomial(Record):
    __slots__ = _fields = ("k", "background", "route", "poly")

    def __init__(self, k: int, background: Background, route: str, poly: SigmaPoly):
        if route not in ROUTES:
            raise AlgebraError(f"unknown route {route!r}")
        if route in _MONIC_ROUTES:
            if poly.degree != k or not poly.is_monic():
                raise AlgebraError(
                    f"route {route} produced a non-monic degree-"
                    f"{poly.degree} polynomial for k={k}"
                )
        Record.__init__(self, k, background, route, poly)

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


def beyond_paper_range(dm: RatLike, k: int) -> bool:
    """True when d+m is an even integer and k > (d+m)/2, outside the range in
    which the paper proves the factorization."""
    dm = rat(dm)
    return dm.denominator == 1 and dm.numerator % 2 == 0 and k > dm / 2


def check_k_restriction_dm(dm: RatLike, k: int, override: bool = False) -> None:
    """The paper's range, stated once: reject k < 1, and k > (d+m)/2 for an even
    integer d+m unless overridden.  Only ``route_polynomial`` and the CLI apply
    it; the constructions and closed-form products compute any k >= 1."""
    positive_k(k)
    if not override and beyond_paper_range(dm, k):
        raise RestrictionError(
            f"k={k} exceeds (d+m)/2={rat_str(rat(dm) / 2)} with d+m even; "
            "pass the override flag to compute anyway"
        )


def _ambient_coefficients(t: TruncatedSeries, lf: TruncatedSeries) -> tuple[TruncatedSeries, ...]:
    """(b1, c0, c1) of the ambient operator from T and LF."""
    return -2 * t, SigmaPoly.sigma() * lf, t


def _ambient_scalars(dm: Fraction, w: Fraction | int) -> tuple[int, Fraction, Fraction | int]:
    """(a, b0, x) = (-2, 2w + d+m - 2, w), b0 made as one Fraction from the
    numerators and denominators of d+m and w."""
    n, e = dm.numerator, dm.denominator
    return -2, Fraction(2 * w.numerator * e + (n - 2 * e) * w.denominator, w.denominator * e), w


def ambient_laplacian(bg: Background, func: HomogeneousFunction, row: int | None = None) -> HomogeneousFunction | SigmaPoly:
    """One application of the ambient weighted Laplacian; weight drops by 2,
    the profile loses one valid order.  With a row, only the rho^row
    coefficient of u times the image's profile: the image's own when its
    lower rows vanish."""
    op, w = bg.prepared(RHO, _ambient_coefficients), func.weight
    args = (*_ambient_scalars(bg.dm, w), func.profile)
    return HomogeneousFunction(w - 2, op.apply(*args)) if row is None else op.row(*args, row)


def _count(value: int, name: str) -> int:
    """Return value, or raise naming it unless it is an int >= 0, not a bool."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise AlgebraError(f"{name} must be an integer >= 0, not {value!r}")
    if value < 0:
        raise AlgebraError(f"{name} must be >= 0, not {value}")
    return value


def iterate_at_weight(
    bg: Background,
    w: RatLike,
    k: int,
    perturbation: TruncatedSeries | None = None,
) -> SigmaPoly:
    """Apply the ambient Laplacian k times to t^w (1 + perturbation) and read
    the rho^0 coefficient.  Used both for the invariant weight and for the
    off-critical weights where the answer genuinely depends on the extension."""
    _count(k, "iteration count k")
    if perturbation is None:
        profile = TruncatedSeries.constant(RHO, 1, k)
    elif not perturbation.coeff(0).is_zero():
        raise AlgebraError("a Q*H perturbation has no rho^0 coefficient")
    elif perturbation.order < k:
        raise OrderShortfall(f"perturbation valid to order {perturbation.order}; need order >= {k}")
    else:
        profile = perturbation + 1
    func = HomogeneousFunction(rat(w), profile)
    for _ in range(k):
        func = ambient_laplacian(bg, func)
    return func.profile.coeff(0)


def gjms_iterated(
    bg: Background,
    k: int,
    perturbation: TruncatedSeries | None = None,
) -> GjmsPolynomial:
    """Iterated route: k-fold ambient Laplacian at the invariant weight."""
    positive_k(k)
    poly = iterate_at_weight(bg, critical_weight(bg, k), k, perturbation)
    return GjmsPolynomial(k, bg, "iterated", poly)


def gjms_recursion(bg: Background, k: int) -> GjmsPolynomial:
    """Jet-recursion route: solve the profile jets order by order with the
    ambient operator's lower-order part, then read the operator off the
    order-(k-1) jet with normalization c_k."""
    positive_k(k)
    w = critical_weight(bg, k)
    op = bg.prepared(RHO, _ambient_coefficients)
    rows: list[SigmaPoly] = []  # the residuals so far: rows 0, 1, ... of the image

    def residual(p: TruncatedSeries, t: int) -> SigmaPoly:
        return op.row(0, 0, w, p, t, rows)

    poly = residual(solve_order_by_order(RHO, residual, lambda j: 2 * j * (k - j), k - 1), k - 1)
    return GjmsPolynomial(k, bg, "recursion", poly * (factorial(k - 1) / jet_normalization(k)))


def harmonic_extension(bg: Background, w: RatLike, order: int) -> HomogeneousFunction:
    """Unique formal harmonic extension of t^w through the given order: the
    jets a_0 = 1, a_1, ..., a_order solved level by level, level j dividing
    by the forced factor 2j(k-j), k = w + (d+m)/2.

    The ambient Laplacian of the result has zero profile through order-1.
    Errors with the obstructed level when w + (d+m)/2 is an integer in
    1..order.
    """
    _count(order, "harmonic extension order")
    w = rat(w)
    k = w + bg.dm / 2
    kn, kd = k.numerator, k.denominator

    def residual(profile: TruncatedSeries, t: int) -> SigmaPoly:
        return ambient_laplacian(bg, HomogeneousFunction(w, profile), t)

    jets = solve_order_by_order(RHO, residual, lambda j: Fraction(2 * j * (kn - j * kd), kd), order)
    return HomogeneousFunction(w, jets.truncate(order))


def obstruction(bg: Background, k: int) -> GjmsPolynomial:
    """Obstruction route: apply the ambient Laplacian once to the harmonic
    extension through order k-1, whose jets past k-1 vanish, and read the
    Q^(k-1) coefficient (rho^(k-1) over 2^(k-1), since Q = 2 rho t^2)."""
    positive_k(k)
    ext = harmonic_extension(bg, critical_weight(bg, k), k - 1)
    image = ambient_laplacian(bg, HomogeneousFunction(ext.weight, ext.profile.as_exact(k)), k - 1)
    return GjmsPolynomial(k, bg, "obstruction", image / 2 ** (k - 1))

