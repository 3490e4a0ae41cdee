"""Closed-form factorization products and the cross-route comparison report."""

from __future__ import annotations

from typing import Any

from .ambient import (
    ROUTES,
    GjmsPolynomial,
    check_k_restriction_dm,
    gjms_iterated,
    gjms_recursion,
    iterated_vs_obstruction_constant,
    obstruction,
)
from .backgrounds import QUASI_EINSTEIN, Background
from .core import AlgebraError, RatLike, Record, SigmaPoly, positive_k
from .scattering import gjms_route_scattering


def _root_product(bg: Background, k: int, den: int, nums: list[int]) -> GjmsPolynomial:
    """prod (sigma + n/den) over the int numerators n: the int polynomial
    prod (den*sigma + n), divided by den^k once."""
    poly = [1]
    for n in nums:
        poly = [n * x + den * y for x, y in zip(poly + [0], [0] + poly)]
    return GjmsPolynomial(k, bg, "factorization", SigmaPoly(poly) / den**k)


def qe_product(d: int, m: RatLike, lam: RatLike, k: int) -> GjmsPolynomial:
    """Quasi-Einstein product: over l = 0..k-1, factors
    sigma + 2*lam*(-(d+m)/2 + k - 2l)*((d+m)/2 + k - 1 - 2l); with d+m = n/e
    and lam = p/q, the root is p*(2e(k-2l) - n)*(n + 2e(k-1-2l)) / (2e^2 q)."""
    bg, k = Background.quasi_einstein(d, m, lam), positive_k(k)
    n, e, p = bg.dm.numerator, bg.dm.denominator, bg.lam.numerator
    nums = [p * (2 * e * (k - 2 * l) - n) * (n + 2 * e * (k - 1 - 2 * l)) for l in range(k)]
    return _root_product(bg, k, 2 * e * e * bg.lam.denominator, nums)


def gl_product(d: int, m: RatLike, k: int) -> GjmsPolynomial:
    """Gover-Leitner product: over j = 0..k-1, factors
    sigma + (2k - 4j - d - m)*(2 - d + m - 2k + 4j)/4; with d+m = n/e (so
    m = n/e - d), the root is (e(2k-4j) - n)*(e(2-2d-2k+4j) + n) / (4e^2)."""
    bg, k = Background.gover_leitner(d, m), positive_k(k)
    n, e = bg.dm.numerator, bg.dm.denominator
    nums = [(e * (2 * k - 4 * j) - n) * (e * (2 - 2 * d - 2 * k + 4 * j) + n) for j in range(k)]
    return _root_product(bg, k, 4 * e * e, nums)


def factorization_product(bg: Background, k: int) -> GjmsPolynomial:
    if bg.kind == QUASI_EINSTEIN:
        return qe_product(bg.d, bg.m, bg.lam, k)
    return gl_product(bg.d, bg.m, k)


class RouteReport(Record):
    """All routes for one (background, k) cell, with pairwise exact agreement.

    The obstruction entry is stored pre-multiplied by (-4)^(k-1) ((k-1)!)^2
    so that the agreement matrix compares like with like.  The constant check
    (iterated = (-4)^(k-1) ((k-1)!)^2 * obstruction) is that matrix's
    (iterated, obstruction) entry, so ``all_agree()`` implies it.
    """

    __slots__ = _fields = ("background", "k", "routes", "errors", "agreement")

    def __init__(
        self,
        background: Background,
        k: int,
        routes: dict[str, GjmsPolynomial],
        errors: dict[str, str],
        agreement: dict[tuple[str, str], bool],
    ):
        Record.__init__(self, background, k, routes, errors, agreement)

    @property
    def constant_check(self) -> bool | None:
        """None when the iterated or the obstruction route raised."""
        return self.agreement.get(("iterated", "obstruction"))

    def all_agree(self) -> bool:
        """True only when every route succeeded and all pairs agree."""
        return not self.errors and bool(self.agreement) and all(self.agreement.values())

    def to_json(self) -> dict[str, Any]:
        return {
            "background": self.background.to_json(),
            "k": self.k,
            "routes": {name: g.poly.to_strings() for name, g in sorted(self.routes.items())},
            "errors": dict(sorted(self.errors.items())),
            "agreement": {
                f"{a}~{b}": ok for (a, b), ok in sorted(self.agreement.items())
            },
            "constant_check": self.constant_check,
            "all_agree": self.all_agree(),
        }


def route_polynomial(bg: Background, k: int, route: str, override: bool = False) -> GjmsPolynomial:
    """One route's polynomial; the obstruction route is returned raw, without
    the (-4)^(k-1) ((k-1)!)^2 normalization.  The one place the library
    applies the paper's range (``check_k_restriction_dm``), to every route."""
    check_k_restriction_dm(bg.dm, k, override)
    if route == "factorization":
        return factorization_product(bg, k)
    if route == "iterated":
        return gjms_iterated(bg, k)
    if route == "recursion":
        return gjms_recursion(bg, k)
    if route == "obstruction":
        return obstruction(bg, k)
    if route == "scattering":
        return gjms_route_scattering(bg, k)
    raise AlgebraError(f"unknown route {route!r}")


def cross_route_report(bg: Background, k: int, override: bool = False) -> RouteReport:
    """Run every construction route on one cell and compare them pairwise.

    A route that raises is recorded in ``errors``: the message of an
    ``AlgebraError``, ``"<Type>: <message>"`` for any other exception.
    """
    routes: dict[str, GjmsPolynomial] = {}
    errors: dict[str, str] = {}
    for name in ROUTES:
        try:
            routes[name] = route_polynomial(bg, k, name, override)
        except AlgebraError as exc:
            errors[name] = str(exc)
        except Exception as exc:  # a defect in the route, still one cell's error
            errors[name] = f"{type(exc).__name__}: {exc}"

    if "obstruction" in routes:
        normalized = iterated_vs_obstruction_constant(k) * routes["obstruction"].poly
        routes["obstruction"] = GjmsPolynomial(k, bg, "obstruction", normalized)

    names = sorted(routes)
    agreement = {
        (a, b): routes[a].poly == routes[b].poly
        for i, a in enumerate(names)
        for b in names[i + 1 :]
    }
    return RouteReport(bg, k, routes, errors, agreement)
