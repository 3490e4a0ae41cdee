"""Closed-form factorization products and the cross-route comparison report."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from .ambient import (
    ROUTES,
    GjmsPolynomial,
    check_k_restriction,
    gjms_iterated,
    gjms_recursion,
    iterated_vs_obstruction_constant,
    obstruction,
)
from .backgrounds import GOVER_LEITNER, QUASI_EINSTEIN, Background
from .core import AlgebraError, RatLike, SigmaPoly, rat
from .scattering import gjms_route_scattering


def qe_product(d: int, m: RatLike, lam: RatLike, k: int) -> GjmsPolynomial:
    """Quasi-Einstein product: over l = 0..k-1, factors
    sigma + 2*lam*(-(d+m)/2 + k - 2l)*((d+m)/2 + k - 1 - 2l)."""
    bg = Background.quasi_einstein(d, m, lam)
    check_k_restriction(bg, k)
    dm = bg.dm
    poly = SigmaPoly.one()
    for l in range(k):
        root = 2 * bg.lam * (-dm / 2 + k - 2 * l) * (dm / 2 + k - 1 - 2 * l)
        poly = poly * (SigmaPoly.sigma() + SigmaPoly.const(root))
    return GjmsPolynomial(k, bg, "factorization", poly)


def gl_product(d: int, m: RatLike, k: int) -> GjmsPolynomial:
    """Gover-Leitner product: over j = 0..k-1, factors
    sigma + (2k - 4j - d - m)*(2 - d + m - 2k + 4j)/4."""
    bg = Background.gover_leitner(d, m)
    check_k_restriction(bg, k)
    dm = bg.dm
    poly = SigmaPoly.one()
    for j in range(k):
        root = rat(2 * k - 4 * j - dm) * rat(2 - d + bg.m - 2 * k + 4 * j) / 4
        poly = poly * (SigmaPoly.sigma() + SigmaPoly.const(root))
    return GjmsPolynomial(k, bg, "factorization", poly)


def factorization_product(bg: Background, k: int) -> GjmsPolynomial:
    if bg.kind == QUASI_EINSTEIN:
        return qe_product(bg.d, bg.m, bg.lam, k)
    return gl_product(bg.d, bg.m, k)


@dataclass(frozen=True)
class RouteReport:
    """All routes for one (background, k) cell, with pairwise exact agreement.

    The obstruction entry is stored pre-multiplied by (-4)^(k-1) ((k-1)!)^2
    so that the agreement matrix compares like with like; the raw constant
    check is reported separately.
    """

    background: Background
    k: int
    routes: dict[str, GjmsPolynomial]
    errors: dict[str, str]
    agreement: dict[tuple[str, str], bool]
    constant_check: bool | None

    def all_agree(self) -> bool:
        return bool(self.agreement) and all(self.agreement.values())

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
    the (-4)^(k-1) ((k-1)!)^2 normalization."""
    if route == "factorization":
        return factorization_product(bg, k)
    if route == "iterated":
        return gjms_iterated(bg, k, override=override)
    if route == "recursion":
        return gjms_recursion(bg, k, override=override)
    if route == "obstruction":
        return obstruction(bg, k, override=override)
    if route == "scattering":
        return gjms_route_scattering(bg, k, override=override)
    raise AlgebraError(f"unknown route {route!r}")


def cross_route_report(bg: Background, k: int, override: bool = False) -> RouteReport:
    """Run every construction route on one cell and compare them pairwise."""
    routes: dict[str, GjmsPolynomial] = {}
    errors: dict[str, str] = {}
    for name in ROUTES:
        try:
            routes[name] = route_polynomial(bg, k, name, override)
        except AlgebraError as exc:
            errors[name] = str(exc)

    constant_check: bool | None = None
    if "obstruction" in routes:
        normalized = iterated_vs_obstruction_constant(k) * routes["obstruction"].poly
        routes["obstruction"] = GjmsPolynomial(k, bg, "obstruction", normalized)
        if "iterated" in routes:
            constant_check = routes["iterated"].poly == normalized

    names = sorted(routes)
    agreement = {
        (a, b): routes[a].poly == routes[b].poly
        for i, a in enumerate(names)
        for b in names[i + 1 :]
    }
    return RouteReport(bg, k, routes, errors, agreement, constant_check)
