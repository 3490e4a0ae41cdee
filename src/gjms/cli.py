"""Batch command surface: compute operators, run the verification matrix, emit tables.

Exit codes: 0 all checks pass, 1 a verification failed, 2 usage error.
All numeric output is exact rational text ("p/q"); nothing is ever a float.
"""

from __future__ import annotations

import argparse
import csv
import json
import random
import sys
import traceback
from fractions import Fraction
from functools import cache
from itertools import product
from math import factorial
from typing import Callable

from .ambient import (
    ROUTES,
    check_k_restriction,
    check_k_restriction_dm,
    critical_weight,
    gjms_iterated,
    harmonic_extension,
    iterated_vs_obstruction_constant,
    random_admissible_perturbation,
    RestrictionError,
    ambient_laplacian,
)
from .backgrounds import Background, verify_spaceform_conditions
from .core import AlgebraError, rat, rat_str
from .factorization import cross_route_report, route_polynomial
from .scattering import (
    gjms_route_scattering,
    greens_log_coefficient,
    log_normalization,
    scattering_solve,
)
from .sl2 import extract_Zk, falling_h_product, jacobi_defect, verify_commutator_identity

ROUTE_CHOICES = ROUTES + ("all",)

# Fixed matrix the verify command sweeps; chosen to cover both background
# kinds, fractional m, lambda of both signs, the flat case, and an even d+m.
VERIFY_MATRIX = (
    Background.quasi_einstein(3, 2, 1),
    Background.quasi_einstein(2, 2, Fraction(1, 6)),
    Background.quasi_einstein(4, Fraction(1, 2), -1),
    Background.quasi_einstein(3, 2, 0),
    Background.gover_leitner(3, 2),
    Background.gover_leitner(2, Fraction(1, 2)),
)

GREEN_MATRIX = (
    Background.quasi_einstein(3, 2, 1),
    Background.quasi_einstein(2, 2, Fraction(1, 6)),
    Background.gover_leitner(3, 2),
)


def _restricted(bg: Background, k: int) -> bool:
    try:
        check_k_restriction(bg, k)
    except RestrictionError:
        return True
    return False


def _parse_background(args: argparse.Namespace) -> Background:
    if args.kind == "qe":
        if args.lam is None:
            raise AlgebraError("quasi-Einstein backgrounds require --lambda")
        return Background.quasi_einstein(args.d, rat(args.m), rat(args.lam))
    if args.lam is not None:
        raise AlgebraError("Gover-Leitner backgrounds take no --lambda")
    return Background.gover_leitner(args.d, rat(args.m))


def cmd_compute(args: argparse.Namespace) -> int:
    ks = list(range(1, args.kmax + 1)) if args.kmax else [args.k]
    # Restriction is a function of (d, m, k) alone; report it before any
    # complaint about missing background parameters.
    for k in sorted(ks):
        check_k_restriction_dm(args.d + rat(args.m), k, args.override)
    bg = _parse_background(args)
    routes = ROUTES if args.route == "all" else (args.route,)
    results = [
        route_polynomial(bg, k, route, args.override) for k in sorted(ks) for route in sorted(routes)
    ]
    out = sys.stdout
    if args.format == "json":
        payload = results[0].to_json() if len(results) == 1 else [g.to_json() for g in results]
        out.write(json.dumps(payload) + "\n")
    elif args.format == "csv":
        writer = csv.writer(out)
        writer.writerow(["k", "route", "poly_sigma"])
        for g in results:
            writer.writerow([g.k, g.route, " ".join(g.poly.to_strings())])
    elif len(results) == 1:
        out.write(f"{results[0].poly}\n")
    else:
        for g in results:
            out.write(f"k={g.k} {g.route}: {g.poly}\n")
    return 0


def cmd_spaceform(args: argparse.Namespace) -> int:
    report = verify_spaceform_conditions(
        args.d, rat(args.m), rat(args.mu), rat(args.kappa), rat(args.f0)
    )
    if args.format == "json":
        sys.stdout.write(json.dumps(report.to_json()) + "\n")
    else:
        for key, value in report.to_json().items():
            sys.stdout.write(f"{key}: {value}\n")
    return 0


def cmd_table(args: argparse.Namespace) -> int:
    ds, ms, ks = _int_list(args.d), _rat_list(args.m), _int_list(args.k)
    lams = _rat_list(args.lam) if args.kind == "qe" else [None]
    cells = []
    for d, m, lam in product(ds, ms, lams):
        try:
            bg = Background.quasi_einstein(d, m, lam) if args.kind == "qe" else Background.gover_leitner(d, m)
        except AlgebraError:
            continue
        cells.extend(cross_route_report(bg, k) for k in ks if not _restricted(bg, k))
    if args.format == "json":
        sys.stdout.write(json.dumps([c.to_json() for c in cells]) + "\n")
        return 0
    writer = csv.writer(sys.stdout)
    writer.writerow(["kind", "d", "m", "lambda", "k", *ROUTES, "all_agree"])
    for cell in cells:
        bg = cell.background
        row = [bg.kind, bg.d, rat_str(bg.m), "" if bg.lam is None else rat_str(bg.lam), cell.k]
        for name in ROUTES:
            if name in cell.routes:
                row.append(" ".join(cell.routes[name].poly.to_strings()))
            else:
                row.append(f"error: {cell.errors.get(name, 'unavailable')}")
        writer.writerow(row + [str(cell.all_agree()).lower()])
    return 0


def _int_list(text: str) -> list[int]:
    return [int(part) for part in text.split(",") if part.strip()]


def _rat_list(text: str) -> list[Fraction]:
    return [rat(part) for part in text.split(",") if part.strip()]


# -- verification suites -----------------------------------------------------


class Checker:
    """Runs each check at once and prints one line for it; a check that raises
    fails with the exception as its witness instead of ending the run."""

    def __init__(self, out=None):
        self.out = out or sys.stdout
        self.failures = 0

    def check(self, description: str, test: Callable[[], bool | tuple[bool, str]]) -> None:
        """test() returns ok, or ok and a detail printed on failure."""
        try:
            outcome = test()
            ok, detail = outcome if isinstance(outcome, tuple) else (outcome, "")
        except Exception as exc:
            traceback.print_exc(file=sys.stderr)
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        self.out.write(f"{'ok  ' if ok else 'FAIL'} {description}\n")
        if not ok:
            self.failures += 1
            if detail:
                self.out.write(f"     {detail}\n")


def verify_sl2(chk: Checker, kmax: int) -> None:
    def identity(kind: str, k: int) -> tuple[bool, str]:
        ok, witness = verify_commutator_identity(kind, k)
        return ok, f"witness {witness}"

    def route_ratio(k: int) -> bool:
        # h evaluated at -(k-1) turns the product into the iterated/obstruction ratio
        val = falling_h_product(k).substitute_h(-(k - 1)).terms.get((), Fraction(0))
        return val == Fraction(-1) ** (k - 1) * factorial(k - 1) and (
            4 ** (k - 1) * factorial(k - 1) * val == iterated_vs_obstruction_constant(k)
        )

    for k in range(1, kmax + 1):
        for kind, label in (("yk_x", "[y^k,x] = -k y^(k-1)(h-k+1)"), ("xk_y", "[x^k,y] = k x^(k-1)(h+k-1)")):
            chk.check(f"sl2 {label} at k={k}", lambda: identity(kind, k))
    chk.check("sl2 Jacobi identity reduces to 0", lambda: jacobi_defect().is_zero())
    for k in range(1, kmax + 1):
        # extract_Zk raises unless y^(k-1)x^(k-1) - lead - x Z_k reduces to 0
        chk.check(
            f"sl2 y^(k-1)x^(k-1) = (-1)^(k-1)(k-1)! h(h+1)..(h+k-2) + x Z_k at k={k}",
            lambda: extract_Zk(k) is not None,
        )
        chk.check(f"sl2 h-product at h=-(k-1) reproduces the route ratio at k={k}", lambda: route_ratio(k))


def verify_ambient(chk: Checker, kmax: int, inject_fault: bool = False) -> None:
    rng = random.Random(20240229)

    def routes_agree(bg: Background, k: int, corrupt: bool) -> tuple[bool, str]:
        report = cross_route_report(bg, k)
        if report.errors:
            return False, "; ".join(f"{n}: {e}" for n, e in sorted(report.errors.items()))
        # the fault flag corrupts the first cell, a self-test of the harness
        iterated = report.routes["iterated"].poly + (1 if corrupt else 0)
        agree = all(iterated == report.routes[n].poly for n in ("factorization", "recursion", "obstruction"))
        detail = "; ".join(f"{n}: {g.poly}" for n, g in sorted(report.routes.items()))
        return agree and report.constant_check is True, detail

    def independent(bg: Background, k: int) -> bool:
        base = gjms_iterated(bg, k).poly
        return all(
            gjms_iterated(bg, k, random_admissible_perturbation(rng, k + 2)).poly == base for _ in range(3)
        )

    def closes(bg: Background) -> bool:
        image = ambient_laplacian(bg, harmonic_extension(bg, critical_weight(bg, 1) + Fraction(1, 3), 4))
        return all(image.profile.coeff(j).is_zero() for j in range(4))

    corrupt = inject_fault
    for bg in VERIFY_MATRIX:
        for k in range(1, kmax + 1):
            if _restricted(bg, k):
                continue
            chk.check(f"routes agree on {bg.label()} k={k}", lambda: routes_agree(bg, k, corrupt))
            corrupt = False
            chk.check(f"extension independence on {bg.label()} k={k}", lambda: independent(bg, k))
        chk.check(f"harmonic extension closes to order 3 on {bg.label()}", lambda: closes(bg))


def verify_scattering(chk: Checker, kmax: int) -> None:
    solve = cache(scattering_solve)

    def odd_vanish(bg: Background, k: int) -> bool:
        v = solve(bg, k).v_coeffs
        return all(v[j].is_zero() for j in range(1, 2 * k, 2) if j < bg.dm)

    def equals_iterated(bg: Background, k: int) -> tuple[bool, str]:
        scat, iterated = gjms_route_scattering(bg, k).poly, gjms_iterated(bg, k).poly
        return scat == iterated, f"scattering: {scat}; iterated: {iterated}"

    def monic(bg: Background, k: int) -> bool:
        normalized = solve(bg, k).log_coeff / log_normalization(k)
        return normalized.degree == k and abs(normalized.coeffs[-1]) == 1

    for bg in VERIFY_MATRIX:
        for k in range(1, min(kmax, 3) + 1):
            if _restricted(bg, k):
                continue
            chk.check(f"odd radial coefficients vanish on {bg.label()} k={k}", lambda: odd_vanish(bg, k))
            chk.check(f"scattering route equals iterated on {bg.label()} k={k}", lambda: equals_iterated(bg, k))
            chk.check(f"log coefficient over d_k is +/-monic degree {k} on {bg.label()}", lambda: monic(bg, k))


def verify_green(chk: Checker, kmax: int) -> None:
    def symmetric(bg: Background, k: int) -> tuple[bool, str]:
        report = greens_log_coefficient(bg, k)
        return report.match, f"lp: {report.lp}; rhs: {report.rhs}"

    for bg in GREEN_MATRIX:
        for k in range(1, min(kmax, 2) + 1):
            if _restricted(bg, k):
                continue
            chk.check(f"log-coefficient pairing is symmetric on {bg.label()} k={k}", lambda: symmetric(bg, k))


def cmd_verify(args: argparse.Namespace) -> int:
    chk = Checker()
    kmax = args.kmax
    if args.suite in ("all", "sl2"):
        verify_sl2(chk, kmax if args.suite == "sl2" else min(kmax, 6))
    if args.suite in ("all", "ambient"):
        verify_ambient(chk, kmax, inject_fault=args.inject_fault)
    if args.suite in ("all", "scattering"):
        verify_scattering(chk, kmax)
    if args.suite in ("all", "green"):
        verify_green(chk, kmax)
    if args.inject_fault and args.suite not in ("all", "ambient"):
        chk.check("fault-injection self-test hook", lambda: (False, "fault injected by request"))
    total = "all checks passed" if chk.failures == 0 else f"{chk.failures} check(s) FAILED"
    chk.out.write(f"summary: {total}\n")
    return 0 if chk.failures == 0 else 1


# -- argument parsing ---------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gjms",
        description="Exact construction and cross-verification of weighted GJMS operators "
        "on the quasi-Einstein and Gover-Leitner model backgrounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    comp = sub.add_parser("compute", help="compute operator polynomials for one background")
    comp.add_argument("kind", choices=("qe", "gl"))
    comp.add_argument("--d", type=int, required=True)
    comp.add_argument("--m", required=True)
    comp.add_argument("--lambda", dest="lam", default=None)
    group = comp.add_mutually_exclusive_group(required=True)
    group.add_argument("--k", type=int)
    group.add_argument("--kmax", type=int)
    comp.add_argument("--route", choices=ROUTE_CHOICES, default="factorization")
    comp.add_argument("--format", choices=("json", "csv", "text"), default="text")
    comp.add_argument("--override", action="store_true", help="allow k beyond (d+m)/2 for even d+m")
    comp.set_defaults(func=cmd_compute)

    ver = sub.add_parser("verify", help="run a verification suite; exit 0 iff all pass")
    ver.add_argument("suite", choices=("all", "sl2", "ambient", "scattering", "green"))
    ver.add_argument("--kmax", type=int, default=3)
    ver.add_argument("--inject-fault", action="store_true", help="self-test hook: corrupt one check")
    ver.set_defaults(func=cmd_verify)

    tab = sub.add_parser("table", help="route-comparison table over a parameter grid")
    tab.add_argument("kind", choices=("qe", "gl"))
    tab.add_argument("--d", required=True, help="comma-separated integers")
    tab.add_argument("--m", required=True, help="comma-separated rationals")
    tab.add_argument("--lambda", dest="lam", default="", help="comma-separated rationals (qe only)")
    tab.add_argument("--k", required=True, help="comma-separated positive integers")
    tab.add_argument("--format", choices=("json", "csv"), default="csv")
    tab.set_defaults(func=cmd_table)

    space = sub.add_parser("spaceform", help="weighted curvature scalars of a spaceform")
    space.add_argument("--d", type=int, required=True)
    space.add_argument("--m", required=True)
    space.add_argument("--mu", required=True)
    space.add_argument("--kappa", required=True)
    space.add_argument("--f0", required=True)
    space.add_argument("--format", choices=("json", "text"), default="text")
    space.set_defaults(func=cmd_spaceform)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "table" and args.kind == "qe" and not args.lam:
        parser.error("qe tables require --lambda")
    if args.command == "table" and args.kind == "gl" and args.lam:
        parser.error("gl tables take no --lambda")
    try:
        return args.func(args)
    except (ValueError, ZeroDivisionError) as exc:  # AlgebraError is a ValueError
        sys.stderr.write(f"error: {exc}\n")
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
