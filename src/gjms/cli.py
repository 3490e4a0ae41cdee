"""Batch command surface: compute operators, run the verification matrix, emit tables.

Exit codes: 0 all checks pass, 1 a verification failed or a route raised on
valid input, 2 usage error.
All numeric output is exact rational text ("p/q"); nothing is ever a float.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from fractions import Fraction
from functools import cache, partial
from itertools import chain, product
from math import factorial
from typing import Callable, Iterable

from .ambient import (
    ROUTES,
    beyond_paper_range,
    check_k_restriction_dm,
    critical_weight,
    gjms_iterated,
    harmonic_extension,
    iterated_vs_obstruction_constant,
    ambient_laplacian,
)
from .backgrounds import GOVER_LEITNER, QUASI_EINSTEIN, Background, check_dimensions, verify_spaceform_conditions
from .core import AlgebraError, SigmaPoly, positive_k, rat, rat_str
from .factorization import RouteReport, cross_route_report, route_polynomial
from .scattering import greens_log_coefficient, log_normalization, scattering_solve
from .series import RHO, TruncatedSeries
from .sl2 import NcPoly, extract_Zk, falling_h_product, jacobi_defect, verify_commutator_identity, zk_closed_form

ROUTE_CHOICES = ROUTES + ("all",)

# The CLI's kind names; argparse offers its keys and Background takes its values.
KINDS = {"qe": QUASI_EINSTEIN, "gl": GOVER_LEITNER}

# Fixed matrix the verify command sweeps; chosen to cover both background
# kinds, fractional m, lambda of both signs, the flat case, and an even d+m.
VERIFY_MATRIX = (
    Background(QUASI_EINSTEIN, 3, 2, 1),
    Background(QUASI_EINSTEIN, 2, 2, Fraction(1, 6)),
    Background(QUASI_EINSTEIN, 4, Fraction(1, 2), -1),
    Background(QUASI_EINSTEIN, 3, 2, 0),
    Background(GOVER_LEITNER, 3, 2),
    Background(GOVER_LEITNER, 2, Fraction(1, 2)),
)

GREEN_MATRIX = (
    Background(QUASI_EINSTEIN, 3, 2, 1),
    Background(QUASI_EINSTEIN, 2, 2, Fraction(1, 6)),
    Background(GOVER_LEITNER, 3, 2),
)


def cmd_compute(args: argparse.Namespace) -> int:
    ks = [args.k] if args.kmax is None else list(range(1, positive_k(args.kmax) + 1))
    # The dimension rule, then the range rule: both read (d, m, k) alone, so
    # they come before any complaint about missing background parameters.
    m = check_dimensions(args.d, args.m)
    for k in sorted(ks):
        check_k_restriction_dm(args.d + m, k, args.override)
    bg = Background(KINDS[args.kind], args.d, m, args.lam)
    routes = ROUTES if args.route == "all" else (args.route,)
    try:
        results = [
            route_polynomial(bg, k, route, args.override) for k in sorted(ks) for route in sorted(routes)
        ]
    except Exception as exc:  # the input was valid, so the route is at fault
        sys.__excepthook__(*sys.exc_info())  # the interpreter's own traceback printer
        sys.stderr.write(f"error: internal defect: {type(exc).__name__}: {exc}\n")
        return 1
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
    report = verify_spaceform_conditions(args.d, args.m, args.mu, args.kappa, args.f0)
    if args.format == "json":
        sys.stdout.write(json.dumps(report.to_json()) + "\n")
    else:
        for key, value in report.to_json().items():
            sys.stdout.write(f"{key}: {value}\n")
    return 0


def cmd_table(args: argparse.Namespace) -> int:
    # A grid skips invalid backgrounds, so the lambda rule is checked for the
    # whole table, before any list is read.
    qe = args.kind == "qe"
    if qe != bool(args.lam):
        raise AlgebraError("qe tables require --lambda" if qe else "gl tables take no --lambda")
    ds, ms = _int_list(args.d, "d must be an integer >= 2"), _rat_list(args.m)
    ks = [positive_k(k) for k in _int_list(args.k, "k must be a positive integer")]
    lams = _rat_list(args.lam) if qe else [None]
    grid = list(product(ds, ms, lams))
    backgrounds = []
    for d, m, lam in grid:
        try:
            bg = Background(KINDS[args.kind], d, m, lam)
        except AlgebraError:
            continue
        backgrounds.append(bg)
    cells = [cross_route_report(bg, k) for bg, k in _cells(backgrounds, ks)]
    if not cells:
        raise AlgebraError("no admissible cell: every background is invalid or every k exceeds (d+m)/2")
    status = 0 if all(cell.all_agree() for cell in cells) else 1
    if args.format == "json":
        sys.stdout.write(json.dumps([c.to_json() for c in cells]) + "\n")
        return status
    writer = csv.writer(sys.stdout)
    writer.writerow(["kind", "d", "m", "lambda", "k", *ROUTES, "all_agree"])
    for cell in cells:
        bg = cell.background
        row = [bg.kind, bg.d, rat_str(bg.m), "" if bg.lam is None else rat_str(bg.lam), cell.k]
        for name in ROUTES:
            if name in cell.routes:
                row.append(" ".join(cell.routes[name].poly.to_strings()))
            else:
                row.append(f"error: {cell.errors[name]}")
        writer.writerow(row + [str(cell.all_agree()).lower()])
    return status


def _int_list(text: str, message: str) -> list[int]:
    """Comma-separated integers; any other entry raises AlgebraError(message)."""
    try:
        return [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise AlgebraError(message) from None


def _rat_list(text: str) -> list[Fraction]:
    return [rat(part) for part in text.split(",") if part.strip()]


def _cells(backgrounds, ks):
    """The (background, k) pairs inside the paper's range, backgrounds outermost."""
    return ((bg, k) for bg in backgrounds for k in ks if not beyond_paper_range(bg.dm, k))


# -- verification suites -----------------------------------------------------


def run_checks(checks: Iterable[tuple[str, Callable[[], bool | tuple[bool, str]]]], out=None) -> int:
    """Run each (description, test) pair in turn, print one line for it and
    return the number that failed.  test() returns ok, or ok and a detail
    printed on failure; a test that raises fails with the exception as its
    witness instead of ending the run."""
    out = out or sys.stdout
    failures = 0
    for description, test in checks:
        try:
            outcome = test()
            ok, detail = outcome if isinstance(outcome, tuple) else (outcome, "")
        except Exception as exc:
            sys.__excepthook__(*sys.exc_info())  # the interpreter's own traceback printer
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        out.write(f"{'ok  ' if ok else 'FAIL'} {description}\n")
        if not ok:
            failures += 1
            if detail:
                out.write(f"     {detail}\n")
    return failures


# Each suite yields (description, test) pairs for the cells up to kmax.  The
# tests bind their arguments with partial, so a suite run as a list runs the
# same checks.  report(bg, k) and solve(bg, k) are the run's cached
# cross_route_report and scattering_solve.


def sl2_checks(kmax: int, report, solve):
    def identity(kind: str, k: int) -> tuple[bool, str]:
        ok, witness = verify_commutator_identity(kind, k)
        return ok, f"witness {witness}"

    def extracts(k: int) -> tuple[bool, str]:
        # extract_Zk raises unless y^(k-1)x^(k-1) - lead - x Z_k reduces to 0;
        # the Z_k it extracts must also be the closed form, word by word
        got, want = extract_Zk(k).terms, zk_closed_form(k).terms
        differ = [w for w in got.keys() | want.keys() if got.get(w, 0) != want.get(w, 0)]
        if not differ:
            return True, ""
        w = min(differ, key=lambda w: (len(w), w))
        return False, f"word {'*'.join(w) or '1'}: extracted {rat_str(got.get(w, 0))}, closed form {rat_str(want.get(w, 0))}"

    def route_ratio(k: int) -> tuple[bool, str]:
        # h evaluated at -(k-1) turns the product into the iterated/obstruction
        # ratio; the whole polynomial must be that constant, so no word survives
        val, lead = falling_h_product(k).substitute_h(-(k - 1)), (-1) ** (k - 1) * factorial(k - 1)
        ok = val == lead and 4 ** (k - 1) * factorial(k - 1) * lead == iterated_vs_obstruction_constant(k)
        return ok, f"h-product at h=-(k-1): {val}"

    for k in range(1, kmax + 1):
        for kind, label in (("yk_x", "[y^k,x] = -k y^(k-1)(h-k+1)"), ("xk_y", "[x^k,y] = k x^(k-1)(h+k-1)")):
            yield f"sl2 {label} at k={k}", partial(identity, kind, k)
    yield "sl2 Jacobi identity reduces to 0", lambda: _first_nonzero([("Jacobi defect", jacobi_defect())])
    for k in range(1, kmax + 1):
        yield f"sl2 y^(k-1)x^(k-1) = (-1)^(k-1)(k-1)! h(h+1)..(h+k-2) + x Z_k at k={k}", partial(extracts, k)
        yield f"sl2 h-product at h=-(k-1) reproduces the route ratio at k={k}", partial(route_ratio, k)


def _first_nonzero(named: Iterable[tuple[str, SigmaPoly | NcPoly]]) -> tuple[bool, str]:
    """ok when every polynomial is zero; otherwise the first nonzero one, named."""
    for name, poly in named:
        if not poly.is_zero():
            return False, f"{name}: {poly}"
    return True, ""


def _witness(report: RouteReport, names) -> str:
    """The errors of the named routes if any raised, otherwise their polynomials."""
    errors = [f"{n}: {report.errors[n]}" for n in names if n in report.errors]
    return "; ".join(errors or [f"{n}: {report.routes[n].poly}" for n in names])


def ambient_checks(kmax: int, report, solve):
    def routes_agree(bg: Background, k: int) -> tuple[bool, str]:
        cell = report(bg, k)
        return cell.all_agree(), _witness(cell, sorted(ROUTES))

    def independent(bg: Background, k: int) -> tuple[bool, str]:
        cell = report(bg, k)
        if "iterated" in cell.errors:
            return False, _witness(cell, ("iterated",))
        base = cell.routes["iterated"].poly
        # The read-off is affine in a Q*H perturbation and sigma is a scalar
        # of the operator, so rho^1..rho^k span every perturbation over Q[sigma];
        # rho^(k+1) cannot reach order 0 in k applications.
        for j in range(1, k + 1):
            poly = gjms_iterated(bg, k, TruncatedSeries(RHO, [0] * j + [1], k)).poly
            if poly != base:
                return False, f"perturbed by rho^{j}: {poly}; unperturbed: {base}"
        return True, ""

    def closes(bg: Background) -> tuple[bool, str]:
        image = ambient_laplacian(bg, harmonic_extension(bg, critical_weight(bg, 1) + Fraction(1, 3), 4))
        return _first_nonzero((f"image rho^{j} coefficient", image.profile.coeff(j)) for j in range(4))

    for bg in VERIFY_MATRIX:
        for _, k in _cells((bg,), range(1, kmax + 1)):
            yield f"routes agree on {bg.label()} k={k}", partial(routes_agree, bg, k)
            yield f"extension independence on {bg.label()} k={k}", partial(independent, bg, k)
        yield f"harmonic extension closes to order 3 on {bg.label()}", partial(closes, bg)


def scattering_checks(kmax: int, report, solve):
    def odd_vanish(bg: Background, k: int) -> tuple[bool, str]:
        v = solve(bg, k).v_coeffs
        return _first_nonzero((f"v_{j}", v[j]) for j in range(1, 2 * k, 2))

    def equals_iterated(bg: Background, k: int) -> tuple[bool, str]:
        cell = report(bg, k)
        pair = ("iterated", "scattering")
        return cell.agreement.get(pair, False), _witness(cell, pair)

    def monic(bg: Background, k: int) -> tuple[bool, str]:
        normalized = solve(bg, k).log_coeff / log_normalization(k)
        return normalized.degree == k and abs(normalized.coeffs[-1]) == 1, f"log coefficient over d_k: {normalized}"

    for bg, k in _cells(VERIFY_MATRIX, range(1, kmax + 1)):
        yield f"odd radial coefficients vanish on {bg.label()} k={k}", partial(odd_vanish, bg, k)
        yield f"scattering route equals iterated on {bg.label()} k={k}", partial(equals_iterated, bg, k)
        yield f"log coefficient over d_k is +/-monic degree {k} on {bg.label()}", partial(monic, bg, k)


def green_checks(kmax: int, report, solve):
    def symmetric(bg: Background, k: int) -> tuple[bool, str]:
        pairing = greens_log_coefficient(solve(bg, k))
        return pairing.match, f"lp: {pairing.lp}; rhs: {pairing.rhs}"

    for bg, k in _cells(GREEN_MATRIX, range(1, kmax + 1)):
        yield f"log-coefficient pairing is symmetric on {bg.label()} k={k}", partial(symmetric, bg, k)


# The one statement of the suite names; `verify all` runs them in this order.
SUITES = {"sl2": sl2_checks, "ambient": ambient_checks, "scattering": scattering_checks, "green": green_checks}


def cmd_verify(args: argparse.Namespace) -> int:
    kmax = positive_k(args.kmax)
    # one RouteReport and one radial solution per (background, k) cell,
    # shared by the suites of this run
    report, solve = cache(cross_route_report), cache(scattering_solve)
    names = SUITES if args.suite == "all" else (args.suite,)
    fault = [("fault-injection self-test hook", lambda: (False, "fault injected by request"))]
    checks = chain(*(SUITES[name](kmax, report, solve) for name in names), fault if args.inject_fault else ())
    failures = run_checks(checks)
    total = "all checks passed" if failures == 0 else f"{failures} check(s) FAILED"
    sys.stdout.write(f"summary: {total}\n")
    return 0 if failures == 0 else 1


# -- argument parsing ---------------------------------------------------------


@cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process and shared by every
    ``main`` call."""
    parser = argparse.ArgumentParser(
        prog="gjms",
        description="Exact construction and cross-verification of weighted GJMS operators "
        "on the quasi-Einstein and Gover-Leitner model backgrounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    comp = sub.add_parser("compute", help="compute operator polynomials for one background")
    comp.add_argument("kind", choices=KINDS)
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
    ver.add_argument("suite", choices=("all", *SUITES))
    ver.add_argument("--kmax", type=int, default=3)
    ver.add_argument("--inject-fault", action="store_true", help="self-test hook: add one failing check")
    ver.set_defaults(func=cmd_verify)

    tab = sub.add_parser("table", help="route-comparison table over a parameter grid")
    tab.add_argument("kind", choices=KINDS)
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
    try:
        return args.func(args)
    except ValueError as exc:  # AlgebraError is a ValueError
        sys.stderr.write(f"error: {exc}\n")
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
