"""Acceptance gate: ten end-to-end checks, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion lines
as they happen; without -s pytest shows them for any failing test.
"""

import json
import random
import subprocess
import sys
from fractions import Fraction as F

import pytest

from gjms.ambient import (
    ObstructedWeight,
    ambient_laplacian,
    check_k_restriction_dm,
    critical_weight,
    gjms_iterated,
    gjms_recursion,
    harmonic_extension,
    iterate_at_weight,
    iterated_vs_obstruction_constant,
    obstruction,
    RestrictionError,
)
from gjms.backgrounds import Background, verify_spaceform_conditions
from gjms.core import SigmaPoly
from gjms.factorization import gl_product, qe_product
from gjms.scattering import (
    SCATTERING_SIGN,
    gjms_route_scattering,
    greens_log_coefficient,
    log_normalization,
    scattering_solve,
)
from gjms.sl2 import extract_Zk, jacobi_defect, verify_commutator_identity

from gjms_reference import random_admissible_perturbation

SIGMA = SigmaPoly.sigma()

QE_REF = Background.quasi_einstein(3, 2, 1)
GL_REF = Background.gover_leitner(3, 2)


def report(number: int, title: str, ok: bool, detail: str = "") -> None:
    mark = "PASS" if ok else "FAIL"
    line = f"[{mark}] criterion {number}: {title}"
    if detail and not ok:
        line += f" -- {detail}"
    print(line)
    assert ok, line


def admissible(d: int, m, k: int) -> bool:
    if d + m == 2:
        return False
    try:
        check_k_restriction_dm(F(d) + F(m), k)
    except RestrictionError:
        return False
    return True


def qe_matrix():
    for d in range(2, 7):
        for m in (F(0), F(1, 2), F(1), F(2), F(7, 3)):
            for lam in (F(-1), F(0), F(1, 2), F(1)):
                for k in range(1, 7):
                    if admissible(d, m, k):
                        yield Background.quasi_einstein(d, m, lam), k


def test_criterion_1_sl2_identities():
    ok = jacobi_defect().is_zero()
    for k in range(1, 13):
        ok = ok and verify_commutator_identity("yk_x", k)[0]
        ok = ok and verify_commutator_identity("xk_y", k)[0]
        try:
            extract_Zk(k)  # re-verifies the corrected product identity internally
        except Exception:  # pragma: no cover - diagnostic path
            ok = False
    report(1, "sl(2) commutator identities, corrected product identity, Jacobi, k <= 12", ok)


def test_criterion_2_extension_independence():
    ok = True
    detail = ""
    rng = random.Random(20240229)
    for bg in (QE_REF, GL_REF):
        for k in (1, 2, 3):
            base = gjms_iterated(bg, k).poly
            for _ in range(20):
                pert = random_admissible_perturbation(rng, k + 2)
                if gjms_iterated(bg, k, perturbation=pert).poly != base:
                    ok = False
                    detail = f"critical-weight output moved on {bg.label()} k={k}"
        # off the critical weight the output must genuinely see the extension
        k = 2
        for _ in range(5):
            w = critical_weight(bg, k) + F(rng.randint(1, 9), rng.choice([2, 3, 5]))
            base = iterate_at_weight(bg, w, k)
            moved = any(
                iterate_at_weight(bg, w, k, random_admissible_perturbation(rng, k)) != base
                for _ in range(8)
            )
            if not moved:
                ok = False
                detail = f"off-critical weight w={w} insensitive on {bg.label()}"
    report(2, "20 random perturbations leave the critical-weight output bit-identical; "
              "5 off-critical weights do not", ok, detail)


def test_criterion_3_constant_check_matrix():
    ok = True
    detail = ""
    cells = 0
    for bg, k in qe_matrix():
        cells += 1
        lhs = gjms_iterated(bg, k).poly
        rhs = iterated_vs_obstruction_constant(k) * obstruction(bg, k).poly
        if lhs != rhs:
            ok = False
            detail = f"{bg.label()} k={k}: {lhs} vs {rhs}"
            break
    ok = ok and cells > 300
    report(3, f"iterated = (-4)^(k-1)((k-1)!)^2 * obstruction over {cells} matrix cells",
           ok, detail)


def test_criterion_4_qe_factorization():
    ok = qe_product(3, 2, 1, 2).poly == SigmaPoly([F(105, 4), -11, 1])
    detail = "" if ok else "pinned instance failed"
    for bg, k in qe_matrix():
        fact = qe_product(bg.d, bg.m, bg.lam, k).poly
        if not (fact == gjms_iterated(bg, k).poly == gjms_recursion(bg, k).poly):
            ok = False
            detail = f"{bg.label()} k={k}"
            break
    report(4, "quasi-Einstein product = iterated = recursion over the matrix; "
              "pinned sigma^2 - 11 sigma + 105/4", ok, detail)


def test_criterion_5_gl_factorization():
    ok = gl_product(3, 2, 1).poly == SIGMA + F(3, 4)
    ok = ok and gl_product(3, 2, 2).poly == (SIGMA + F(3, 4)) * (SIGMA - F(5, 4))
    detail = "" if ok else "pinned instances failed"
    cells = 0
    for d in range(2, 6):
        for m in (F(1, 2), F(1), F(2)):
            for k in range(1, 7):
                if not admissible(d, m, k):
                    continue
                cells += 1
                bg = Background.gover_leitner(d, m)
                if gl_product(d, m, k).poly != gjms_iterated(bg, k).poly:
                    ok = False
                    detail = f"GL(d={d}, m={m}) k={k}"
    report(5, f"Gover-Leitner product = iterated over {cells} cells; pinned k=1,2 instances",
           ok, detail)


def test_criterion_6_scattering_route():
    # The global sign is measured at k = 1 and k = 2 before being used at k = 3.
    ok = True
    detail = ""
    measured_signs = set()
    for bg in (QE_REF, GL_REF, Background.quasi_einstein(3, 2, 0)):
        for k in (1, 2):
            sol = scattering_solve(bg, k)
            ratio = sol.log_coeff / log_normalization(k)
            target = gjms_iterated(bg, k).poly
            if ratio.degree != k or abs(ratio.coeffs[-1]) != 1:
                ok = False
                detail = f"p_2k/d_k not +/-monic on {bg.label()} k={k}"
            measured_signs.add(ratio.coeffs[-1] / target.coeffs[-1])
    if measured_signs != {SCATTERING_SIGN}:
        ok = False
        detail = f"measured signs {measured_signs} disagree with pinned {SCATTERING_SIGN}"
    for bg, k in qe_matrix():
        if k > 3:
            continue
        sol = scattering_solve(bg, k)
        if any(not sol.v_coeffs[j].is_zero() for j in range(1, 2 * k, 2)):
            ok = False
            detail = f"odd coefficient survives on {bg.label()} k={k}"
            break
        if gjms_route_scattering(bg, k).poly != gjms_iterated(bg, k).poly:
            ok = False
            detail = f"route mismatch on {bg.label()} k={k}"
            break
    report(6, "odd radial coefficients vanish; scattering route (sign measured at k=1,2) "
              "equals iterated for k <= 3; p_2k/d_k is +/-monic", ok, detail)


def test_criterion_7_greens_log_pairing():
    ok = True
    detail = ""
    for bg in (QE_REF, Background.quasi_einstein(2, 2, F(1, 6)), GL_REF):
        for k in (1, 2):
            rep = greens_log_coefficient(scattering_solve(bg, k))
            if not rep.match:
                ok = False
                detail = f"{bg.label()} k={k}: lp={rep.lp} rhs={rep.rhs}"
    report(7, "boundary-pairing log coefficient equals -(d+m) p_2k A for k <= 2 "
              "on all three reference backgrounds", ok, detail)


def test_criterion_8_harmonic_extension():
    ok = True
    detail = ""
    rng = random.Random(8)
    for bg in (QE_REF, GL_REF):
        picked = 0
        while picked < 5:
            kv = F(rng.randint(-6, 18), rng.choice([2, 3, 4]))
            if kv.denominator == 1:
                continue
            picked += 1
            ext = harmonic_extension(bg, -bg.dm / 2 + kv, 8)
            image = ambient_laplacian(bg, ext)
            if any(not image.profile.coeff(j).is_zero() for j in range(8)):
                ok = False
                detail = f"{bg.label()} at k={kv}"
        for k_int in (1, 2, 3):
            try:
                harmonic_extension(bg, critical_weight(bg, k_int), 8)
                ok = False
                detail = f"{bg.label()} k={k_int}: no obstruction raised"
            except ObstructedWeight as exc:
                if exc.level != k_int:
                    ok = False
                    detail = f"{bg.label()} k={k_int}: obstructed at level {exc.level}"
    report(8, "order-8 extensions vanish through order 7 for 5 non-integer k per "
              "background; integer k obstructs exactly at level k", ok, detail)


def test_criterion_9_spaceforms():
    round_case = verify_spaceform_conditions(2, 2, 1, 1, 1)
    hyper_case = verify_spaceform_conditions(3, 2, 1, -1, 1)
    ok = (
        round_case.is_quasi_einstein
        and round_case.P_coeff == F(1, 6)
        and hyper_case.is_gover_leitner
        and not hyper_case.is_quasi_einstein
    )
    report(9, "spaceform checks: (d=2,m=2,mu=1,kappa=1) is quasi-Einstein with "
              "lambda = 1/6; (d=3,m=2,kappa=-1) is Gover-Leitner only", ok,
           f"round={round_case.to_json()} hyperbolic={hyper_case.to_json()}")


def test_criterion_10_cli_contract():
    cli = [sys.executable, "-m", "gjms.cli"]

    def run(*args):
        return subprocess.run(cli + list(args), capture_output=True, text=True)

    verify_a = run("verify", "all", "--kmax", "3")
    verify_b = run("verify", "all", "--kmax", "3")
    fault = run("verify", "all", "--kmax", "3", "--inject-fault")
    restricted = run("compute", "qe", "--d", "4", "--m", "2", "--k", "4")
    table_a = run("table", "gl", "--d", "3,4", "--m", "1,2", "--k", "1,2")
    table_b = run("table", "gl", "--d", "3,4", "--m", "1,2", "--k", "1,2")
    compute_a = run("compute", "qe", "--d", "3", "--m", "2", "--lambda", "1",
                    "--kmax", "3", "--route", "all", "--format", "json")
    compute_b = run("compute", "qe", "--d", "3", "--m", "2", "--lambda", "1",
                    "--kmax", "3", "--route", "all", "--format", "json")
    ok = (
        verify_a.returncode == 0
        and fault.returncode == 1
        and restricted.returncode == 2
        and verify_a.stdout == verify_b.stdout
        and table_a.stdout == table_b.stdout
        and compute_a.stdout == compute_b.stdout
        and json.loads(compute_a.stdout)[0]["poly_sigma"] == ["-15/2", "1"]
    )
    report(10, "CLI: verify exits 0, fault injection exits 1, restricted k exits 2, "
               "outputs byte-deterministic across runs", ok,
           f"codes: {verify_a.returncode}/{fault.returncode}/{restricted.returncode}")
