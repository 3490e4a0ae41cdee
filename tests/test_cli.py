import hashlib
import io
import json
import subprocess
import sys
from collections import Counter
from functools import cache

import pytest

from gjms import cli, factorization, scattering
from gjms.ambient import GjmsPolynomial, HomogeneousFunction, beyond_paper_range
from gjms.core import AlgebraError
from gjms.scattering import ScatteringSolution
from gjms.series import RHO, TruncatedSeries
from gjms.sl2 import NcPoly

CLI = [sys.executable, "-m", "gjms.cli"]

# sha256 of stdout; any change to a polynomial, a check line or the output
# format moves one of these.
GOLDEN_STDOUT = {
    ("verify", "all", "--kmax", "3"):
        "5860134351db2c3b72047a0999bfb83f17d5c578b6a752cd383c331d0e3a8110",
    ("verify", "all", "--kmax", "5"):
        "7253b7a0e9b02d44c76ec42cf7fc545b53f75e4ec6366a05319d56ebc3d50d9a",
    ("table", "qe", "--d", "3,4,5", "--m", "1,2", "--lambda=-1,1", "--k", "1,2,3"):
        "85c00b7ce423f978e61676774a4ebb6d5421b035d1d3d020124821e6c80d2c15",
    ("compute", "gl", "--d", "3", "--m", "2", "--kmax", "3", "--route", "all", "--format", "json"):
        "8680dd29da71716aaceda8af75c4c108ebb1dc34e15a7ca9c72f1dfe0ca087cc",
}


def run_cli(*args, env=None):
    return subprocess.run(
        CLI + list(args), capture_output=True, text=True, env=env
    )


class TestCompute:
    def test_text_single(self):
        res = run_cli("compute", "qe", "--d", "3", "--m", "2", "--lambda", "1", "--k", "2")
        assert res.returncode == 0
        assert res.stdout == "sigma^2 - 11*sigma + 105/4\n"

    def test_json_single(self):
        res = run_cli(
            "compute", "qe", "--d", "3", "--m", "2", "--lambda", "1",
            "--k", "2", "--format", "json",
        )
        assert res.returncode == 0
        payload = json.loads(res.stdout)
        assert payload["poly_sigma"] == ["105/4", "-11", "1"]
        assert payload["route"] == "factorization"
        assert payload["background"]["lambda"] == "1"

    def test_all_routes_kmax(self):
        res = run_cli(
            "compute", "gl", "--d", "3", "--m", "2",
            "--kmax", "2", "--route", "all", "--format", "csv",
        )
        assert res.returncode == 0
        lines = res.stdout.strip().splitlines()
        assert lines[0] == "k,route,poly_sigma"
        assert len(lines) == 1 + 2 * 5  # two k values, five routes
        polys = {line.split(",", 2)[2] for line in lines[1:] if line.split(",")[0] == "1"}
        assert polys == {"3/4 1"}

    def test_missing_lambda_is_usage_error(self):
        res = run_cli("compute", "qe", "--d", "3", "--m", "2", "--k", "1")
        assert res.returncode == 2
        assert "lambda" in res.stderr

    def test_stray_lambda_is_usage_error(self):
        res = run_cli("compute", "gl", "--d", "3", "--m", "2", "--lambda", "1", "--k", "1")
        assert res.returncode == 2
        assert res.stderr == "error: Gover-Leitner background has no lambda\n"

    def test_restricted_k_is_usage_error(self):
        res = run_cli("compute", "qe", "--d", "4", "--m", "2", "--k", "4")
        assert res.returncode == 2
        assert "exceeds" in res.stderr

    @pytest.mark.parametrize(
        "dims, message",
        [(("1", "1", "2"), "d must be an integer >= 2"), (("2", "0", "2"), "d + m = 2"), (("5", "-1", "3"), "m must be >= 0")],
    )
    def test_dimension_rule_comes_before_the_range_rule(self, dims, message, capsys):
        # each k exceeds (d+m)/2, so the range rule alone would suggest an override
        d, m, k = dims
        code = cli.main(["compute", "qe", "--d", d, "--m", m, "--lambda", "1", "--k", k])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert message in captured.err
        assert "override" not in captured.err

    def test_restricted_k_with_override(self):
        res = run_cli(
            "compute", "qe", "--d", "4", "--m", "2", "--lambda", "0",
            "--k", "4", "--route", "iterated", "--override",
        )
        assert res.returncode == 0
        assert res.stdout == "sigma^4\n"

    @pytest.mark.parametrize("fmt", ["text", "json", "csv"])
    @pytest.mark.parametrize("k", [("--kmax", "0"), ("--kmax", "-1"), ("--k", "0"), ("--k", "-1")])
    def test_nonpositive_k_is_usage_error(self, k, fmt, capsys):
        code = cli.main(["compute", "gl", "--d", "3", "--m", "2", *k, "--format", fmt])
        out = capsys.readouterr()
        assert code == 2
        assert out.out == ""
        assert out.err == "error: k must be a positive integer\n"


class TestVerify:
    def test_all_passes(self):
        res = run_cli("verify", "all", "--kmax", "2")
        assert res.returncode == 0
        assert "summary: all checks passed" in res.stdout
        assert "FAIL" not in res.stdout
        assert all(
            line.startswith(("ok  ", "summary:")) for line in res.stdout.strip().splitlines()
        )

    def test_fault_injection_fails(self):
        res = run_cli("verify", "all", "--kmax", "2", "--inject-fault")
        assert res.returncode == 1
        assert "FAIL" in res.stdout
        assert "summary: 1 check(s) FAILED" in res.stdout

    def test_fault_injection_fails_every_suite(self):
        for suite in cli.SUITES:
            res = run_cli("verify", suite, "--kmax", "1", "--inject-fault")
            assert res.returncode == 1, suite

    def test_sl2_deep(self):
        res = run_cli("verify", "sl2", "--kmax", "6")
        assert res.returncode == 0

    @pytest.mark.parametrize("suite", ["all", *cli.SUITES])
    def test_fault_injection_adds_one_failing_line(self, suite, capsys):
        assert cli.main(["verify", suite, "--kmax", "1", "--inject-fault"]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert [line for line in lines if not line.startswith("ok  ")] == [
            "FAIL fault-injection self-test hook",
            "     fault injected by request",
            "summary: 1 check(s) FAILED",
        ]

    def test_scattering_runs_to_kmax(self, capsys):
        assert cli.main(["verify", "scattering", "--kmax", "4"]) == 0
        out = capsys.readouterr().out
        assert "ok   scattering route equals iterated on QE(d=3, m=2, lambda=1) k=4\n" in out
        assert "ok   odd radial coefficients vanish on GL(d=3, m=2) k=4\n" in out

    @pytest.mark.parametrize("suite", ["all", *cli.SUITES])
    @pytest.mark.parametrize("kmax", ["0", "-1"])
    def test_nonpositive_kmax_is_usage_error(self, suite, kmax, capsys):
        code = cli.main(["verify", suite, "--kmax", kmax])
        out = capsys.readouterr()
        assert code == 2
        assert out.out == ""
        assert out.err == "error: k must be a positive integer\n"

    def test_all_runs_sl2_to_kmax(self, monkeypatch, capsys):
        seen = []

        def stub(name):
            def suite(kmax, report, solve):
                seen.append((name, kmax))
                return iter(())

            return suite

        for name in cli.SUITES:
            monkeypatch.setitem(cli.SUITES, name, stub(name))
        assert cli.main(["verify", "all", "--kmax", "9"]) == 0
        assert seen == [(name, 9) for name in cli.SUITES]
        assert capsys.readouterr().out == "summary: all checks passed\n"

    @pytest.mark.parametrize("suite", list(cli.SUITES))
    def test_a_suite_run_as_a_list_runs_the_same_checks(self, suite, monkeypatch, capsys):
        # a test that bound bg or k late would read the last cell once the
        # suite is a list: the recorded arguments would differ even where
        # every check still passes
        calls = []

        def spy(name, real):
            def wrapper(*args):
                calls.append((name, *args))
                return real(*args)

            return wrapper

        for name in ("cross_route_report", "scattering_solve", "verify_commutator_identity", "extract_Zk",
                     "falling_h_product", "harmonic_extension"):
            monkeypatch.setattr(cli, name, spy(name, getattr(cli, name)))
        assert cli.main(["verify", suite, "--kmax", "3"]) == 0
        expected, expected_calls = capsys.readouterr().out, list(calls)
        calls.clear()
        checks = list(cli.SUITES[suite](3, cache(cli.cross_route_report), cache(cli.scattering_solve)))
        out = io.StringIO()
        assert cli.run_checks(checks, out) == 0
        assert out.getvalue() + "summary: all checks passed\n" == expected
        assert calls == expected_calls and calls

    def test_all_runs_every_suite_in_order(self, capsys):
        assert cli.main(["verify", "all", "--kmax", "3"]) == 0
        everything = capsys.readouterr().out
        parts = []
        for suite in cli.SUITES:
            assert cli.main(["verify", suite, "--kmax", "3"]) == 0
            parts.append(capsys.readouterr().out.removesuffix("summary: all checks passed\n"))
        assert everything == "".join(parts) + "summary: all checks passed\n"

    def test_byte_deterministic(self):
        first = run_cli("verify", "all", "--kmax", "2")
        second = run_cli("verify", "all", "--kmax", "2")
        assert first.stdout == second.stdout


class TestVerifyFailures:
    """A check whose computation raises is a FAIL line with the exception as
    its witness and exit code 1, never a usage error or a traceback."""

    @staticmethod
    def broken(*args, **kwargs):
        raise AlgebraError("injected defect")

    @pytest.mark.parametrize(
        "suite, owner, name, line",
        [
            ("ambient", factorization, "gjms_recursion", "FAIL routes agree on"),
            ("scattering", cli, "scattering_solve", "FAIL odd radial coefficients vanish on"),
            ("green", cli, "greens_log_coefficient", "FAIL log-coefficient pairing is symmetric on"),
            ("sl2", cli, "extract_Zk", "FAIL sl2 y^(k-1)x^(k-1) ="),
        ],
        ids=("ambient", "scattering", "green", "sl2"),
    )
    def test_raising_route_is_a_failed_check(self, monkeypatch, capsys, suite, owner, name, line):
        monkeypatch.setattr(owner, name, self.broken)
        code = cli.main(["verify", suite, "--kmax", "1"])
        out = capsys.readouterr().out
        assert code == 1
        assert line in out
        assert "injected defect" in out
        assert out.endswith("check(s) FAILED\n")

    @staticmethod
    def fail_lines(out: str) -> list[str]:
        return [line for line in out.splitlines() if line.startswith("FAIL")]

    def test_wrong_scattering_route_fails_routes_agree(self, monkeypatch, capsys):
        # the scattering route is compared in "routes agree", not only in the scattering suite
        real = factorization.gjms_route_scattering

        def off_by_one(bg, k):
            return GjmsPolynomial(k, bg, "scattering", real(bg, k).poly + (1 if k >= 4 else 0))

        monkeypatch.setattr(factorization, "gjms_route_scattering", off_by_one)
        code = cli.main(["verify", "ambient", "--kmax", "4"])
        fails = self.fail_lines(capsys.readouterr().out)
        assert code == 1
        assert "FAIL routes agree on QE(d=3, m=2, lambda=1) k=4" in fails
        assert all(line.startswith("FAIL routes agree on") and line.endswith(" k=4") for line in fails)

    def test_wrong_polynomial_fails_routes_agree(self, monkeypatch, capsys):
        # a route that returns a wrong polynomial without raising
        real = factorization.gjms_recursion
        monkeypatch.setattr(
            factorization, "gjms_recursion", lambda bg, k: GjmsPolynomial(k, bg, "recursion", real(bg, k).poly + 1)
        )
        code = cli.main(["verify", "ambient", "--kmax", "1"])
        out = capsys.readouterr().out
        assert code == 1
        assert self.fail_lines(out) == [f"FAIL routes agree on {bg.label()} k=1" for bg in cli.VERIFY_MATRIX]
        assert "     factorization: sigma - 15/2; iterated: sigma - 15/2; obstruction: sigma - 15/2; " \
            "recursion: sigma - 13/2; scattering: sigma - 15/2\n" in out

    def test_each_route_runs_once_per_cell(self, monkeypatch, capsys):
        calls = Counter()

        def counted(real, name):
            def wrapper(bg, k, perturbation=None):
                if perturbation is None:  # a perturbed extension is not the route
                    calls[name, bg.label(), k] += 1
                return real(bg, k) if perturbation is None else real(bg, k, perturbation)

            return wrapper

        for name in ("gjms_iterated", "gjms_route_scattering"):
            for owner in (factorization, cli):  # every module that binds the route
                if hasattr(owner, name):
                    monkeypatch.setattr(owner, name, counted(getattr(owner, name), name))
        assert cli.main(["verify", "all", "--kmax", "3"]) == 0
        cells = [(bg.label(), k) for bg in cli.VERIFY_MATRIX for k in (1, 2, 3) if not beyond_paper_range(bg.dm, k)]
        expected = Counter({(name, *cell): 1 for name in ("gjms_iterated", "gjms_route_scattering") for cell in cells})
        assert calls == expected

    def test_each_cell_solves_the_radial_expansion_twice(self, monkeypatch, capsys):
        # once inside the cell's scattering route, once for the scattering and
        # Green suites together
        calls = Counter()

        def counted(real):
            def wrapper(bg, k):
                calls[bg.label(), k] += 1
                return real(bg, k)

            return wrapper

        for owner in (scattering, cli):  # every module that binds the solve
            monkeypatch.setattr(owner, "scattering_solve", counted(getattr(owner, "scattering_solve")))
        assert cli.main(["verify", "all", "--kmax", "3"]) == 0
        cells = [(bg.label(), k) for bg in cli.VERIFY_MATRIX for k in (1, 2, 3) if not beyond_paper_range(bg.dm, k)]
        assert calls == Counter({cell: 2 for cell in cells})
        assert sum(calls.values()) == 34

    def test_every_odd_radial_coefficient_is_checked(self, monkeypatch, capsys):
        # v_5 on QE(3, 2, 1) sits at j = 5 = d+m, which an earlier filter skipped
        real, bg = cli.scattering_solve, cli.VERIFY_MATRIX[0]

        def surviving_v5(cell, k):
            sol = real(cell, k)
            if (cell, k) != (bg, 3):
                return sol
            v = list(sol.v_coeffs)
            v[5] = v[5] + 1
            return ScatteringSolution(sol.k, sol.s, sol.background, tuple(v), sol.log_coeff)

        monkeypatch.setattr(cli, "scattering_solve", surviving_v5)
        code = cli.main(["verify", "scattering", "--kmax", "3"])
        assert code == 1
        assert self.fail_lines(capsys.readouterr().out) == [f"FAIL odd radial coefficients vanish on {bg.label()} k=3"]

    def test_a_word_left_by_the_substitution_fails_the_route_ratio(self, monkeypatch, capsys):
        # the constant term alone is still right; the surviving word x must fail
        real = NcPoly.substitute_h
        monkeypatch.setattr(NcPoly, "substitute_h", lambda self, value: real(self, value) + NcPoly.x())
        code = cli.main(["verify", "sl2", "--kmax", "3"])
        out = capsys.readouterr().out
        assert code == 1
        assert [line for line in out.splitlines() if not line.startswith("ok  ")] == [
            "FAIL sl2 h-product at h=-(k-1) reproduces the route ratio at k=1",
            "     h-product at h=-(k-1): 1 + x",
            "FAIL sl2 h-product at h=-(k-1) reproduces the route ratio at k=2",
            "     h-product at h=-(k-1): -1 + x",
            "FAIL sl2 h-product at h=-(k-1) reproduces the route ratio at k=3",
            "     h-product at h=-(k-1): 2 + x",
            "summary: 3 check(s) FAILED",
        ]

    @staticmethod
    def witnessed(out: str, fail: str) -> str:
        """The line under the FAIL line for the first failing cell of a check."""
        lines = out.splitlines()
        return lines[lines.index(fail) + 1]

    def test_a_jacobi_defect_is_the_witness(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "jacobi_defect", NcPoly.x)
        assert cli.main(["verify", "sl2", "--kmax", "1"]) == 1
        out = capsys.readouterr().out
        assert self.witnessed(out, "FAIL sl2 Jacobi identity reduces to 0") == "     Jacobi defect: x"

    def test_a_perturbed_iteration_that_differs_is_the_witness(self, monkeypatch, capsys):
        real = cli.gjms_iterated

        def moved_by_a_perturbation(bg, k, perturbation=None):
            g = real(bg, k)
            return g if perturbation is None else GjmsPolynomial(k, bg, "iterated", g.poly + 1)

        monkeypatch.setattr(cli, "gjms_iterated", moved_by_a_perturbation)
        assert cli.main(["verify", "ambient", "--kmax", "1"]) == 1
        out = capsys.readouterr().out
        assert self.witnessed(out, "FAIL extension independence on QE(d=3, m=2, lambda=1) k=1") == \
            "     perturbed by rho^1: sigma - 13/2; unperturbed: sigma - 15/2"

    def test_the_first_basis_power_that_moves_is_the_witness(self, monkeypatch, capsys):
        # only a perturbation with a rho^2 term moves this iteration
        real = cli.gjms_iterated

        def moved_by_rho_squared(bg, k, perturbation=None):
            g = real(bg, k)
            if perturbation is None or perturbation.order < 2 or perturbation.coeff(2).is_zero():
                return g
            return GjmsPolynomial(k, bg, "iterated", g.poly + 1)

        monkeypatch.setattr(cli, "gjms_iterated", moved_by_rho_squared)
        assert cli.main(["verify", "ambient", "--kmax", "2"]) == 1
        out = capsys.readouterr().out
        assert "ok   extension independence on QE(d=3, m=2, lambda=1) k=1" in out
        assert self.witnessed(out, "FAIL extension independence on QE(d=3, m=2, lambda=1) k=2") == \
            "     perturbed by rho^2: sigma^2 - 11*sigma + 109/4; unperturbed: sigma^2 - 11*sigma + 105/4"

    def test_a_corrupted_zk_fails_the_closed_form_check(self, monkeypatch, capsys):
        # Z_3 = x*y*y - 4*h*y - 8*y; one more y is caught, with the word that differs
        real = cli.extract_Zk
        monkeypatch.setattr(cli, "extract_Zk", lambda k: real(k) + NcPoly.y() if k == 3 else real(k))
        assert cli.main(["verify", "sl2", "--kmax", "4"]) == 1
        out = capsys.readouterr().out
        fails = [line for line in out.splitlines() if line.startswith("FAIL")]
        line = "FAIL sl2 y^(k-1)x^(k-1) = (-1)^(k-1)(k-1)! h(h+1)..(h+k-2) + x Z_k at k=3"
        assert fails == [line]
        assert self.witnessed(out, line) == "     word y: extracted -7, closed form -8"

    def test_an_open_extension_names_its_first_nonzero_coefficient(self, monkeypatch, capsys):
        # the bare power t^w: its image's rho^0 coefficient is sigma + lam*w*(d+m),
        # w = -7/6 on QE(3, 2, 1)
        def bare_power(bg, w, order):
            return HomogeneousFunction(w, TruncatedSeries.constant(RHO, 1, order))

        monkeypatch.setattr(cli, "harmonic_extension", bare_power)
        assert cli.main(["verify", "ambient", "--kmax", "1"]) == 1
        out = capsys.readouterr().out
        assert self.witnessed(out, "FAIL harmonic extension closes to order 3 on QE(d=3, m=2, lambda=1)") == \
            "     image rho^0 coefficient: sigma - 35/6"

    def test_the_first_nonzero_odd_radial_coefficient_is_the_witness(self, monkeypatch, capsys):
        real, bg = cli.scattering_solve, cli.VERIFY_MATRIX[0]

        def surviving_v3_v5(cell, k):
            sol = real(cell, k)
            v = list(sol.v_coeffs)
            v[3], v[5] = v[3] + 1, v[5] + 1
            return ScatteringSolution(sol.k, sol.s, sol.background, tuple(v), sol.log_coeff)

        monkeypatch.setattr(cli, "scattering_solve", surviving_v3_v5)
        assert cli.main(["verify", "scattering", "--kmax", "3"]) == 1
        out = capsys.readouterr().out
        assert self.witnessed(out, f"FAIL odd radial coefficients vanish on {bg.label()} k=3") == "     v_3: 1"

    def test_a_non_monic_log_coefficient_is_the_witness(self, monkeypatch, capsys):
        real = cli.log_normalization
        monkeypatch.setattr(cli, "log_normalization", lambda k: 2 * real(k))
        assert cli.main(["verify", "scattering", "--kmax", "1"]) == 1
        out = capsys.readouterr().out
        fail = "FAIL log coefficient over d_k is +/-monic degree 1 on QE(d=3, m=2, lambda=1)"
        assert self.witnessed(out, fail) == "     log coefficient over d_k: -1/2*sigma + 15/4"

    def test_checker_reports_any_exception(self, capsys):
        out = io.StringIO()
        assert cli.run_checks([("lookup", lambda: {}["missing"]), ("fine", lambda: True)], out) == 1
        assert out.getvalue() == "FAIL lookup\n     KeyError: 'missing'\nok   fine\n"
        assert "KeyError: 'missing'" in capsys.readouterr().err


class TestRouteFailures:
    """A route that raises on valid input is a defect: exit 1 from compute,
    and never agreement in a table."""

    @staticmethod
    def broken(*args, **kwargs):
        raise AlgebraError("injected defect")

    def test_compute_reports_an_internal_defect(self, monkeypatch, capsys):
        monkeypatch.setattr(factorization, "gjms_recursion", self.broken)
        code = cli.main(["compute", "qe", "--d", "3", "--m", "2", "--lambda", "1", "--k", "2", "--route", "recursion"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.endswith("error: internal defect: AlgebraError: injected defect\n")

    def test_closed_form_honours_an_override(self, capsys):
        # beyond (d+m)/2 the closed-form product equals the iterated route
        args = ["compute", "qe", "--d", "4", "--m", "2", "--lambda", "1", "--k", "4", "--override"]
        code = cli.main(args)
        out = capsys.readouterr().out
        assert code == 0
        assert out == "sigma^4 - 8*sigma^3 - 144*sigma^2 + 1152*sigma\n"
        assert cli.main(args + ["--route", "iterated"]) == 0
        assert capsys.readouterr().out == out

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_table_route_error_is_not_agreement(self, monkeypatch, capsys, fmt):
        monkeypatch.setattr(factorization, "gjms_recursion", self.broken)
        code = cli.main(["table", "gl", "--d", "3", "--m", "2", "--k", "1", "--format", fmt])
        out = capsys.readouterr().out
        assert code == 1
        if fmt == "json":
            (cell,) = json.loads(out)
            assert cell["errors"] == {"recursion": "injected defect"}
            assert cell["all_agree"] is False
        else:
            row = out.splitlines()[1]
            assert "error: injected defect" in row
            assert row.endswith(",false")

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_table_route_raising_any_exception_is_a_failed_cell(self, monkeypatch, capsys, fmt):
        def divides_by_zero(*args, **kwargs):
            raise ZeroDivisionError("injected")

        monkeypatch.setattr(factorization, "gjms_recursion", divides_by_zero)
        code = cli.main(["table", "gl", "--d", "3", "--m", "2", "--k", "1", "--format", fmt])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == ""
        if fmt == "json":
            (cell,) = json.loads(captured.out)
            assert cell["errors"] == {"recursion": "ZeroDivisionError: injected"}
            assert cell["all_agree"] is False
            assert set(cell["routes"]) == {"factorization", "iterated", "obstruction", "scattering"}
        else:
            row = captured.out.splitlines()[1]
            assert "error: ZeroDivisionError: injected" in row
            assert row.endswith(",false")


class TestGoldenOutput:
    @pytest.mark.parametrize(
        "args", list(GOLDEN_STDOUT), ids=lambda args: " ".join(args if args[0] == "verify" else args[:2])
    )
    def test_stdout_digest(self, args):
        # bytes, not text: the csv writer ends rows with \r\n
        res = subprocess.run(CLI + list(args), capture_output=True)
        assert res.returncode == 0
        assert hashlib.sha256(res.stdout).hexdigest() == GOLDEN_STDOUT[args]


class TestTable:
    def test_qe_grid_row_count(self):
        args = (
            "table", "qe", "--d", "3,4,5", "--m", "1,2",
            "--lambda=-1,1", "--k", "1,2,3",
        )
        res = run_cli(*args)
        assert res.returncode == 0
        lines = res.stdout.strip().splitlines()
        # 36 grid cells minus the two (d=3, m=1, k=3) restricted ones
        assert len(lines) == 1 + 34
        assert lines[0].startswith("kind,d,m,lambda,k,")
        assert all(line.endswith(",true") for line in lines[1:])
        assert run_cli(*args).stdout == res.stdout  # byte-deterministic

    def test_gl_grid_row_count(self):
        res = run_cli("table", "gl", "--d", "3,4", "--m", "1,2", "--k", "1,2")
        assert res.returncode == 0
        lines = res.stdout.strip().splitlines()
        assert len(lines) == 1 + 8
        assert all(line.endswith(",true") for line in lines[1:])

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize(
        "grid",
        [
            ("qe", "--d", "1", "--m", "2", "--lambda", "1", "--k", "1"),  # no valid background
            ("qe", "--d", "3", "--m", "1", "--lambda=1", "--k", "3"),  # every k beyond (d+m)/2
            ("gl", "--d", "1,3", "--m", "1", "--k", "3"),  # both at once
            ("qe", "--d", "3", "--m", "1", "--lambda=,", "--k", "1"),  # an empty list is an empty grid
            ("gl", "--d", ",", "--m", "1", "--k", "1"),
            ("gl", "--d", "3", "--m", "1", "--k", ","),
        ],
        ids=("invalid", "restricted", "both", "no-lambda", "no-d", "no-k"),
    )
    def test_grid_without_an_admissible_cell_is_usage_error(self, grid, fmt, capsys):
        code = cli.main(["table", *grid, "--format", fmt])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "error: no admissible cell: every background is invalid or every k exceeds (d+m)/2\n"

    @pytest.mark.parametrize("k", ["0", "-1", "1,0"])
    def test_nonpositive_k_is_usage_error(self, k, capsys):
        code = cli.main(["table", "gl", "--d", "3", "--m", "2", "--k", k])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "error: k must be a positive integer\n"

    @pytest.mark.parametrize(
        "option, message",
        [(("--d", "3", "--k", "3/2"), "k must be a positive integer"), (("--d", "3/2", "--k", "3"), "d must be an integer >= 2")],
    )
    def test_a_non_integer_entry_is_the_stated_usage_error(self, option, message, capsys):
        code = cli.main(["table", "gl", "--m", "2", *option])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"
        assert "int()" not in captured.err

    def test_json_format(self):
        res = run_cli("table", "gl", "--d", "3", "--m", "2", "--k", "1", "--format", "json")
        cells = json.loads(res.stdout)
        assert len(cells) == 1
        assert cells[0]["all_agree"] is True

    def test_lambda_validation(self):
        for args, message in (
            (("qe", "--d", "3", "--m", "2", "--k", "1"), "qe tables require --lambda"),
            (("gl", "--d", "3", "--m", "2", "--k", "1", "--lambda", "1"), "gl tables take no --lambda"),
            # the lambda rule is reported before a malformed list
            (("qe", "--d", "x", "--m", "2", "--k", "0"), "qe tables require --lambda"),
        ):
            res = run_cli("table", *args)
            assert res.returncode == 2
            assert (res.stdout, res.stderr) == ("", f"error: {message}\n")


class TestSpaceform:
    def test_text(self):
        res = run_cli(
            "spaceform", "--d", "2", "--m", "2", "--mu", "1", "--kappa", "1", "--f0", "1"
        )
        assert res.returncode == 0
        assert "P_coeff: 1/6" in res.stdout
        assert "is_quasi_einstein: True" in res.stdout

    def test_json(self):
        res = run_cli(
            "spaceform", "--d", "3", "--m", "2", "--mu", "1", "--kappa=-1",
            "--f0", "1", "--format", "json",
        )
        payload = json.loads(res.stdout)
        assert payload["is_gover_leitner"] is True
        assert payload["is_quasi_einstein"] is False

    @pytest.mark.parametrize(
        "dims, message",
        [(("1", "3"), "d must be an integer >= 2"), (("5", "-2"), "m must be >= 0"), (("2", "0"), "d + m = 2")],
    )
    def test_background_dimension_rule_is_a_usage_error(self, dims, message, capsys):
        # at d = 1 both (d-1)*kappa and -(d-1) vanish, so any kappa read as
        # Gover-Leitner before the rule applied here
        d, m = dims
        code = cli.main(["spaceform", "--d", d, "--m", m, "--mu", "1", "--kappa", "1", "--f0", "1"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert message in captured.err


class TestUsageErrors:
    def test_unknown_subcommand(self):
        assert run_cli("frobnicate").returncode == 2

    @pytest.mark.parametrize(
        "command",
        [["spaceform", "--d", "5", "--mu", "1", "--kappa", "1", "--f0", "1"], ["compute", "gl", "--d", "3", "--k", "1"]],
    )
    def test_a_zero_denominator_is_a_usage_error(self, command, capsys):
        code = cli.main([*command, "--m", "1/0"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "error: zero denominator in '1/0'\n"

    def test_a_zero_division_inside_a_command_is_not_a_usage_error(self, monkeypatch):
        def divides_by_zero(*args):
            raise ZeroDivisionError("injected")

        monkeypatch.setattr(cli, "verify_spaceform_conditions", divides_by_zero)
        with pytest.raises(ZeroDivisionError, match="injected"):
            cli.main(["spaceform", "--d", "3", "--m", "2", "--mu", "1", "--kappa", "1", "--f0", "1"])

    def test_k_and_kmax_exclusive(self):
        res = run_cli(
            "compute", "qe", "--d", "3", "--m", "2", "--lambda", "1",
            "--k", "1", "--kmax", "2",
        )
        assert res.returncode == 2

    def test_no_float_output_anywhere(self):
        res = run_cli(
            "compute", "qe", "--d", "3", "--m", "2", "--lambda", "1/6",
            "--kmax", "3", "--route", "all", "--format", "csv",
        )
        assert res.returncode == 0
        assert "." not in res.stdout


class TestStartup:
    """What one command costs before it computes: the modules an import
    loads and the parser ``main`` builds."""

    QE_K2 = ["compute", "qe", "--d", "3", "--m", "2", "--lambda", "1", "--k", "2"]

    def test_import_loads_no_dataclasses_inspect_or_traceback(self):
        code = "import sys, gjms, gjms.cli; print(' '.join(sorted(sys.modules)))"
        res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert res.returncode == 0, res.stderr
        loaded = set(res.stdout.split())
        assert {"gjms", "gjms.cli", "gjms.core"} <= loaded
        assert loaded & {"dataclasses", "inspect", "traceback"} == set()

    def test_a_route_defect_prints_its_traceback(self, monkeypatch, capsys):
        monkeypatch.setattr(factorization, "gjms_recursion", TestRouteFailures.broken)
        assert cli.main([*self.QE_K2, "--route", "recursion"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("Traceback (most recent call last):\n")
        assert "in broken\n" in err
        assert err.endswith("AlgebraError: injected defect\nerror: internal defect: AlgebraError: injected defect\n")

    def test_a_raising_check_prints_its_traceback(self, monkeypatch, capsys):
        def raising(kmax, report, solve):
            yield "lookup", lambda: {}["missing"]

        monkeypatch.setitem(cli.SUITES, "green", raising)
        assert cli.main(["verify", "green", "--kmax", "1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == "FAIL lookup\n     KeyError: 'missing'\nsummary: 1 check(s) FAILED\n"
        assert captured.err.startswith("Traceback (most recent call last):\n")
        assert captured.err.endswith("KeyError: 'missing'\n")

    def test_main_builds_the_parser_once(self, monkeypatch, capsys):
        parsers, build = [], cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda: parsers.append(build()) or parsers[-1])
        outs = []
        for argv in ([*self.QE_K2, "--format", "json"], self.QE_K2, [*self.QE_K2, "--format", "json"]):
            assert cli.main(argv) == 0
            outs.append(capsys.readouterr().out)
        assert len(parsers) == 3 and parsers[0] is parsers[1] is parsers[2]
        assert outs[0] == outs[2] and json.loads(outs[0])["poly_sigma"] == ["105/4", "-11", "1"]
        assert outs[1] == "sigma^2 - 11*sigma + 105/4\n"
