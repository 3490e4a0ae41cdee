import hashlib
import io
import json
import subprocess
import sys

import pytest

from gjms import cli, factorization
from gjms.core import AlgebraError

CLI = [sys.executable, "-m", "gjms.cli"]

# sha256 of stdout; any change to a polynomial, a check line or the output
# format moves one of these.
GOLDEN_STDOUT = {
    ("verify", "all", "--kmax", "3"):
        "c2a645174143f37e214d2f83841a18a50d8bcbdab798c773119022e9545faeb1",
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

    def test_restricted_k_is_usage_error(self):
        res = run_cli("compute", "qe", "--d", "4", "--m", "2", "--k", "4")
        assert res.returncode == 2
        assert "exceeds" in res.stderr

    def test_restricted_k_with_override(self):
        res = run_cli(
            "compute", "qe", "--d", "4", "--m", "2", "--lambda", "0",
            "--k", "4", "--route", "iterated", "--override",
        )
        assert res.returncode == 0
        assert res.stdout == "sigma^4\n"


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
        for suite in ("sl2", "ambient", "scattering", "green"):
            res = run_cli("verify", suite, "--kmax", "1", "--inject-fault")
            assert res.returncode == 1, suite

    def test_sl2_deep(self):
        res = run_cli("verify", "sl2", "--kmax", "6")
        assert res.returncode == 0

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

    def test_checker_reports_any_exception(self):
        out = io.StringIO()
        chk = cli.Checker(out)
        chk.check("lookup", lambda: {}["missing"])
        chk.check("fine", lambda: True)
        assert chk.failures == 1
        assert out.getvalue() == "FAIL lookup\n     KeyError: 'missing'\nok   fine\n"


class TestGoldenOutput:
    @pytest.mark.parametrize("args", list(GOLDEN_STDOUT), ids=lambda args: " ".join(args[:2]))
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

    def test_empty_grid_prints_header_only(self):
        res = run_cli("table", "gl", "--d", "3", "--m", "2", "--k", "")
        assert res.returncode == 0
        assert res.stdout.strip().splitlines() == [
            "kind,d,m,lambda,k,factorization,iterated,recursion,obstruction,scattering,all_agree"
        ]

    def test_json_format(self):
        res = run_cli("table", "gl", "--d", "3", "--m", "2", "--k", "1", "--format", "json")
        cells = json.loads(res.stdout)
        assert len(cells) == 1
        assert cells[0]["all_agree"] is True

    def test_lambda_validation(self):
        assert run_cli("table", "qe", "--d", "3", "--m", "2", "--k", "1").returncode == 2
        assert run_cli("table", "gl", "--d", "3", "--m", "2", "--k", "1", "--lambda", "1").returncode == 2


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


class TestUsageErrors:
    def test_unknown_subcommand(self):
        assert run_cli("frobnicate").returncode == 2

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
