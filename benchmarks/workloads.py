"""The benchmark workloads: inputs, one pass, and the output gate.

Each workload has ``build(seed)`` (part of set-up), ``run(inputs)`` (the timed
calls into ``gjms``) and ``check(inputs, outputs)``, which returns the number
of checks made and a message for each that failed.  The gate is part of the
timed pass.  This module imports ``gjms`` only inside those functions, so the
runner (run.py) can read the workload table without importing the package.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from fractions import Fraction

ROUTES = ("factorization", "iterated", "recursion", "obstruction", "scattering")


def nc_digest(poly) -> str:
    """sha256 of an NcPoly's terms as sorted "word coefficient" lines."""
    from gjms import rat_str

    text = "\n".join(f"{''.join(word)} {rat_str(c)}" for word, c in sorted(poly.terms.items()))
    return hashlib.sha256(text.encode()).hexdigest()


def run_cli(argv: list[str]) -> tuple[int, str]:
    """``gjms.cli.main(argv)`` in process; returns the exit code and stdout."""
    from gjms import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


class DeepRoutes:
    """``gjms table ... --k 4,8,12 --format json`` for one QE and one GL
    background, in process: ``cross_route_report`` over a k sweep.

    The seed draws small-height parameters with half-integer m, so d + m is
    never an integer and no k is restricted.
    """

    ks = (4, 8, 12)

    @property
    def checks_per_pass(self) -> int:
        """Per command: exit code and cell list, then seven checks per cell."""
        return 2 * (1 + len(self.ks) * (2 + len(ROUTES)))

    def build(self, seed: int):
        from gjms import Background, rat_str

        rng = random.Random(seed)

        def d_m():
            return rng.choice((3, 4, 5)), Fraction(rng.choice((1, 3, 5)), 2)

        ks = ",".join(map(str, self.ks))
        d, m = d_m()
        lam = rng.choice((-1, 1)) * Fraction(rng.choice((1, 2)), rng.choice((1, 3)))
        qe = ["table", "qe", "--d", str(d), "--m", rat_str(m), f"--lambda={rat_str(lam)}"]
        qe_bg = Background.quasi_einstein(d, m, lam)
        d, m = d_m()
        gl = ["table", "gl", "--d", str(d), "--m", rat_str(m)]
        gl_bg = Background.gover_leitner(d, m)
        return [(argv + ["--k", ks, "--format", "json"], bg) for argv, bg in ((qe, qe_bg), (gl, gl_bg))]

    def run(self, commands):
        return [run_cli(argv) for argv, _ in commands]

    def check(self, commands, outputs):
        import gjms

        failures = []
        for (argv, bg), (code, text) in zip(commands, outputs):
            cells = json.loads(text) if code == 0 else []
            if [cell["k"] for cell in cells] != list(self.ks):
                failures.append(f"{' '.join(argv)} exited {code} with cells {[c['k'] for c in cells]}")
            for cell in cells:
                k = cell["k"]
                where = f"{bg.label()} k={k}"
                if cell["all_agree"] is not True:
                    failures.append(f"routes disagree on {where}: {cell['errors']}")
                if cell["constant_check"] is not True:
                    failures.append(f"constant check is {cell['constant_check']} on {where}")
                if bg.lam is None:
                    closed = gjms.gl_product(bg.d, bg.m, k)
                else:
                    closed = gjms.qe_product(bg.d, bg.m, bg.lam, k)
                for name in ROUTES:
                    if cell["routes"].get(name) != closed.poly.to_strings():
                        failures.append(f"route {name} differs from the closed form on {where}")
        return self.checks_per_pass, failures


class Sl2Kernel:
    """Both commutator identities and ``extract_Zk`` for k = 1..6."""

    kmax = 6
    checks_per_pass = 3 * kmax
    # nc_digest of Z_1 .. Z_6 (Z_1 = 0 hashes the empty text).
    zk_sha256 = {
        1: "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        2: "fc5fa59e78f5a76ff07fa19e1c417ae81f0977803777f7846defd8132c39c15f",
        3: "4140b38650888ccc6324bd13fd23c6a05fba70eb07cd633f60a6baf2e5cf1b70",
        4: "cc68dc16af417e260eddf96080efd55150ada413bfc7326064b8ba8281502027",
        5: "d1e3f4d5b98579bb1f8a6095c45a8d042f38934df80c2b4489e76afba1f8b33a",
        6: "9039abb6792b66d66ac49293f6ef1e68c18b8198e2124e76b8f56c3b83c5f164",
    }

    def build(self, seed: int):
        return range(1, self.kmax + 1)

    def run(self, ks):
        import gjms

        witnesses = [
            (kind, k, gjms.verify_commutator_identity(kind, k)) for k in ks for kind in ("yk_x", "xk_y")
        ]
        return witnesses, {k: gjms.extract_Zk(k) for k in ks}

    def check(self, ks, outputs):
        witnesses, zks = outputs
        failures = []
        for kind, k, (holds, witness) in witnesses:
            if not holds or not witness.is_zero():
                failures.append(f"{kind} identity at k={k} leaves witness {witness}")
        for k, zk in zks.items():
            digest = nc_digest(zk)
            if digest != self.zk_sha256[k]:
                failures.append(f"Z_{k} normal form sha256 {digest}")
        return len(witnesses) + len(zks), failures


WORKLOADS = {
    "deep_routes": DeepRoutes(),
    "sl2_kernel": Sl2Kernel(),
}
