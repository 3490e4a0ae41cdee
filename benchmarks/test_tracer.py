"""Fidelity checks for the benchmark's tracer, workload gates and runner.

    python3 -m unittest discover -s benchmarks      (or: python3 -m pytest benchmarks)

A wrap that misses one binding of a function leaves that call site untraced
and its layer reading low, so these tests assert that every binding is
wrapped, that known call counts appear, and that tracing changes no output.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import unittest
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import gjms  # noqa: E402
from gjms import cli, factorization, scattering  # noqa: E402
from gjms.series import RHO, TruncatedSeries  # noqa: E402

import run  # noqa: E402
import tracer as tr  # noqa: E402
import workloads  # noqa: E402


def traced(fn):
    """Run fn under a fresh tracer; return (result, tracer, per-layer metrics)."""
    t = tr.Tracer()
    t.install()
    try:
        out = fn()
    finally:
        t.uninstall()
    wall = sum(end - start for _, start, end, parent, _ in t.spans if parent < 0)
    return out, t, t.summarize(wall)


class BindingTest(unittest.TestCase):
    def test_every_binding_is_wrapped_and_restored(self):
        spans, counters = tr._targets()
        originals = [vars(owner)[attr] for _, owner, attr, *_ in spans + counters]
        t = tr.Tracer()
        t.install()
        try:
            for space in tr._namespaces():
                for attr, value in vars(space).items():
                    self.assertFalse(
                        any(value is o for o in originals), f"{space.__name__}.{attr} left unwrapped"
                    )
            # names imported into other modules, a module global, and a class alias
            for space in (gjms, factorization, cli):
                self.assertTrue(hasattr(space.gjms_iterated, "__wrapped__"))
            self.assertTrue(hasattr(scattering._ds_plain, "__wrapped__"))
            self.assertIs(TruncatedSeries.__rmul__, TruncatedSeries.__mul__)
            self.assertTrue(hasattr(TruncatedSeries.__rmul__, "__wrapped__"))
        finally:
            t.uninstall()
        for space in (gjms, factorization, cli):
            self.assertFalse(hasattr(space.gjms_iterated, "__wrapped__"))
        self.assertFalse(hasattr(TruncatedSeries.__rmul__, "__wrapped__"))


class CallCountTest(unittest.TestCase):
    def test_cross_route_report_counts(self):
        k = 3
        bg = gjms.Background.quasi_einstein(3, Fraction(1, 2), 1)
        report, t, m = traced(lambda: gjms.cross_route_report(bg, k))
        self.assertTrue(report.all_agree())
        calls = {name: sum(1 for s in t.spans if s[0] == name) for name, *_ in tr._targets()[0]}
        self.assertEqual(calls["factorization.cross_route_report"], 1)
        self.assertEqual(calls["factorization.closed_form"], 2)  # factorization_product -> qe_product
        for name in ("ambient.gjms_iterated", "ambient.gjms_recursion", "ambient.obstruction"):
            self.assertEqual(calls[name], 1, name)
        self.assertEqual(calls["scattering.scattering_solve"], 1)
        # k iterated applications, k-1 extension levels and one obstruction read-off
        self.assertEqual(m["ambient.ambient_laplacian.calls"], 2 * k)
        self.assertEqual(m["scattering.ds_plain.calls"], 2 * k)
        for name in (
            "backgrounds.accessor.calls",
            "series.mul.calls",
            "series.rpow.calls",
            "series.reciprocal.calls",
            "core.poly_mul.calls",
            "core.poly_add.calls",
            "core.coeff_bits_max",
        ):
            self.assertGreater(m[name], 0, name)
        self.assertEqual(m["sl2.normal_form.calls"], 0)
        self.assertGreater(m["ambient.gjms_iterated.s"], 0)

    def test_reflected_series_product_is_counted(self):
        s = TruncatedSeries.variable(RHO, 3)
        _, _, m = traced(lambda: (2 * s, Fraction(1, 2) * s, s * s))
        self.assertEqual(m["series.mul.calls"], 3)

    def test_cli_bindings_are_traced(self):
        with contextlib.redirect_stdout(io.StringIO()):
            code, t, m = traced(lambda: cli.main(["verify", "green", "--kmax", "1"]))
        self.assertEqual(code, 0)
        self.assertGreater(m["cli.main.self_s"], 0)
        self.assertGreater(m["scattering.scattering_solve.s"], 0)
        names = [s[0] for s in t.spans]
        self.assertEqual(names.count("cli.main"), 1)
        self.assertEqual(names.count("scattering.greens_log_coefficient"), len(cli.GREEN_MATRIX))

    def test_sl2_counts(self):
        _, _, m = traced(lambda: (gjms.verify_commutator_identity("yk_x", 2), gjms.extract_Zk(3)))
        self.assertEqual(m["sl2.normal_form.calls"], 3)  # one per identity, two per Z_k
        self.assertEqual(m["sl2.normal_form.terms_out"], len(gjms.extract_Zk(3).terms))
        self.assertGreater(m["sl2.extract_Zk.s"], 0)
        self.assertEqual(m["series.mul.calls"], 0)


class SelfTimeTest(unittest.TestCase):
    def test_self_times_partition_the_traced_time(self):
        bg = gjms.Background.gover_leitner(3, Fraction(1, 2))
        _, t, m = traced(lambda: gjms.cross_route_report(bg, 3))
        child = [0.0] * len(t.spans)
        for _, start, end, parent, _ in t.spans:
            if parent >= 0:
                child[parent] += end - start
        selfs = [end - start - child[i] for i, (_, start, end, _, _) in enumerate(t.spans)]
        self.assertGreaterEqual(min(selfs), -1e-9)
        shares = sum(m[f"{layer}.self_share"] for layer in tr.LAYERS)
        self.assertAlmostEqual(shares, 1.0, places=6)


class TracedOutputTest(unittest.TestCase):
    """Tracing must not change any output, and the gate must accept it."""

    def assert_same(self, workload, inputs, normalize):
        plain = workload.run(inputs)
        out, _, _ = traced(lambda: workload.run(inputs))
        self.assertEqual(normalize(plain), normalize(out))
        attempted, failures = workload.check(inputs, out)
        self.assertEqual(failures, [])
        self.assertGreater(attempted, 0)

    def test_deep_routes(self):
        w = workloads.DeepRoutes()
        w.ks = (2, 3)
        self.assert_same(w, w.build(7), lambda out: out)

    def test_sl2_kernel(self):
        w = workloads.Sl2Kernel()
        w.kmax = 4

        def normalize(out):
            witnesses, zks = out
            return [(kind, k, ok, wit.terms) for kind, k, (ok, wit) in witnesses], {
                k: z.terms for k, z in zks.items()
            }

        self.assert_same(w, w.build(0), normalize)


class GateTest(unittest.TestCase):
    def test_gates_reject_wrong_output(self):
        dr = workloads.DeepRoutes()
        dr.ks = (2,)
        commands = dr.build(3)
        outputs = dr.run(commands)
        self.assertEqual(dr.check(commands, outputs), (dr.checks_per_pass, []))
        (code, text), rest = outputs[0], outputs[1:]
        cells = json.loads(text)
        cells[0]["routes"]["scattering"][0] += "1"
        attempted, failures = dr.check(commands, [(code, json.dumps(cells)), *rest])
        self.assertEqual(attempted, 2 * (1 + 7))
        self.assertEqual(len(failures), 1)  # only the route-vs-closed-form check sees it
        self.assertEqual(len(dr.check(commands, [(2, ""), *rest])[1]), 1)

        sk = workloads.Sl2Kernel()
        sk.kmax = 3
        witnesses, zks = sk.run(sk.build(0))
        zks[3] = zks[3] + gjms.NcPoly.x()
        self.assertEqual(len(sk.check(None, (witnesses, zks))[1]), 1)

    def test_deep_routes_inputs_follow_the_seed(self):
        dr = workloads.DeepRoutes()
        self.assertEqual(dr.build(5), dr.build(5))
        draws = {tuple(bg for _, bg in dr.build(seed)) for seed in range(20)}
        self.assertGreater(len(draws), 1)
        for seed in range(20):
            for _, bg in dr.build(seed):
                self.assertNotEqual(bg.dm.denominator, 1)


class ScalingTest(unittest.TestCase):
    def test_k_exponent_and_growth(self):
        self.assertAlmostEqual(tr.k_exponent({k: 0.5 * k**3 for k in (1, 4, 8, 12)}), 3.0)
        self.assertEqual(tr.k_exponent({1: 1.0, 4: 2.0}), 0.0)
        self.assertAlmostEqual(tr.top_growth({4: 1.0, 5: 2.0, 6: 30.0}), 15.0)
        self.assertEqual(tr.top_growth({3: 1.0}), 0.0)


class DeclarationTest(unittest.TestCase):
    def test_metrics_match_benchmark_json(self):
        decl = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        self.assertEqual([m["name"] for m in decl["workloads"]], list(workloads.WORKLOADS))
        self.assertEqual([(m["name"], m["unit"]) for m in decl["end_to_end"]], list(run.END_TO_END))
        _, _, layers = traced(lambda: gjms.extract_Zk(2))
        names = [*layers, "trace.overhead_s"]
        self.assertEqual([m["name"] for m in decl["per_layer"]], names)
        self.assertEqual([m["unit"] for m in decl["per_layer"]], [run._units(n) for n in names])


class WorkerEnvTest(unittest.TestCase):
    def test_worker_env_drops_order_knob_and_python_path(self):
        saved = {k: os.environ.get(k) for k in ("GJMS_ORDER", "PYTHONPATH")}
        os.environ["GJMS_ORDER"] = "40"
        os.environ["PYTHONPATH"] = "/nonexistent"
        try:
            env = run._worker_env()
        finally:
            for k, v in saved.items():
                if v is None:
                    os.environ.pop(k, None)
                else:
                    os.environ[k] = v
        self.assertNotIn("GJMS_ORDER", env)
        self.assertNotIn("PYTHONPATH", env)


if __name__ == "__main__":
    unittest.main()
