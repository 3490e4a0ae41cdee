"""In-memory span tracer for the layers of ``gjms``, installed from outside.

The tracer wraps the public functions of each layer at run time and changes no
file of the package.  A wrapped function is rebound in *every* namespace that
holds it: the module that defines it, each ``gjms`` module that imported it by
name, and each class attribute that aliases it (``TruncatedSeries.__rmul__`` is
the same function object as ``__mul__``).  A name bound only once would leave
the other call sites untraced and the layer would read low.

Most targets record a span (name, start, end, parent).  The two ``SigmaPoly``
operators run over 10^5 times a pass, so they are counted, not spanned.
"""

from __future__ import annotations

import json
import math
import sys
from collections import Counter, defaultdict
from time import perf_counter

# Layers in the order the per-layer report lists them; a span's layer is the
# part of its name before the first dot.
LAYERS = ("cli", "factorization", "ambient", "scattering", "backgrounds", "series", "sl2")


def _bits(coeffs) -> int:
    """Largest numerator or denominator bit length among rationals."""
    return max((max(abs(c.numerator).bit_length(), c.denominator.bit_length()) for c in coeffs), default=0)


# Attribute extractors: (args, result) -> extra fields stored on the span.
def _route(args, out):
    return {"k": args[1], "bits": _bits(out.poly.coeffs)}


def _solve(args, out):
    return {"k": args[1], "bits": _bits(out.log_coeff.coeffs)}


def _closed_form(args, out):
    return {"bits": _bits(out.poly.coeffs)}


def _accessor(name):
    def extract(args, out):
        return {"key": (name,) + tuple(args)}

    return extract


def _normal_form(args, out):
    return {"terms": len(out.terms), "bits": _bits(out.terms.values())}


def _extract_zk(args, out):
    return {"k": args[0], "bits": _bits(out.terms.values())}


def _targets():
    """Spanned targets as (span name, owner, attribute, extractor) and counted
    targets as (counter name, owner, attribute)."""
    from gjms import ambient, backgrounds, cli, core, factorization, scattering, series, sl2

    bg = backgrounds.Background
    return [
        ("cli.main", cli, "main", None),
        ("factorization.cross_route_report", factorization, "cross_route_report", None),
        ("factorization.closed_form", factorization, "factorization_product", _closed_form),
        ("factorization.closed_form", factorization, "qe_product", _closed_form),
        ("factorization.closed_form", factorization, "gl_product", _closed_form),
        ("ambient.ambient_laplacian", ambient, "ambient_laplacian", None),
        ("ambient.gjms_iterated", ambient, "gjms_iterated", _route),
        ("ambient.gjms_recursion", ambient, "gjms_recursion", _route),
        ("ambient.obstruction", ambient, "obstruction", _route),
        ("scattering.ds_plain", scattering, "_ds_plain", None),
        ("scattering.scattering_solve", scattering, "scattering_solve", _solve),
        ("scattering.gjms_route_scattering", scattering, "gjms_route_scattering", _route),
        ("scattering.greens_log_coefficient", scattering, "greens_log_coefficient", None),
        ("backgrounds.accessor", bg, "metric_trace", _accessor("metric_trace")),
        ("backgrounds.accessor", bg, "measure_trace", _accessor("measure_trace")),
        ("backgrounds.accessor", bg, "trace_term", _accessor("trace_term")),
        ("backgrounds.accessor", bg, "laplacian_factor", _accessor("laplacian_factor")),
        ("backgrounds.accessor", bg, "density_factor", _accessor("density_factor")),
        ("series.mul", series.TruncatedSeries, "__mul__", None),
        ("series.rpow", series.TruncatedSeries, "rpow", None),
        ("series.reciprocal", series.TruncatedSeries, "reciprocal", None),
        ("sl2.normal_form", sl2.NcPoly, "normal_form", _normal_form),
        ("sl2.extract_Zk", sl2, "extract_Zk", _extract_zk),
        ("sl2.verify_commutator_identity", sl2, "verify_commutator_identity", None),
    ], [
        ("core.poly_mul", core.SigmaPoly, "__mul__"),
        ("core.poly_add", core.SigmaPoly, "__add__"),
    ]


def _namespaces():
    """Every namespace that can bind a gjms function: the package's modules and
    the classes they define."""
    spaces = {}
    for name, mod in list(sys.modules.items()):
        if name != "gjms" and not name.startswith("gjms."):
            continue
        spaces[id(mod)] = mod
        for value in vars(mod).values():
            if isinstance(value, type) and value.__module__.startswith("gjms"):
                spaces[id(value)] = value
    return list(spaces.values())


class Tracer:
    """Spans and counters for one pass, kept in memory until the pass ends."""

    def __init__(self):
        # [name, start, end, parent index or -1, extra dict or None]
        self.spans: list[list] = []
        self.counts: Counter[str] = Counter()
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- wrappers ------------------------------------------------------------

    def _span(self, name, fn, extract):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if extract is not None:
                rec[4] = extract(args, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def _counter(self, name, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def _rebind(self, original, wrapper, spaces) -> None:
        for space in spaces:
            for attr, value in list(vars(space).items()):
                if value is original:
                    self._restore.append((space, attr, original))
                    setattr(space, attr, wrapper)

    def install(self) -> None:
        """Wrap every target in every namespace that binds it."""
        spans, counters = _targets()
        spaces = _namespaces()
        for name, owner, attr, extract in spans:
            original = vars(owner)[attr]
            self._rebind(original, self._span(name, original, extract), spaces)
        for name, owner, attr in counters:
            original = vars(owner)[attr]
            self._rebind(original, self._counter(name, original), spaces)

    def uninstall(self) -> None:
        for space, attr, original in reversed(self._restore):
            setattr(space, attr, original)
        self._restore.clear()

    # -- output ----------------------------------------------------------------

    def write(self, path, pass_id: int) -> None:
        """Append this pass's spans and counts to a JSON-lines file."""
        with open(path, "a", encoding="utf-8") as fh:
            for name, start, end, parent, extra in self.spans:
                fh.write(json.dumps([pass_id, name, start, end, parent, extra], default=repr) + "\n")
            fh.write(json.dumps([pass_id, "counts", dict(self.counts)]) + "\n")

    def summarize(self, wall_s: float) -> dict[str, float]:
        """Per-layer metrics of this pass.  Self time is a span's duration minus
        the time its child spans cover."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls: Counter[str] = Counter()
        incl: defaultdict[str, float] = defaultdict(float)
        self_s: defaultdict[str, float] = defaultdict(float)
        by_k: defaultdict[str, defaultdict[int, float]] = defaultdict(lambda: defaultdict(float))
        keys = set()
        terms = 0
        bits = 0
        for i, (name, start, end, parent, extra) in enumerate(self.spans):
            dur = end - start
            calls[name] += 1
            incl[name] += dur
            self_s[name] += dur - child[i]
            if extra:
                if "k" in extra:
                    by_k[name][extra["k"]] += dur
                if "key" in extra:
                    keys.add(extra["key"])
                terms += extra.get("terms", 0)
                bits = max(bits, extra.get("bits", 0))

        acc_calls = calls["backgrounds.accessor"]
        m = {
            "cli.main.self_s": self_s["cli.main"],
            "factorization.cross_route_report.calls": calls["factorization.cross_route_report"],
            "factorization.closed_form.self_s": self_s["factorization.closed_form"],
            "ambient.ambient_laplacian.calls": calls["ambient.ambient_laplacian"],
            "ambient.ambient_laplacian.self_s": self_s["ambient.ambient_laplacian"],
            "ambient.gjms_iterated.s": incl["ambient.gjms_iterated"],
            "ambient.gjms_recursion.s": incl["ambient.gjms_recursion"],
            "ambient.obstruction.s": incl["ambient.obstruction"],
            "ambient.gjms_iterated.k_exp": k_exponent(by_k["ambient.gjms_iterated"]),
            "ambient.gjms_recursion.k_exp": k_exponent(by_k["ambient.gjms_recursion"]),
            "ambient.obstruction.k_exp": k_exponent(by_k["ambient.obstruction"]),
            "scattering.ds_plain.calls": calls["scattering.ds_plain"],
            "scattering.ds_plain.self_s": self_s["scattering.ds_plain"],
            "scattering.scattering_solve.s": incl["scattering.scattering_solve"],
            "scattering.scattering_solve.k_exp": k_exponent(by_k["scattering.scattering_solve"]),
            "scattering.greens_log_coefficient.s": incl["scattering.greens_log_coefficient"],
            "backgrounds.accessor.calls": acc_calls,
            "backgrounds.accessor.self_s": self_s["backgrounds.accessor"],
            "backgrounds.accessor.distinct_ratio": len(keys) / acc_calls if acc_calls else 0.0,
            "series.mul.calls": calls["series.mul"],
            "series.mul.self_s": self_s["series.mul"],
            "series.rpow.calls": calls["series.rpow"],
            "series.rpow.self_s": self_s["series.rpow"],
            "series.reciprocal.calls": calls["series.reciprocal"],
            "core.poly_mul.calls": self.counts["core.poly_mul"],
            "core.poly_add.calls": self.counts["core.poly_add"],
            "core.coeff_bits_max": bits,
            "sl2.normal_form.calls": calls["sl2.normal_form"],
            "sl2.normal_form.self_s": self_s["sl2.normal_form"],
            "sl2.normal_form.terms_out": terms,
            "sl2.extract_Zk.s": incl["sl2.extract_Zk"],
            "sl2.extract_Zk.growth": top_growth(by_k["sl2.extract_Zk"]),
        }
        for layer in LAYERS:
            share = sum(t for name, t in self_s.items() if name.split(".", 1)[0] == layer)
            m[f"{layer}.self_share"] = share / wall_s if wall_s > 0 else 0.0
        return m


def k_exponent(times_by_k: dict[int, float]) -> float:
    """Least-squares slope of log(time) against log(k) over the k >= 2 present;
    0 when fewer than two such k were run."""
    pts = [(math.log(k), math.log(t)) for k, t in times_by_k.items() if k >= 2 and t > 0]
    if len(pts) < 2:
        return 0.0
    mx = sum(x for x, _ in pts) / len(pts)
    my = sum(y for _, y in pts) / len(pts)
    sxx = sum((x - mx) ** 2 for x, _ in pts)
    return sum((x - mx) * (y - my) for x, y in pts) / sxx


def top_growth(times_by_k: dict[int, float]) -> float:
    """t(kmax) / t(kmax - 1) for the largest k run; 0 when either is missing."""
    if not times_by_k:
        return 0.0
    top = max(times_by_k)
    prev = times_by_k.get(top - 1, 0.0)
    return times_by_k[top] / prev if prev > 0 else 0.0
