"""Benchmark runner: closed loop, one client, one fresh worker per pass.

    python3 benchmarks/run.py --workload deep_routes --seed 1 --seconds 60 --trace 0

Passes run one after another for ``--seconds``; each starts a new interpreter
(``worker.py``), so cold start is paid every time and no module-level cache
carries over from one pass to the next.  An untimed warm-up worker first
imports ``gjms`` so that byte-code compilation is not counted.

With ``--trace 0`` the report gives the end-to-end metrics: medians of the
passes' wall time, set-up time and peak RSS, and the failed-check ratio.  With
``--trace 1`` untraced and traced passes alternate; the report gives the
per-layer metrics (medians over the traced passes) and ``trace.overhead_s``,
and the spans are written to ``.bench_out/trace-<workload>.jsonl``.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is 0 only if every check passed.
``--workload all`` runs every workload; its metrics are then named
``<workload>.<metric>``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
OUT = ROOT / ".bench_out"
PASS_TIMEOUT_S = 150

sys.path.insert(0, str(HERE))
from workloads import WORKLOADS  # noqa: E402

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))


def _units(name: str) -> str:
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith(".k_exp"):
        return "exponent"
    if name.endswith("_ratio") or name.endswith(".growth") or name.endswith("_share"):
        return "ratio"
    if name.endswith("bits_max"):
        return "bits"
    return "count"


def _worker_env() -> dict[str, str]:
    """The caller's environment without GJMS_ORDER (it changes the iterated
    route's work) and without Python path settings (the worker imports gjms
    from the checkout)."""
    env = {
        k: v
        for k, v in os.environ.items()
        if k != "GJMS_ORDER" and k not in ("PYTHONPATH", "PYTHONHOME", "PYTHONSTARTUP")
    }
    env["PYTHONHASHSEED"] = "0"
    return env


def _run_worker(args: list[str]) -> dict:
    """Run one worker to completion; a crash or timeout is a failed pass."""
    try:
        proc = subprocess.run(
            [sys.executable, "-s", str(WORKER), *args],
            cwd=ROOT,
            env=_worker_env(),
            capture_output=True,
            text=True,
            timeout=PASS_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return {"error": f"worker timed out after {PASS_TIMEOUT_S} s"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"worker exited {proc.returncode}: {proc.stderr.strip()[-500:]}"}
    return json.loads(lines[-1])


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload = WORKLOADS[name]
    warm = _run_worker(["--workload", name, "--warmup"])
    if "error" in warm:
        raise RuntimeError(warm["error"])
    trace_file = OUT / f"trace-{name}.jsonl"
    if trace:
        OUT.mkdir(exist_ok=True)
        trace_file.write_text("")
    plain, traced = [], []
    attempted = failed = 0
    start = time.monotonic()
    pass_id = 0
    durations: list[float] = []  # whole worker lifetimes, to stop on time
    while pass_id < (2 if trace else 1) or (
        time.monotonic() - start + statistics.median(durations) <= seconds
    ):
        args = ["--workload", name, "--seed", str(seed), "--pass-id", str(pass_id)]
        is_traced = trace and pass_id % 2 == 1
        if is_traced:
            args += ["--trace-file", str(trace_file)]
        t = time.monotonic()
        res = _run_worker(args)
        durations.append(time.monotonic() - t)
        pass_id += 1
        if "error" in res:
            sys.stderr.write(f"{name} pass {pass_id}: {res['error']}\n")
            attempted += workload.checks_per_pass
            failed += workload.checks_per_pass
            continue
        attempted += res["attempted"]
        failed += res["failed"]
        for msg in res["failures"]:
            sys.stderr.write(f"{name} pass {pass_id}: FAIL {msg}\n")
        (traced if is_traced else plain).append(res)

    out = {"name": name, "seed": seed, "attempted": attempted, "failed": failed, "passes": len(plain)}
    if plain:
        for metric, _ in END_TO_END:
            out[metric] = statistics.median(p[metric] for p in plain)
    if traced:
        out["traced_passes"] = len(traced)
        layers = {key: statistics.median(p["layers"][key] for p in traced) for key in traced[0]["layers"]}
        if plain:
            layers["trace.overhead_s"] = statistics.median(p["wall_s"] for p in traced) - out["wall_s"]
        out["layers"] = layers
    return out


def report(res: dict, trace: bool) -> dict[str, dict]:
    """Print one workload's metrics by name with units; return the JSON metrics."""
    name, attempted, failed = res["name"], res["attempted"], res["failed"]
    print(f"{name}  seed={res['seed']}  untraced passes={res['passes']}", end="")
    print(f"  traced passes={res.get('traced_passes', 0)}" if trace else "")
    n = res["passes"]
    for metric, unit in END_TO_END:
        if metric in res:
            print(f"  {metric:<40} {res[metric]:>14.6f} {unit:<8} median of {n} passes")
    ratio = failed / attempted if attempted else 1.0
    print(f"  {'failed_ratio':<40} {ratio:>14.6f} {'ratio':<8} {failed} failed of {attempted} checks")
    if trace:
        for metric, value in res.get("layers", {}).items():
            print(f"  {metric:<40} {value:>14.6f} {_units(metric)}")
        return {m: {"value": v, "unit": _units(m)} for m, v in res.get("layers", {}).items()}
    return {m: {"value": res[m], "unit": unit} for m, unit in END_TO_END if m in res}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=60)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "gjms" / "__init__.py").is_file():
        sys.stderr.write(f"error: no gjms sources under {ROOT / 'src'}; run from a full checkout\n")
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    print(f"python {platform.python_version()} on {platform.machine()}, {os.cpu_count()} CPUs")
    metrics: dict[str, dict] = {}
    attempted = failed = 0
    for name in names:
        res = run_workload(name, args.seed, args.seconds, bool(args.trace))
        attempted += res["attempted"]
        failed += res["failed"]
        for metric, value in report(res, bool(args.trace)).items():
            metrics[metric if len(names) == 1 else f"{name}.{metric}"] = value
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
