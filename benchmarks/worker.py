"""One benchmark pass in a fresh interpreter; prints one JSON line.

Started by ``run.py``, one worker at a time.  The worker imports ``gjms`` from
the checkout's ``src/`` and refuses to run if the import resolves anywhere
else.  It times set-up (import plus inputs) and the pass separately, and
reports its own peak resident set size.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--warmup", action="store_true", help="import gjms and exit")
    parser.add_argument("--trace-file", help="trace the pass and append its spans here")
    parser.add_argument("--pass-id", type=int, default=0)
    args = parser.parse_args(argv)

    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]

    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import gjms
    import gjms.cli

    if Path(gjms.__file__).resolve().parent != SRC / "gjms":
        sys.stderr.write(f"gjms was imported from {gjms.__file__}, not from {SRC}\n")
        return 2
    if args.warmup:
        print(json.dumps({}))
        return 0
    inputs = workload.build(args.seed)
    setup_s = time.perf_counter() - t0

    tracer = None
    if args.trace_file:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    t1 = time.perf_counter()
    try:
        outputs = workload.run(inputs)
        attempted, failures = workload.check(inputs, outputs)
    except Exception as exc:  # a raised exception fails the whole pass
        attempted = workload.checks_per_pass
        failures = [f"raised {type(exc).__name__}: {exc}"] * attempted
    wall_s = time.perf_counter() - t1

    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:5],
    }
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = tracer.summarize(wall_s)
        tracer.write(args.trace_file, args.pass_id)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
