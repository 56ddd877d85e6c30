"""One benchmark sample: a fresh process that imports minorbit and verifies types.

    python3 perfbench/sample.py --spawned-at T --types A1,D4,E6 --max-degree 4 [--trace-out FILE]

T is the CLOCK_MONOTONIC reading of the parent just before it started
this process. Prints one JSON line: the set-up time (from T until
minorbit is imported and ``verify`` can be called), the wall and CPU time from the
first ``verify`` call to the last verdict, the peak RSS of the process,
and one entry per type holding either the report or the exception it
raised. With ``--types ''`` it only imports and reports the set-up time.
With ``--trace-out`` the per-layer tracer is installed after the import,
its spans are written to FILE and its metrics join the JSON line.
"""

from __future__ import annotations

import sys
import time

# Imported before anything else, so that set-up time holds every module
# a command-line user loads.
import minorbit
from minorbit import cli
from minorbit.rootsys import SimpleType

READY = time.clock_gettime(time.CLOCK_MONOTONIC)

import argparse  # noqa: E402
import inspect  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
from pathlib import Path  # noqa: E402

SRC = Path(__file__).resolve().parent.parent / "src"

REPORT_FIELDS = ("family", "rank", "ideal2_dim", "quotient_hilbert", "hikita_match", "oracle_match")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--types", required=True, help="comma-separated types such as A3,E6")
    parser.add_argument("--max-degree", type=int, default=4)
    parser.add_argument("--trace-out")
    args = parser.parse_args(argv)

    setup_s = READY - args.spawned_at
    if not Path(minorbit.__file__).resolve().is_relative_to(SRC):
        print(f"minorbit imported from {minorbit.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    types = [t for t in args.types.split(",") if t]
    # Full strength while verify still has a mode switch; the plain call once it is gone.
    kwargs = {"mode": "full"} if "mode" in inspect.signature(cli.verify).parameters else {}
    tracer = None
    if args.trace_out:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()

    verdicts = []
    wall0 = time.perf_counter()
    cpu0 = time.process_time()
    for name in types:
        try:
            r = cli.verify(SimpleType(name[0], int(name[1:])), args.max_degree, **kwargs)
            report = {k: getattr(r, k) for k in REPORT_FIELDS}
            report["passed"] = r.passed
            verdicts.append({"type": name, "report": report})
        except Exception as exc:  # a verdict that raised is a failed verdict, not a lost one
            verdicts.append({"type": name, "error": f"{type(exc).__name__}: {exc}"})
    wall_s = time.perf_counter() - wall0
    cpu_s = time.process_time() - cpu0

    out = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "verdicts": verdicts,
    }
    if tracer is not None:
        tracer.write(args.trace_out)
        out["layers"] = tracer.layer_metrics()
        out["calls"] = tracer.counts()
        out["verify_s"] = tracer.verify_times()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
