"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py --workload e8-full --seeds 1-10 --seconds 25 [--record FILE]

Runs ``run.py`` once per seed, one run after another, and prints for
each end-to-end metric the ten values, their median and the distance
between the first and third quartiles as a share of the median. With
``--record`` the values, spreads and the machine context are merged
into FILE under the workload's name.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent

from run import git_hash  # noqa: E402


def seed_range(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, type=seed_range, help="inclusive range such as 1-10")
    parser.add_argument("--seconds", required=True)
    parser.add_argument("--record")
    args = parser.parse_args(argv)

    runs = []
    for seed in args.seeds:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", args.seconds, "--trace", "0"]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=HERE.parent)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if proc.returncode != 0 or not result["correct"]:
            print(proc.stdout + proc.stderr, file=sys.stderr)
            return 1
        samples = [line for line in proc.stdout.splitlines() if line.startswith("sample ")]
        runs.append({"seed": seed, "samples": samples,
                     "metrics": {k: m["value"] for k, m in result["metrics"].items()}})
        print(f"seed {seed}: " + " ".join(f"{k}={v:.4f}" for k, v in runs[-1]["metrics"].items()), flush=True)

    spreads = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name] for r in runs]
        q1, median, q3 = statistics.quantiles(values, n=4)
        spreads[name] = {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}
        print(f"{name:12s} median={median:.4f} q1={q1:.4f} q3={q3:.4f} spread={spreads[name]['spread']:.4f}")

    if args.record:
        path = Path(args.record)
        record = json.loads(path.read_text()) if path.exists() else {}
        record[args.workload] = {
            "git": git_hash(),
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "seconds": float(args.seconds),
            "spreads": spreads,
            "runs": runs,
        }
        path.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
