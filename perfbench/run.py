"""Benchmark: time to a full-strength hikita-verify verdict.

    python3 perfbench/run.py --workload full-all7 --seed 1 --seconds 20 --trace 0

A run measures one workload as sequential samples. Every sample is a
fresh Python process (``sample.py``) that imports minorbit and calls
``minorbit.cli.verify`` at full strength for each type of the workload,
in an order the seed permutes. Samples never overlap: the load is one
process with one thread. A run takes as many samples as fit in
``--seconds``, and never fewer than two. Import-only processes before
each sample add to the set-up samples.

Every verdict is checked against a hand-written table of known answers,
not against the program's own Weyl-formula code. A failed check or a
raised exception makes the run print ``"correct": false`` and exit 1.

With ``--trace 0`` the last line of stdout carries the end-to-end
metrics, each the median over the run's samples. With ``--trace 1``
each sample is run twice, untraced and then under the per-layer tracer
(``tracing.py``); the last line carries the per-layer metrics and the
tracing overhead, and the run fails if a traced function the workload
must reach was never called.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import missing_calls

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"


def ade(max_rank: int) -> list:
    """Every ADE type up to max_rank, as A1..A_r, D4..D_r, E6..E_r."""
    types = [f"A{r}" for r in range(1, max_rank + 1)]
    types += [f"D{r}" for r in range(4, max_rank + 1)]
    types += [f"E{r}" for r in (6, 7, 8) if r <= max_rank]
    return types


# name -> (types, max_degree). See README.md for why each exists.
WORKLOADS = {
    "full-all7": (ade(7), 4),
    "deep-all6": (ade(6), 8),
    "e8-full": (["E8"], 4),
}

# dim Sym^2 g - dim V(2 theta), written out by hand. For A_n it is
# (n(n+1)/2)^2; 3876 = 30876 - 27000 on E8.
KNOWN_IDEAL2 = {"D4": 106, "D5": 265, "D6": 573, "D7": 1106, "E6": 651, "E7": 1540, "E8": 3876}

MIN_SAMPLES = 2
# Import-only processes started before each round of samples.
SETUP_PROBES = 5
# A run starts no sample it expects to end after this many seconds.
RUN_LIMIT_S = 160.0

END_TO_END = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MiB"}

# The command that starts one sample process; tests replace it.
ENTRY = [str(HERE / "sample.py")]


def expected_ideal2(name: str) -> int:
    n = int(name[1:])
    if name[0] == "A":
        return (n * (n + 1) // 2) ** 2
    return KNOWN_IDEAL2[name]


def check_verdict(name: str, max_degree: int, verdict) -> list:
    """Every way a verdict differs from the known answer; empty when it is right."""
    if verdict is None:
        return ["no verdict"]
    if "error" in verdict:
        return [verdict["error"]]
    r = verdict["report"]
    n = int(name[1:])
    problems = []
    if f"{r['family']}{r['rank']}" != name:
        problems.append(f"report is for {r['family']}{r['rank']}")
    if r["passed"] is not True:
        problems.append("verdict is not PASS")
    want = [1, n] + [0] * (max_degree - 1)
    if r["quotient_hilbert"] != want:
        problems.append(f"quotient_hilbert {r['quotient_hilbert']}, expected {want}")
    if r["ideal2_dim"] != expected_ideal2(name):
        problems.append(f"ideal2_dim {r['ideal2_dim']}, expected {expected_ideal2(name)}")
    return problems


def run_sample(types: list, max_degree: int, timeout: float, trace_out=None) -> dict:
    """Run one sample process and check its verdicts.

    The result holds the child's measurements (absent if the process
    failed) and ``failures``, mapping each failed type to its problems.
    """
    args = ["--types", ",".join(types), "--max-degree", str(max_degree)]
    if trace_out is not None:
        args += ["--trace-out", str(trace_out)]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    # Import from cached bytecode, as an installed package does.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    started = time.perf_counter()
    spawned = time.clock_gettime(time.CLOCK_MONOTONIC)
    try:
        proc = subprocess.run(
            [sys.executable, *ENTRY, "--spawned-at", repr(spawned), *args],
            capture_output=True, text=True, env=env, cwd=ROOT, timeout=max(timeout, 1.0),
        )
        stdout, why = proc.stdout, f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}"
        ok = proc.returncode == 0
    except subprocess.TimeoutExpired:
        stdout, why, ok = "", f"timed out after {timeout:.0f} s", False
    result = {}
    if ok:
        try:
            result = json.loads(stdout.strip().splitlines()[-1])
        except (IndexError, ValueError):
            ok, why = False, "no result line"
    result["process_s"] = time.perf_counter() - started
    if not ok:
        result = {"process_s": result["process_s"], "error": f"sample process failed ({why})"}
    by_type = {v["type"]: v for v in result.get("verdicts", [])}
    result["failures"] = {}
    for name in types:
        verdict = by_type.get(name)
        if not ok:
            verdict = {"type": name, "error": result["error"]}
        problems = check_verdict(name, max_degree, verdict)
        if problems:
            result["failures"][name] = problems
    return result


def git_hash() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def median_metrics(rows: list) -> dict:
    return {k: statistics.median(r[k] for r in rows) for k in rows[0]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    types, max_degree = WORKLOADS[args.workload]
    rng = random.Random(args.seed)
    start = time.perf_counter()
    limit = start + RUN_LIMIT_S
    print(
        f"workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace} "
        f"python={platform.python_version()} nproc={os.cpu_count()} git={git_hash()}"
    )

    # The first process fills the bytecode cache and shows that minorbit imports.
    warm = run_sample([], max_degree, RUN_LIMIT_S)
    if "error" in warm:
        print(f"cannot start a sample: {warm['error']}", file=sys.stderr)
        return 1

    if args.trace:
        BUILD.joinpath("traces").mkdir(parents=True, exist_ok=True)
    untraced, traced, setups = [], [], []
    t0 = time.perf_counter()
    while True:
        order = rng.sample(types, len(types))
        probes = [run_sample([], max_degree, RUN_LIMIT_S) for _ in range(SETUP_PROBES)]
        setups += [p["setup_s"] for p in probes if "error" not in p]
        samples = [run_sample(order, max_degree, limit - time.perf_counter())]
        if args.trace:
            spans = BUILD / "traces" / f"{args.workload}-seed{args.seed}-{len(traced)}.jsonl"
            samples.append(run_sample(order, max_degree, limit - time.perf_counter(), spans))
        untraced.append(samples[0])
        if args.trace:
            traced.append(samples[1])
        for label, s in zip(("sample", "traced"), samples):
            n = len(untraced)
            if "error" in s:
                print(f"{label} {n}: {s['error']}")
            else:
                print(
                    f"{label} {n}: order={','.join(order)} setup_s={s['setup_s']:.4f} "
                    f"wall_s={s['wall_s']:.4f} cpu_s={s['cpu_s']:.4f} peak_rss_mb={s['peak_rss_mb']:.1f}"
                )
        # Start another round only if it should end within --seconds.
        now = time.perf_counter()
        next_end = now + sum(s["process_s"] for s in samples)
        if any(s["failures"] for s in samples) or next_end > limit:
            break
        if len(untraced) >= (1 if args.trace else MIN_SAMPLES) and next_end > t0 + args.seconds:
            break

    done = untraced + traced
    attempted = len(types) * len(done)
    failed = sum(len(s["failures"]) for s in done)
    for i, s in enumerate(done):
        for name, problems in s["failures"].items():
            print(f"FAIL {name} (sample {i + 1}): {'; '.join(problems)}")

    timed = [s for s in untraced if "error" not in s]
    metrics = {}
    if timed:
        e2e = median_metrics([{k: s[k] for k in END_TO_END} for s in timed])
        e2e["setup_s"] = statistics.median(setups + [s["setup_s"] for s in timed])
        print(f"setup_s      {e2e['setup_s']:.4f} s   (median of {len(setups) + len(timed)} processes)")
        print(f"wall_s       {e2e['wall_s']:.4f} s   (median of {len(timed)} samples)")
        print(f"cpu_s        {e2e['cpu_s']:.4f} s")
        print(f"peak_rss_mb  {e2e['peak_rss_mb']:.1f} MiB")
    print(f"fail_ratio   {failed / attempted:.4f}   ({failed} of {attempted} verdicts)")

    if args.trace:
        layered = [s for s in traced if "error" not in s]
        if layered and timed:
            calls: dict = {}
            for s in layered:
                for name, count in s["calls"].items():
                    calls[name] = calls.get(name, 0) + count
            missing = missing_calls(calls, types)
            if missing:
                print(f"trace coverage: never called on {args.workload}: {', '.join(missing)}", file=sys.stderr)
                return 1
            layers = median_metrics([s["layers"] for s in layered])
            layers["trace.overhead_s"] = statistics.median(s["wall_s"] for s in layered) - e2e["wall_s"]
            for name, value in layers.items():
                print(f"{name:40s} {value}")
            for name in types:
                print(f"cli.verify_s[{name}] {statistics.median(s['verify_s'][name] for s in layered):.4f}")
            metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in layers.items()}
    elif timed:
        metrics = {k: {"value": e2e[k], "unit": u} for k, u in END_TO_END.items()}

    correct = failed == 0 and bool(metrics)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def layer_unit(name: str) -> str:
    if name.endswith("_s") or name == "resolution.s":
        return "s"
    if ".append_useful." in name:
        return "ratio"
    if name.endswith("_bits"):
        return "bits"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
