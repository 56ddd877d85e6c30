"""Negative controls for the benchmark's verdict gate and trace coverage check.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json

import pytest

import run
import tracing

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
PATHS = [str(run.ROOT / "src"), str(run.HERE)]


def good(name: str, max_degree: int = 4) -> dict:
    n = int(name[1:])
    report = {
        "family": name[0],
        "rank": n,
        "ideal2_dim": run.expected_ideal2(name),
        "quotient_hilbert": [1, n] + [0] * (max_degree - 1),
        "hikita_match": True,
        "oracle_match": True if name[0] == "A" else None,
        "passed": True,
    }
    return {"type": name, "report": report}


def child(prelude: str) -> list:
    """The command of a sample process that runs ``prelude`` before ``sample.py``."""
    head = f"import sys\nsys.path[:0] = {PATHS!r}\n"
    return ["-c", head + prelude + "\nimport sample\nsys.exit(sample.main(sys.argv[1:]))"]


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    """A cheap workload, one set-up probe and traces under tmp_path."""
    monkeypatch.setattr(run, "SETUP_PROBES", 1)
    monkeypatch.setattr(run, "BUILD", tmp_path)

    def use(types, prelude=None):
        monkeypatch.setitem(run.WORKLOADS, "tiny", (types, 4))
        if prelude is not None:
            monkeypatch.setattr(run, "ENTRY", child(prelude))

    return use


def last_json(out: str) -> dict:
    return json.loads(out.strip().splitlines()[-1])


def test_known_answers_pass_the_gate():
    for name in run.ade(7) + ["E8"]:
        assert run.check_verdict(name, 4, good(name)) == []
    assert run.check_verdict("A6", 8, good("A6", 8)) == []


def test_known_answer_table():
    assert [run.expected_ideal2(f"A{n}") for n in (1, 2, 3, 7)] == [1, 9, 36, 784]
    assert run.expected_ideal2("E8") == 30876 - 27000


@pytest.mark.parametrize(
    "field,value",
    [("ideal2_dim", 37), ("quotient_hilbert", [1, 3, 1, 0, 0]), ("quotient_hilbert", [1, 3, 0, 0]),
     ("passed", False), ("rank", 4)],
)
def test_gate_fires_on_a_corrupt_report(field, value):
    v = good("A3")
    v["report"][field] = value
    assert run.check_verdict("A3", 4, v)


def test_gate_fires_on_an_error_or_a_missing_verdict():
    assert run.check_verdict("E6", 4, {"type": "E6", "error": "InvariantViolation: x"})
    assert run.check_verdict("E6", 4, None) == ["no verdict"]


def test_raised_invariant_violation_is_a_failure(monkeypatch):
    prelude = (
        "import minorbit.cli as cli\n"
        "from minorbit.rootsys import InvariantViolation\n"
        "def verify(*args, **kwargs):\n"
        "    raise InvariantViolation('forced')\n"
        "cli.verify = verify\n"
    )
    monkeypatch.setattr(run, "ENTRY", child(prelude))
    result = run.run_sample(["A1", "A2"], 4, 60)
    assert set(result["failures"]) == {"A1", "A2"}
    assert "InvariantViolation: forced" in result["failures"]["A1"][0]


def test_crashed_sample_process_is_a_failure(monkeypatch):
    code = (
        f"import sys\nsys.path[:0] = {PATHS!r}\n"
        "from minorbit.rootsys import InvariantViolation\n"
        "raise InvariantViolation('forced')\n"
    )
    monkeypatch.setattr(run, "ENTRY", ["-c", code])
    result = run.run_sample(["A1", "A2"], 4, 60)
    assert set(result["failures"]) == {"A1", "A2"}
    assert "InvariantViolation" in result["error"]


def test_clean_run_reports_every_end_to_end_metric(tiny, capsys):
    tiny(["A2", "D4"])
    assert run.main(["--workload", "tiny", "--seed", "1", "--seconds", "0", "--trace", "0"]) == 0
    result = last_json(capsys.readouterr().out)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 4
    assert set(result["metrics"]) == {m["name"] for m in BENCHMARK["end_to_end"]}


def test_corrupt_verdict_fails_the_run(tiny, capsys):
    tiny(
        ["A1", "A2"],
        "import minorbit.cli as cli\n"
        "orig = cli.verify\n"
        "def verify(*args, **kwargs):\n"
        "    r = orig(*args, **kwargs)\n"
        "    r.ideal2_dim += 1\n"
        "    return r\n"
        "cli.verify = verify\n",
    )
    assert run.main(["--workload", "tiny", "--seed", "1", "--seconds", "0", "--trace", "0"]) == 1
    result = last_json(capsys.readouterr().out)
    assert not result["correct"] and result["failed"] == 2


def test_traced_run_reports_every_per_layer_metric(tiny, capsys):
    tiny(["A2", "D4"])
    assert run.main(["--workload", "tiny", "--seed", "1", "--seconds", "0", "--trace", "1"]) == 0
    result = last_json(capsys.readouterr().out)
    assert result["correct"]
    assert set(result["metrics"]) == {m["name"] for m in BENCHMARK["per_layer"]}
    layers = {k: m["value"] for k, m in result["metrics"].items()}
    assert layers["linalgx.echelon_vectors"] == 9 + 106
    assert layers["chevalley.column_calls"] > 0 and layers["sln_oracle.quotient_dims_s"] > 0


def test_coverage_check_fires_on_an_unreached_function(tiny, capsys):
    # Rebound before the tracer is installed, the oracle escapes its
    # wrapper, as it would after a rename.
    tiny(
        ["A2"],
        "import minorbit.cli as cli\n"
        "from minorbit.sln_oracle import oracle_quotient_dims as orig\n"
        "cli.oracle_quotient_dims = lambda n, d: orig(n, d)\n",
    )
    assert run.main(["--workload", "tiny", "--seed", "1", "--seconds", "0", "--trace", "1"]) == 1
    captured = capsys.readouterr()
    assert "sln_oracle.oracle_quotient_dims" in captured.err
    assert "linalgx.append_and_rank[oracle]" in captured.err
    assert not captured.out.strip().splitlines()[-1].startswith("{")


def test_oracle_is_required_only_with_a_type_a():
    assert "sln_oracle.oracle_quotient_dims" in tracing.required_calls(["D4", "A3"])
    assert "sln_oracle.oracle_quotient_dims" not in tracing.required_calls(["E8"])
    assert tracing.missing_calls({}, ["E8"]) == tracing.required_calls(["E8"])
