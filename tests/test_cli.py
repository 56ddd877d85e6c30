"""Verification driver, report serialization, exit codes and export lists."""

import importlib
import json
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import minorbit
from minorbit import cli, orbit_ideal, rootsys
from minorbit.cli import (
    VerificationReport,
    ade_types,
    emit_report,
    main,
    verify,
)
from minorbit.rootsys import InvariantViolation, SimpleType

from helpers import (
    misdirect_first_ee_bracket,
    negate_first_ee_constant_and_its_mirror,
    scale_first_ee_constant,
    shift_theta_pairing,
)


def test_verify_a1_report_values():
    r = verify(SimpleType("A", 1), max_degree=4)
    assert r.family == "A" and r.rank == 1
    assert r.dim_g == 3
    assert r.dim_sym2 == 6
    assert r.dim_v2theta == 5
    assert r.ideal2_dim == 1
    assert r.projected_rank == 1 == r.expected_projected_rank
    assert r.quotient_hilbert == [1, 1, 0, 0, 0]
    assert r.betti == [1, 0, 1]
    assert r.hikita_match is True
    assert r.oracle_match is True
    assert r.passed


def test_verify_d4_full_mode():
    r = verify(SimpleType("D", 4), max_degree=4)
    assert r.projected_rank == 10
    assert r.ideal2_dim == 106
    assert r.hikita_match is True
    assert r.oracle_match is None


def test_verify_e7_full_path():
    r = verify(SimpleType("E", 7), max_degree=3)
    assert r.projected_rank == 28
    assert r.ideal2_dim == 1540
    assert r.quotient_hilbert == [1, 7, 0, 0]
    assert r.hikita_match is True


@pytest.mark.parametrize("call,arg,msg", [
    ("verify", 1, "max_degree must be at least 2, got 1"),
    ("verify", 4.0, "max_degree must be an int, got 4.0"),
    ("verify", True, "max_degree must be an int, got True"),
    ("ade_types", 2.5, "max_rank must be an int, got 2.5"),
    ("ade_types", True, "max_rank must be an int, got True"),
])
def test_verify_rejects_bad_arguments(call, arg, msg):
    run = {"verify": lambda x: verify(SimpleType("A", 2), x), "ade_types": ade_types}[call]
    with pytest.raises(ValueError, match=f"^{msg}$"):
        run(arg)


def test_json_report_round_trips(capsys):
    code = main(["--family", "A", "--rank", "2", "--format", "json"])
    assert code == 0
    parsed = VerificationReport(**json.loads(capsys.readouterr().out))
    r = verify(SimpleType("A", 2))
    assert parsed.timings_ms.keys() == r.timings_ms.keys()
    assert parsed._replace(timings_ms=r.timings_ms) == r


def test_text_report_contains_pass_line():
    r = verify(SimpleType("A", 1))
    text = emit_report(r)
    assert "hikita_match: PASS" in text
    assert "oracle_match: PASS" in text


def _without_timings(text):
    return [line for line in text.splitlines() if not line.startswith("timings_ms: ")]


def test_text_report_does_not_depend_on_the_timings():
    # Timings differ from run to run; no other row, and no padding, may follow them.
    r = verify(SimpleType("A", 3))
    slow = r._replace(timings_ms={k: 1000 * v + 1.5 for k, v in r.timings_ms.items()})
    assert emit_report(r) != emit_report(slow)
    assert _without_timings(emit_report(r)) == _without_timings(emit_report(slow))


def test_text_reports_are_separated_by_a_blank_line(capsys):
    assert main(["--all", "2"]) == 0
    blocks = capsys.readouterr().out.split("\n\n")
    assert [_without_timings(b) for b in blocks] == [
        _without_timings(emit_report(verify(t))) for t in ade_types(2)
    ]
    assert all(": " in line for b in blocks for line in b.splitlines())


def test_unknown_format_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--family", "A", "--rank", "1", "--format", "yaml"])
    assert exc.value.code == 2
    assert "--format" in capsys.readouterr().err


def test_json_stable_fields_across_runs():
    a = verify(SimpleType("A", 2))._asdict()
    b = verify(SimpleType("A", 2))._asdict()
    a.pop("timings_ms")
    b.pop("timings_ms")
    assert a == b
    assert list(a) == list(b)


def test_ade_type_enumeration():
    assert [str(t) for t in ade_types(2)] == ["A1", "A2"]
    assert [str(t) for t in ade_types(4)] == ["A1", "A2", "A3", "A4", "D4"]
    assert [str(t) for t in ade_types(6)] == [
        "A1", "A2", "A3", "A4", "A5", "A6", "D4", "D5", "D6", "E6",
    ]
    assert [str(t) for t in ade_types(8)][-3:] == ["E6", "E7", "E8"]
    with pytest.raises(ValueError):
        ade_types(0)


def test_main_single_type_exit_zero(capsys):
    code = main(["--family", "A", "--rank", "1"])
    out = capsys.readouterr().out
    assert code == 0
    assert "hikita_match: PASS" in out


def test_main_json_all(capsys):
    code = main(["--all", "2", "--format", "json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert [r["rank"] for r in payload["reports"]] == [1, 2]


def test_main_usage_errors():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["--family", "Q", "--rank", "1"])
    assert exc.value.code == 2


@pytest.mark.parametrize("extra", [
    ["--family", "E", "--rank", "8"], ["--family", "E"], ["--rank", "8"],
])
def test_all_with_a_single_type_flag_is_a_usage_error(capsys, monkeypatch, extra):
    monkeypatch.setattr(cli, "verify", lambda *a: pytest.fail("verified despite the usage error"))
    with pytest.raises(SystemExit) as exc:
        main(["--all", "2", *extra])
    assert exc.value.code == 2
    assert "--all cannot be combined with --family or --rank" in capsys.readouterr().err


def test_main_invalid_rank_exits_two(capsys):
    code = main(["--family", "D", "--rank", "3"])
    assert code == 2
    assert "family D" in capsys.readouterr().err


def test_main_verification_failure_exits_one(monkeypatch, capsys):
    # Force a mismatch on the orbit side: one class too many in degree 2.
    real = cli.quotient_hilbert

    def wrong(L, span, max_degree):
        dims = real(L, span, max_degree)
        dims[2] += 1
        return dims

    monkeypatch.setattr(cli, "quotient_hilbert", wrong)
    code = main(["--family", "D", "--rank", "4"])
    out = capsys.readouterr().out
    assert code == 1
    assert "quotient_hilbert: (1, 4, 1, 0, 0)" in out
    assert "hikita_match: FAIL" in out


def test_oracle_mismatch_alone_fails_the_verdict(monkeypatch, capsys):
    monkeypatch.setattr(cli, "oracle_quotient_dims", lambda n, max_degree: [1, n, 0, 0, 0])
    r = verify(SimpleType("A", 2))
    assert r.hikita_match is True
    assert r.oracle_match is False
    assert not r.passed
    code = main(["--family", "A", "--rank", "2"])
    out = capsys.readouterr().out
    assert code == 1
    assert "hikita_match: PASS" in out
    assert "oracle_match: FAIL" in out


def test_main_invariant_violation_exits_three(monkeypatch, capsys):
    def boom(t, max_degree=4):
        raise InvariantViolation("forced for the test")

    monkeypatch.setattr(cli, "verify", boom)
    code = main(["--family", "A", "--rank", "1"])
    assert code == 3
    assert "invariant" in capsys.readouterr().err


def test_euler_mismatch_names_the_stage_and_the_type(monkeypatch, capsys):
    # One sphere too many: b2 = n + 1 disagrees with the tree's Euler
    # characteristic.  So does a spurious b1 = 1, and the Euler check is
    # the only one that sees it: the verdict reads only the even Betti
    # numbers.
    for betti in (lambda n: [1, 0, n + 1], lambda n: [1, 1, n]):
        monkeypatch.setattr(cli, "betti_numbers", betti)
        for family, rank in (("A", 1), ("D", 5), ("E", 6)):
            code = main(["--family", family, "--rank", str(rank)])
            assert code == 3
            assert capsys.readouterr().err == (
                f"internal invariant violation: resolution stage: {family}{rank}: "
                "Euler characteristic mismatch\n"
            )


def test_main_rejects_bad_degree(capsys):
    code = main(["--family", "A", "--rank", "1", "--max-degree", "1"])
    assert code == 2


def test_degree_above_the_bound_is_a_usage_error(monkeypatch, capsys):
    # The report lists every degree, so an unbounded degree is unbounded output.
    assert verify(SimpleType("A", 1), max_degree=64).quotient_hilbert == [1, 1] + [0] * 63
    monkeypatch.setattr(cli, "build_root_system", lambda t: pytest.fail("verified despite the bound"))
    with pytest.raises(ValueError, match="^max_degree must be at most 64, got 65$"):
        verify(SimpleType("A", 2), max_degree=65)
    assert main(["--family", "A", "--rank", "2", "--max-degree", "65"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: max_degree must be at most 64, got 65\nusage: hikita-verify")


class _Reached(Exception):
    pass


def _reached(t):
    raise _Reached(str(t))


def test_rank_above_the_bound_is_a_usage_error(monkeypatch, capsys):
    # The operator on Sym^2 g grows as the fourth power of the rank, so an
    # unbounded rank is unbounded work.  Rank 24 gets past the bound, to
    # the first stage; rank 25 never gets there.
    monkeypatch.setattr(cli, "build_root_system", _reached)
    for family in ("A", "D"):
        with pytest.raises(_Reached, match=f"^{family}24$"):
            verify(SimpleType(family, 24))
    assert [str(t) for t in ade_types(24)][-5:] == ["D23", "D24", "E6", "E7", "E8"]
    monkeypatch.setattr(cli, "build_root_system", lambda t: pytest.fail("verified despite the bound"))
    for family in ("A", "D"):
        with pytest.raises(ValueError, match="^rank must be at most 24, got 25$"):
            verify(SimpleType(family, 25))
    assert main(["--family", "A", "--rank", "25"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: rank must be at most 24, got 25\nusage: hikita-verify")


def test_all_above_the_rank_bound_fails_before_any_type_runs(monkeypatch, capsys):
    monkeypatch.setattr(cli, "verify", lambda *a: pytest.fail("verified despite the bound"))
    with pytest.raises(ValueError, match="^max_rank must be at most 24, got 25$"):
        ade_types(25)
    assert main(["--all", "25"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: max_rank must be at most 24, got 25\nusage: hikita-verify")


def test_main_rejects_the_removed_mode_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--family", "A", "--rank", "1", "--mode", "full"])
    assert exc.value.code == 2
    assert "--mode" in capsys.readouterr().err


@pytest.mark.parametrize("family,rank", [("A", 2), ("D", 4), ("E", 6)])
def test_wrong_weight_pairing_exits_three_at_the_casimir_stage(monkeypatch, capsys, family, rank):
    real = cli.build_chevalley
    monkeypatch.setattr(cli, "build_chevalley", lambda rs: shift_theta_pairing(real(rs), 1))
    code = main(["--family", family, "--rank", str(rank)])
    assert code == 3
    assert capsys.readouterr().err == (
        f"internal invariant violation: casimir stage: {family}{rank}: Casimir scalar 3 "
        "on the highest-weight square differs from (theta, theta) = 2\n"
    )


def _flip_ee_sign(monkeypatch):
    real = cli.build_chevalley
    monkeypatch.setattr(cli, "build_chevalley", lambda rs: scale_first_ee_constant(real(rs), -1))


def _flip_ee_sign_and_mirror(monkeypatch):
    real = cli.build_chevalley
    monkeypatch.setattr(
        cli, "build_chevalley", lambda rs: negate_first_ee_constant_and_its_mirror(real(rs))
    )


def _shift_c_by_one(monkeypatch):
    real = cli.casimir_top_eigenvalue
    monkeypatch.setattr(cli, "casimir_top_eigenvalue", lambda Omega: real(Omega) + 1)


@pytest.mark.parametrize("family,rank,column,image", [
    ("A", 8, "x_0 x_8", "x_36 x_44"),
    ("D", 7, "x_0 x_7", "x_42 x_49"),
    ("E", 7, "x_0 x_7", "x_63 x_70"),
], ids=["A8", "D7", "E7"])
def test_negated_constant_exits_three_at_the_partner_check(
    monkeypatch, capsys, family, rank, column, image
):
    # One negated E-E constant breaks the operator's symmetry under the
    # Chevalley involution, and the ideal stage compares each block with
    # its partner before it eliminates the pair.
    _flip_ee_sign(monkeypatch)
    assert main(["--family", family, "--rank", str(rank)]) == 3
    assert capsys.readouterr().err == (
        f"internal invariant violation: ideal stage: {family}{rank}: column {column} "
        f"differs from column {image}, its Chevalley image\n"
    )


@pytest.mark.parametrize("corrupt,family,rank,got,expected", [
    (_flip_ee_sign_and_mirror, "A", 8, 1354, 1296),
    (_flip_ee_sign_and_mirror, "D", 7, 1188, 1106),
    (_flip_ee_sign_and_mirror, "E", 7, 1670, 1540),
    (_shift_c_by_one, "A", 8, 3240, 1296),
    (_shift_c_by_one, "D", 7, 4186, 1106),
    (_shift_c_by_one, "E", 7, 8911, 1540),
], ids=lambda v: getattr(v, "__name__", str(v)))
def test_broken_construction_exits_three_at_rank_seven_and_up(
    monkeypatch, capsys, corrupt, family, rank, got, expected
):
    # No stage before the ideal notices either corruption, and neither
    # breaks the symmetry the partner check reads; the dimension check must.
    corrupt(monkeypatch)
    code = main(["--family", family, "--rank", str(rank)])
    err = capsys.readouterr().err
    assert code == 3
    assert (
        f"ideal stage: {family}{rank}: degree-2 ideal has dimension {got}, "
        f"expected {expected}"
    ) in err


def test_off_block_product_exits_three_at_the_casimir_stage(monkeypatch, capsys):
    # A bracket that lands on the wrong weight sends a product of the
    # operator outside its column's weight block; assembly catches it.
    real = cli.build_chevalley
    monkeypatch.setattr(cli, "build_chevalley", lambda rs: misdirect_first_ee_bracket(real(rs)))
    assert main(["--family", "A", "--rank", "2"]) == 3
    assert capsys.readouterr().err == (
        "internal invariant violation: casimir stage: A2: the bracket [x_0, x_1] "
        "has a term on x_6, whose weight is not the sum of theirs\n"
    )


def test_entry_outside_int8_exits_three_at_the_casimir_stage(monkeypatch, capsys):
    # The weight blocks hold int8 entries; one that does not fit is a
    # construction bug, reported like the other casimir-stage checks.
    real = cli.build_chevalley
    monkeypatch.setattr(cli, "build_chevalley", lambda rs: scale_first_ee_constant(real(rs), 200))
    assert main(["--family", "A", "--rank", "3"]) == 3
    assert capsys.readouterr().err == (
        "internal invariant violation: casimir stage: A3: column x_0 x_1 has the entry -200, "
        "outside the int8 range [-128, 127]\n"
    )


MOVE_EDGE = """
import sys
from minorbit import cli, rootsys
real = rootsys.dynkin_edges
rootsys.dynkin_edges = lambda t: tuple({new} if e == {old} else e for e in real(t))
sys.exit(cli.main(["--family", "{family}", "--rank", "{rank}"]))
"""


@pytest.mark.parametrize("family,rank,old,new,got,expected", [
    ("A", 5, (3, 4), (2, 4), 16, 15),
    ("D", 6, (3, 5), (4, 5), 21, 30),
    ("E", 8, (1, 3), (1, 4), 126, 120),
], ids=["A5", "D6", "E8"])
def test_moved_edge_exits_three_instead_of_hanging(family, rank, old, new, got, expected):
    # A5 with edge (3, 4) moved to (2, 4) is the D5 diagram, with more
    # roots than A5, and D6 with (3, 5) moved to (4, 5) is the A6 chain,
    # with fewer.  E8 with (1, 3) moved to (1, 4) is the affine diagram
    # of E7, whose root system is infinite: enumeration must stop at the
    # count.  A child process with a timeout turns a hang into a failure.
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    script = MOVE_EDGE.format(family=family, rank=rank, old=old, new=new)
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, env=env, timeout=30,
    )
    assert proc.returncode == 3
    assert re.match(
        f"^internal invariant violation: root_system stage: {family}{rank}: "
        f"enumerated {got} positive roots, expected {expected}$",
        proc.stderr,
    )


@pytest.mark.parametrize("family,rank,got,expected", [
    ("A", 5, 11, 15),
    ("D", 6, 21, 30),
    ("E", 8, 43, 120),
])
def test_dropped_first_edge_exits_three(monkeypatch, capsys, family, rank, got, expected):
    real = rootsys.dynkin_edges
    monkeypatch.setattr(rootsys, "dynkin_edges", lambda t: real(t)[1:])
    code = main(["--family", family, "--rank", str(rank)])
    assert code == 3
    assert re.match(
        f"^internal invariant violation: root_system stage: {family}{rank}: "
        f"enumerated {got} positive roots, expected {expected}$",
        capsys.readouterr().err,
    )


def _truncated_root_system(where):
    """build_root_system with one positive root dropped: the middle one, or the top one."""
    real = rootsys.build_root_system

    def build(t):
        rs = real(t)
        roots = list(rs.positive_roots)
        del roots[len(roots) // 2 if where == "middle" else -1]
        return rs._replace(positive_roots=tuple(roots))

    return build


@pytest.mark.parametrize("family,rank,where,message", [
    ("A", 3, "middle", "degree-2 ideal has dimension 50, expected 49"),
    ("D", 5, "middle", "degree-2 ideal has dimension 409, expected 484"),
    ("A", 3, "top", "weight (2, 2, -2) is not dominant"),
    ("D", 5, "top", "weight (2, -2, 2, 0, 0) is not dominant"),
    ("E", 6, "top", "weight (0, -2, 0, 2, 0, 0) is not dominant"),
], ids=["A3-middle", "D5-middle", "A3-top", "D5-top", "E6-top"])
def test_truncated_positive_root_list_exits_three(monkeypatch, capsys, family, rank, where, message):
    # Without the top root, twice the new last root is not dominant; that
    # is a broken construction, not a usage error.
    monkeypatch.setattr(cli, "build_root_system", _truncated_root_system(where))
    code = main(["--family", family, "--rank", str(rank)])
    err = capsys.readouterr().err
    assert code == 3
    assert f"internal invariant violation: ideal stage: {family}{rank}: {message}\n" == err


def test_every_exported_name_resolves():
    for info in pkgutil.iter_modules(minorbit.__path__):
        module = importlib.import_module(f"minorbit.{info.name}")
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert not missing, (info.name, missing)


def test_verify_computes_the_weyl_dimension_once(monkeypatch):
    calls = []
    real = orbit_ideal.weyl_dim

    def counted(rs, lam):
        calls.append(lam)
        return real(rs, lam)

    monkeypatch.setattr(orbit_ideal, "weyl_dim", counted)
    r = verify(SimpleType("A", 2))
    assert len(calls) == 1
    assert r.dim_v2theta == 27 and r.ideal2_dim == 36 - 27
    assert not hasattr(cli, "weyl_dim")


def test_large_max_degree_stops_at_the_first_zero_degree(monkeypatch):
    asked = []
    real = orbit_ideal.monomial_exponents

    def counted(n, d):
        asked.append(d)
        return real(n, d)

    monkeypatch.setattr(orbit_ideal, "monomial_exponents", counted)
    r = verify(SimpleType("A", 3), max_degree=30)
    assert r.quotient_hilbert == [1, 3] + [0] * 29
    assert r.hikita_match is True and r.oracle_match is True
    assert asked and max(asked) == 2


def test_module_entry_point_runs_without_warnings():
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "minorbit.cli",
         "--family", "A", "--rank", "1"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0
    assert proc.stderr == ""


def test_importing_the_cli_loads_no_dataclasses_inspect_or_typing():
    # Every hikita-verify process pays for what minorbit.cli imports;
    # dataclasses alone pulls in inspect, ast, dis and tokenize.
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    script = (
        "import sys, minorbit.cli\n"
        "print(*sorted({'dataclasses', 'inspect', 'typing'} & set(sys.modules)))"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", script],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "\n"
