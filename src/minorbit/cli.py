"""Batch verifier and report emission.

For each requested ADE type this runs the full pipeline: root system,
Chevalley basis, split Casimir, quadratic ideal (the full image, with
its dimension checked against the Weyl formula), Cartan restriction,
quotient Hilbert function and the resolution cohomology, plus, for
family A, the oracle built from 2x2 minors and the matrix square.
Verification failures are data in the report; only construction bugs
raise, as an InvariantViolation that names the stage and the type.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from collections import namedtuple
from collections.abc import Iterator
from contextlib import contextmanager

from .chevalley import SplitCasimir, build_chevalley, casimir_top_eigenvalue, sym2_dim
from .orbit_ideal import degree2_ideal, projected_span, quotient_hilbert
from .resolution import betti_numbers, dynkin_tree, euler_characteristic
from .rootsys import InvariantViolation, SimpleType, build_root_system
from .sln_oracle import oracle_quotient_dims

__all__ = [
    "VerificationReport",
    "ade_types",
    "verify",
    "verify_all",
    "emit_report",
    "main",
]

MAX_RANK = 24  # the operator on Sym^2 g grows as the fourth power of the rank


class VerificationReport(namedtuple("VerificationReport", (
    "family rank dim_g dim_sym2 dim_v2theta ideal2_dim projected_rank "
    "expected_projected_rank quotient_hilbert betti hikita_match oracle_match timings_ms"
))):
    """One type's report; the JSON output is _asdict(), in this field order.

    oracle_match is None for the families without an oracle, and
    timings_ms maps each stage name to its wall time in milliseconds.
    """

    __slots__ = ()

    @property
    def passed(self) -> bool:
        return self.hikita_match and self.oracle_match is not False


def verify(t: SimpleType, max_degree: int = 4) -> VerificationReport:
    """Run every check for one type and assemble the report.

    The degree-2 ideal is always the full image of (Omega - c) on the
    symmetric square, with its dimension checked against the Weyl
    formula, so a broken construction raises for every rank.  The
    casimir stage assembles the operator into its weight blocks, held in
    flat arrays, and the ideal stage takes them over from the last block
    to the first, eliminating each and freeing its entries as it goes.
    The operator keeps no reference to the Lie algebra, and the ideal,
    projection and quotient stages take only the root system, so the
    bracket table is dropped after the casimir stage.
    Each stage is timed under its name, and an InvariantViolation raised
    inside it is raised again with the stage and the type in front of
    its message: the stage modules do not know who calls them.
    """
    if t.rank > MAX_RANK:
        raise ValueError(f"rank must be at most {MAX_RANK}, got {t.rank}")
    if max_degree < 2:
        raise ValueError(f"max_degree must be at least 2, got {max_degree}")
    if max_degree > 64:
        raise ValueError(f"max_degree must be at most 64, got {max_degree}")

    timings: dict = {}

    @contextmanager
    def stage(name: str) -> Iterator[None]:
        start = time.perf_counter()
        try:
            yield
        except InvariantViolation as exc:
            raise InvariantViolation(f"{name} stage: {t}: {exc}") from exc
        timings[name] = round((time.perf_counter() - start) * 1000.0, 3)

    with stage("root_system"):
        rs = build_root_system(t)
    with stage("chevalley"):
        L = build_chevalley(rs)
    with stage("casimir"):
        Omega = SplitCasimir(L)
        c = casimir_top_eigenvalue(Omega)
    # Omega holds no reference to L, so this frees the bracket table.
    del L
    with stage("ideal"):
        ideal = degree2_ideal(rs, Omega, c)
    with stage("projection"):
        projected_rank, span = projected_span(rs, ideal)
    with stage("quotient"):
        qh = quotient_hilbert(rs, span, max_degree)
    with stage("resolution"):
        tree = dynkin_tree(t)
        betti = betti_numbers(tree)
        if euler_characteristic(tree) != sum((-1) ** k * b for k, b in enumerate(betti)):
            raise InvariantViolation("Euler characteristic mismatch")
        # Cohomological degree 2d is polynomial degree d: the ring dimensions
        # are the even Betti numbers, zero above the top one.
        ring = (betti[::2] + [0] * max_degree)[: max_degree + 1]
        hikita_match = qh == ring

    oracle_match: bool | None = None
    if t.family == "A":
        with stage("oracle"):
            oracle_match = oracle_quotient_dims(t.rank + 1, max_degree) == qh

    return VerificationReport(
        family=t.family,
        rank=t.rank,
        dim_g=rs.dim_g,
        dim_sym2=sym2_dim(rs.dim_g),
        dim_v2theta=ideal.dim_v2theta,
        ideal2_dim=ideal.dim,
        projected_rank=projected_rank,
        expected_projected_rank=sym2_dim(t.rank),
        quotient_hilbert=qh,
        betti=betti,
        hikita_match=hikita_match,
        oracle_match=oracle_match,
        timings_ms=timings,
    )


def ade_types(max_rank: int) -> list[SimpleType]:
    """Every valid ADE type of rank at most max_rank, A then D then E."""
    if max_rank < 1:
        raise ValueError(f"max_rank must be at least 1, got {max_rank}")
    if max_rank > MAX_RANK:
        raise ValueError(f"max_rank must be at most {MAX_RANK}, got {max_rank}")
    types = [SimpleType("A", r) for r in range(1, max_rank + 1)]
    types += [SimpleType("D", r) for r in range(4, max_rank + 1)]
    types += [SimpleType("E", r) for r in (6, 7, 8) if r <= max_rank]
    return types


def verify_all(max_rank: int, max_degree: int = 4) -> list:
    """Reports for every ADE type with rank up to max_rank."""
    return [verify(t, max_degree) for t in ade_types(max_rank)]


def _poincare_str(coeffs: list) -> str:
    terms = [f"{c}*t^{k}" if k else str(c) for k, c in enumerate(coeffs) if c]
    return " + ".join(terms) if terms else "0"


def emit_report(r: VerificationReport) -> str:
    """One report as text, one ``key: value`` row per line."""
    rows = [
        f"type: {r.family}{r.rank}",
        f"dim_g: {r.dim_g}",
        f"dim_sym2: {r.dim_sym2}",
        f"dim_v2theta: {r.dim_v2theta}",
        f"ideal2_dim: {r.ideal2_dim}",
        f"projected_rank: {r.projected_rank} (expected {r.expected_projected_rank})",
        f"quotient_hilbert: {tuple(r.quotient_hilbert)}",
        f"betti: {tuple(r.betti)}",
        f"poincare: {_poincare_str(r.betti)}",
        f"hikita_match: {'PASS' if r.hikita_match else 'FAIL'}",
    ]
    if r.oracle_match is not None:
        rows.append(f"oracle_match: {'PASS' if r.oracle_match else 'FAIL'}")
    rows.append("timings_ms: " + " ".join(f"{k}={v}" for k, v in r.timings_ms.items()))
    return "\n".join(rows) + "\n"


def main(argv: list | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="hikita-verify",
        description=(
            "Exact-arithmetic check that the quotient of Sym[h] by the "
            "Cartan restriction of the minimal-orbit quadrics matches the "
            "cohomology of the matching Kleinian resolution."
        ),
    )
    parser.add_argument("--family", choices=("A", "D", "E"), help="simple type family")
    parser.add_argument("--rank", type=int, help="rank of the simple type")
    parser.add_argument(
        "--max-degree", type=int, default=4, help="top polynomial degree to compare"
    )
    parser.add_argument("--format", choices=("text", "json"), default="text")
    parser.add_argument(
        "--all",
        type=int,
        metavar="MAX_RANK",
        help="verify every ADE type up to this rank instead of a single type",
    )
    args = parser.parse_args(argv)

    if args.all is None and (args.family is None or args.rank is None):
        parser.error("either --all or both --family and --rank are required")
    if args.all is not None and (args.family is not None or args.rank is not None):
        parser.error("--all cannot be combined with --family or --rank")

    try:
        if args.all is not None:
            reports = verify_all(args.all, args.max_degree)
        else:
            reports = [verify(SimpleType(args.family, args.rank), args.max_degree)]
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        print(parser.format_usage(), end="", file=sys.stderr)
        return 2
    except InvariantViolation as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return 3

    if args.format == "json":
        if args.all is not None:
            payload = {"reports": [r._asdict() for r in reports]}
        else:
            payload = reports[0]._asdict()
        sys.stdout.write(json.dumps(payload, indent=2) + "\n")
    else:
        sys.stdout.write("\n".join(emit_report(r) for r in reports))

    return 0 if all(r.passed for r in reports) else 1


if __name__ == "__main__":
    sys.exit(main())
