"""Acceptance suite: one test per criterion, one PASS line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as
they print.  Everything is exact arithmetic; expected dimensions come
from the Weyl formula, closed-form counts, and independent dense
elimination, never from the code paths under test.
"""

import json
import random
from itertools import combinations
from pathlib import Path

import pytest

from minorbit.chevalley import SplitCasimir, casimir_top_eigenvalue, sym2_dim, sym2_index
from minorbit.cli import ade_types, verify
from minorbit.linalgx import EchelonBasis, append_and_rank, image_basis
from minorbit.orbit_ideal import degree2_ideal, projected_span, quotient_hilbert
from minorbit.resolution import betti_numbers, dynkin_tree
from minorbit.rootsys import SimpleType, root_to_weight, weyl_dim
from minorbit.sln_oracle import matrix_quadrics, oracle_quotient_dims

from helpers import (
    algebra_of,
    cartan_pair_generators,
    cartan_restriction,
    casimir_of,
    columns,
    dense_columns,
    dense_rank,
    evaluate,
    from_entries,
    invariant_form,
    scale_first_ee_constant,
    shifted_casimir,
    sparse_image,
    to_rows,
    transpose,
)

EXHAUSTIVE_TYPES = (
    [("A", r) for r in range(1, 7)] + [("D", r) for r in range(4, 7)] + [("E", 6)]
)
SAMPLED_TYPES = [("E", 7), ("E", 8)]
ALL_TYPES = (
    [("A", r) for r in range(1, 9)]
    + [("D", r) for r in range(4, 9)]
    + [("E", r) for r in (6, 7, 8)]
)


def _jacobi_residual(L, i, j, k):
    acc = {}
    for x, y, z in ((i, j, k), (j, k, i), (k, i, j)):
        for w, c in L.bracket(x, y):
            for u, s in L.bracket(w, z):
                acc[u] = acc.get(u, 0) + c * s
    return any(acc.values())


def _invariance_residual(L, form, x, y, z):
    total = 0
    for w, c in L.bracket(x, y):
        total += c * form(w, z)
    for w, c in L.bracket(x, z):
        total += c * form(y, w)
    return total


def _shifted(family, rank_):
    return shifted_casimir(family, rank_, casimir_top_eigenvalue(casimir_of(family, rank_)))


def test_criterion_1_structure_constant_suite():
    """Antisymmetry, Jacobi and form invariance: exhaustive through E6,
    sampled on at least 10^4 triples for E7 and E8."""
    for family, rk in EXHAUSTIVE_TYPES:
        L = algebra_of(family, rk)
        form = invariant_form(L)
        nn = L.dim
        for i in range(nn):
            assert L.bracket(i, i) == ()
            for j in range(i + 1, nn):
                fw = dict(L.bracket(i, j))
                bw = dict(L.bracket(j, i))
                assert fw == {k: -c for k, c in bw.items()}, (family, rk, i, j)
        for i, j, k in combinations(range(nn), 3):
            assert not _jacobi_residual(L, i, j, k), (family, rk, i, j, k)
        for x in range(nn):
            for y in range(nn):
                for z in range(y, nn):
                    assert _invariance_residual(L, form, x, y, z) == 0, (family, rk, x, y, z)
    for family, rk in SAMPLED_TYPES:
        L = algebra_of(family, rk)
        form = invariant_form(L)
        nn = L.dim
        rng = random.Random(1000 + rk)
        for _ in range(10_000):
            i, j, k = (rng.randrange(nn) for _ in range(3))
            fw = dict(L.bracket(i, j))
            bw = dict(L.bracket(j, i))
            assert fw == {u: -c for u, c in bw.items()}
            assert not _jacobi_residual(L, i, j, k)
            assert _invariance_residual(L, form, i, j, k) == 0
    print("ACCEPTANCE 1 structure-constant suite: PASS")


def _generator_certificate(L):
    """Derivation failures of ad g for the simple generators g, and the positions they reach.

    For each g = E(alpha_i) or F(alpha_i) and each pair a < b, the pair
    fails when [g, [a, b]] != [[g, a], b] + [a, [g, b]].  The derivations
    of g form a Lie algebra, and ad [g, h] = [ad g, ad h] once ad g is a
    derivation, so if every ad g is one and the generators reach every
    basis position, the Jacobi identity holds on all of g.  A position
    counts as reached when it is the single term of [g, x] for a reached
    x.  The table is read through bracket() only, both orientations.
    """
    nn = L.dim
    m = L.npos
    tab = [[L.bracket(a, b) for b in range(nn)] for a in range(nn)]
    simple = [a for a in range(m) if sum(L.rs.positive_roots[a]) == 1]
    gens = simple + [m + a for a in simple]
    failures = []
    for g in gens:
        adg = tab[g]
        for a in range(nn):
            row = tab[a]
            ga = adg[a]
            for b in range(a + 1, nn):
                gb = adg[b]
                ab = row[b]
                if not (ab or ga or gb):
                    continue
                acc = {}
                for w, c in ab:
                    for u, s in adg[w]:
                        acc[u] = acc.get(u, 0) + c * s
                for w, c in ga:
                    for u, s in tab[w][b]:
                        acc[u] = acc.get(u, 0) - c * s
                for w, c in gb:
                    for u, s in row[w]:
                        acc[u] = acc.get(u, 0) - c * s
                if any(acc.values()):
                    failures.append((g, a, b))
    reached = set(gens)
    frontier = list(gens)
    while frontier:
        x = frontier.pop()
        for g in gens:
            terms = tab[g][x]
            if len(terms) == 1 and terms[0][0] not in reached:
                reached.add(terms[0][0])
                frontier.append(terms[0][0])
    return failures, reached


@pytest.mark.parametrize("family,rank,corrupted", [("E", 7, 104), ("E", 8, 176)])
def test_criterion_1_generator_derivation_certificate(family, rank, corrupted):
    """Jacobi on all of E7 and E8, through the simple generators: each ad g
    is a derivation on every pair, and the generators reach every
    position.  Negating one stored constant breaks the certificate."""
    L = algebra_of(family, rank)
    failures, reached = _generator_certificate(L)
    assert failures == []
    assert reached == set(range(L.dim))
    failures, _ = _generator_certificate(scale_first_ee_constant(L, -1))
    assert len(failures) == corrupted


def test_criterion_2_kernel_dimension_matches_weyl_formula():
    """rank(Omega - c) on Sym^2 g equals dim Sym^2 g - dim V(2 theta),
    with the A and D cases double-checked by dense elimination."""
    expected = {("A", 1): (6, 5), ("A", 2): (36, 27), ("D", 4): (406, 300), ("E", 6): (3081, 2430)}
    for (family, rk), (dim_sym2, dim_top) in expected.items():
        L = algebra_of(family, rk)
        rs = L.rs
        assert sym2_dim(L.dim) == dim_sym2
        theta2 = tuple(2 * x for x in root_to_weight(rs, rs.positive_roots[-1]))
        assert weyl_dim(rs, theta2) == dim_top
        shifted = _shifted(family, rk)
        got = len(sparse_image(shifted.nrows, columns(shifted)))
        assert got == dim_sym2 - dim_top, (family, rk, got)
        if family in ("A", "D"):
            assert dense_rank(to_rows(shifted)) == got, (family, rk)
    print("ACCEPTANCE 2 kernel dimension vs Weyl formula: PASS")


def test_criterion_3_projected_span_fills_sym2h():
    """The projection of the full ideal has rank n(n+1)/2 through rank 6,
    and 28 and 36 for E7 and E8; every Cartan-pair generator equals
    -c h_i h_j exactly."""
    for family, rk in EXHAUSTIVE_TYPES:
        L = algebra_of(family, rk)
        Om = SplitCasimir(L)
        c = casimir_top_eigenvalue(Om)
        ideal = degree2_ideal(L.rs, Om, c)
        got, _ = projected_span(L.rs, ideal)
        assert got == rk * (rk + 1) // 2, (family, rk, got)
    got = [_cached_report(family, rk).projected_rank for family, rk in SAMPLED_TYPES]
    assert got == [28, 36], got
    for family, rk in ALL_TYPES:
        L = algebra_of(family, rk)
        Om = casimir_of(family, rk)
        c = casimir_top_eigenvalue(Om)
        gens = cartan_pair_generators(L, Om, c)
        expected = [{sym2_index(rk, i, j): -c} for i in range(rk) for j in range(i, rk)]
        assert gens == expected, (family, rk)
    print("ACCEPTANCE 3 projected span and Cartan-pair generators: PASS")


_reports = {}


def _cached_report(family, rk, max_degree=4):
    key = (family, rk, max_degree)
    if key not in _reports:
        _reports[key] = verify(SimpleType(family, rk), max_degree=max_degree)
    return _reports[key]


def test_criterion_4_hikita_match_all_types():
    """Quotient Hilbert function equals the resolution ring dimensions
    (1, n, 0, 0, 0) for every ADE type up to rank 8, each with the full
    degree-2 ideal at its Weyl-formula dimension, and the Betti
    numbers' alternating sum is rank + 1, the Euler characteristic of the
    tree of spheres."""
    for family, rk in ALL_TYPES:
        report = _cached_report(family, rk)
        assert report.ideal2_dim == report.dim_sym2 - report.dim_v2theta, (family, rk)
        assert report.quotient_hilbert == [1, rk, 0, 0, 0], (family, rk)
        assert report.hikita_match, (family, rk)
        betti = betti_numbers(dynkin_tree(SimpleType(family, rk)))
        assert report.betti == betti == [1, 0, rk]
        assert sum((-1) ** k * b for k, b in enumerate(betti)) == rk + 1
    print("ACCEPTANCE 4 hikita match across all ADE types: PASS")


@pytest.mark.parametrize("golden,max_rank,max_degree", [
    ("golden_all8.json", 8, 4),
    ("golden_all6_deg8.json", 6, 8),
], ids=["all8", "all6_deg8"])
def test_reports_match_the_golden_json(golden, max_rank, max_degree):
    """Every report field but timings_ms, for every ADE type up to
    max_rank at max_degree, is byte for byte the JSON in the golden
    file, which is what hikita-verify --all max_rank --max-degree
    max_degree --format json prints without timings."""
    reports = []
    for t in ade_types(max_rank):
        fields = _cached_report(t.family, t.rank, max_degree)._asdict()
        del fields["timings_ms"]
        reports.append(fields)
    got = json.dumps({"reports": reports}, indent=2) + "\n"
    assert got == Path(__file__).with_name(golden).read_text()
    print(f"ACCEPTANCE golden JSON reports ({golden}): PASS")


def test_criterion_5_matrix_model_oracle_agreement():
    """The minors plus matrix-square oracle reproduces the abstract
    type A quotient for n = 2..5 and vanishes at the matrix E_1n."""
    for n in (2, 3, 4, 5):
        L = algebra_of("A", n - 1)
        Om = SplitCasimir(L)
        c = casimir_top_eigenvalue(Om)
        ideal = degree2_ideal(L.rs, Om, c)
        _, span = projected_span(L.rs, ideal)
        abstract = quotient_hilbert(L.rs, span, 4)
        assert oracle_quotient_dims(n, 4) == abstract, n
        point = {(0, n - 1): 1}
        for g in matrix_quadrics(n):
            assert evaluate(g, point) == 0, n
    print("ACCEPTANCE 5 matrix-model oracle equivalence: PASS")


def test_criterion_6_sl2_anchor():
    """The unique sl2 generator restricts to a nonzero multiple of h^2
    and matches h^2 + ef after rescaling f by 4."""
    L = algebra_of("A", 1)
    Om = SplitCasimir(L)
    c = casimir_top_eigenvalue(Om)
    ideal = degree2_ideal(L.rs, Om, c)
    assert ideal.dim == 1
    vec = ideal.basis.vectors[0]
    poly = cartan_restriction(L, vec)
    assert list(poly) == [0] and poly[0] != 0
    c_hh = vec.get(sym2_index(3, 2, 2), 0)
    c_ef = vec.get(sym2_index(3, 0, 1), 0)
    assert c_hh != 0 and c_ef != 0
    assert c_hh * 4 == c_ef * 1  # (h^2, ef) coefficients vs rescaled (1, 4)
    print("ACCEPTANCE 6 sl2 anchor: PASS")


def test_criterion_7_linear_algebra_suite():
    """rank equals rank of the transpose and echelon re-reduction gives
    zero on 100 randomized sparse matrices up to 200 x 200."""
    rng = random.Random(424242)
    values = [1, -1, 2, -2, 3, 5, -6]
    for _ in range(100):
        nrows = rng.randint(1, 200)
        ncols = rng.randint(1, 200)
        entries = {}
        for _ in range(rng.randint(0, 3 * ncols)):
            entries[rng.randrange(nrows), rng.randrange(ncols)] = rng.choice(values)
        m = from_entries(nrows, ncols, entries)
        basis = image_basis(m.nrows, dense_columns(m))
        t = transpose(m)
        assert len(image_basis(t.nrows, dense_columns(t))) == len(basis)
        for col in columns(m):
            assert basis.reduce(col) == {}
        check = EchelonBasis(m.nrows)
        for col in columns(m):
            append_and_rank(check, col)
        assert check.pivots == basis.pivots
    print("ACCEPTANCE 7 linear-algebra suite: PASS")
