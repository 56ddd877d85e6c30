"""Matrix-model oracle: minors, squares, diagonal restriction."""

from math import comb

import pytest

from minorbit.chevalley import SplitCasimir, casimir_top_eigenvalue
from minorbit.linalgx import image_basis
from minorbit.orbit_ideal import degree2_ideal, projected_span, quotient_hilbert
from minorbit.sln_oracle import matrix_quadrics, oracle_quotient_dims, restrict_to_diagonal

from helpers import algebra_of, dense, evaluate


def test_rejects_tiny_matrices():
    with pytest.raises(ValueError):
        matrix_quadrics(1)
    with pytest.raises(ValueError):
        matrix_quadrics(0)
    with pytest.raises(ValueError):
        oracle_quotient_dims(1, 4)
    with pytest.raises(ValueError):
        oracle_quotient_dims(3, 1)


@pytest.mark.parametrize("n,count", [(2, 1), (3, 9), (4, 36)])
def test_minor_counts(n, count):
    # The minors come first, then the n^2 entries of A^2.
    minors = list(matrix_quadrics(n))[: -n * n]
    assert len(minors) == count == comb(n, 2) ** 2
    assert all(len(q) == 2 and sorted(q.values()) == [-1, 1] for q in minors)


def test_n2_minor_is_determinant():
    det = list(matrix_quadrics(2))[0]
    assert det == {
        (((0, 0), (1, 1))): 1,
        (((0, 1), (1, 0))): -1,
    }
    assert all(type(c) is int for c in det.values())


def test_n2_square_entries():
    gens = list(matrix_quadrics(2))[1:]
    assert len(gens) == 4
    # Entry (1, 1): a11^2 + a12 a21; entry (1, 2): a11 a12 + a12 a22.
    assert gens[0] == {
        ((0, 0), (0, 0)): 1,
        ((0, 1), (1, 0)): 1,
    }
    assert gens[1] == {
        ((0, 0), (0, 1)): 1,
        ((0, 1), (1, 1)): 1,
    }


def test_n3_square_count():
    assert len(list(matrix_quadrics(3))) == comb(3, 2) ** 2 + 9


def test_restrict_n2_minor_to_traceless_diagonal():
    # a11 a22 with a22 = -a11 becomes -a11^2.
    (poly,) = restrict_to_diagonal(list(matrix_quadrics(2))[:1], 2)
    assert poly == {0: -1}


def test_restrict_n2_square_entry():
    gens = list(matrix_quadrics(2))[1:]
    restricted = restrict_to_diagonal(gens, 2)
    assert restricted[0] == {0: 1}
    # Off-diagonal entries die entirely on the diagonal.
    assert restricted[1] == {}
    assert restricted[2] == {}


def test_restrict_n3_minor_picks_out_product():
    target = {((0, 0), (1, 1)): 1, ((0, 1), (1, 0)): -1}
    match = [g for g in matrix_quadrics(3) if g == target]
    assert len(match) == 1
    (poly,) = restrict_to_diagonal(match, 3)
    # a11 a22 survives untouched: both variables are kept traceless coordinates,
    # and h1 h2 is index 1 of Sym^2 in the order h1^2, h1 h2, h2^2.
    assert poly == {1: 1}


def test_restriction_drops_cancelled_terms():
    # a11^2 - a22^2 vanishes on traceless diagonals; a11^2 - a33^2 with
    # a33 = -(a11 + a22) leaves -2 a11 a22 - a22^2, its a11^2 term cancelled.
    n2 = {((0, 0), (0, 0)): 1, ((1, 1), (1, 1)): -1}
    n3 = {((0, 0), (0, 0)): 1, ((2, 2), (2, 2)): -1}
    assert restrict_to_diagonal([n2], 2) == [{}]
    assert restrict_to_diagonal([n3], 3) == [{1: -2, 2: -1}]


@pytest.mark.parametrize("n,expected", [
    (2, [1, 1, 0, 0, 0]),
    (3, [1, 2, 0, 0, 0]),
    (5, [1, 4, 0, 0, 0]),
])
def test_oracle_quotient_dims(n, expected):
    assert oracle_quotient_dims(n, 4) == expected


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_restricted_span_is_full(n):
    restricted = restrict_to_diagonal(matrix_quadrics(n), n)
    dim = (n - 1) * n // 2
    assert len(image_basis(dim, [dense(dim, g) for g in restricted])) == dim


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_generators_vanish_at_highest_weight_matrix(n):
    # E_{1n} has rank one and zero square, so it lies in the locus.
    point = {(0, n - 1): 1}
    for g in matrix_quadrics(n):
        assert evaluate(g, point) == 0


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_oracle_agrees_with_abstract_route(n):
    L = algebra_of("A", n - 1)
    Om = SplitCasimir(L)
    c = casimir_top_eigenvalue(Om)
    ideal = degree2_ideal(L.rs, Om, c)
    _, span = projected_span(L.rs, ideal)
    abstract = quotient_hilbert(L.rs, span, 4)
    assert oracle_quotient_dims(n, 4) == abstract
