"""Degree-2 ideal, Cartan restriction and quotient Hilbert functions."""

from fractions import Fraction

import pytest

from minorbit.chevalley import (
    casimir_top_eigenvalue,
    split_casimir,
    sym2_dim,
    sym2_index,
    sym2_pairs,
)
from minorbit.linalgx import image_basis
from minorbit.orbit_ideal import (
    CartanPolynomial,
    degree2_ideal,
    hilbert_from_quadrics,
    projected_span,
    quotient_hilbert,
    restrict_to_cartan,
    span_in_sym2h,
    weight_blocks,
)
from minorbit.rootsys import InvariantViolation

from helpers import (
    algebra_of,
    cartan_pair_generators,
    casimir_of,
    dense_rank,
    negate_first_ee_constant,
    shifted_casimir,
    to_rows,
)


def pipeline(family, rank):
    L = algebra_of(family, rank)
    Om = casimir_of(family, rank)
    c = casimir_top_eigenvalue(Om)
    return L, Om, c


def test_cartan_polynomial_validation():
    with pytest.raises(ValueError):
        CartanPolynomial({(1, 0): 1}, 2, 2)
    with pytest.raises(ValueError):
        CartanPolynomial({(1, 1, 0): 1}, 2, 2)
    p = CartanPolynomial({(2, 0): 0, (1, 1): 3}, 2, 2)
    assert p.coeffs == {(1, 1): Fraction(3)}
    assert not p.is_zero()
    assert CartanPolynomial({}, 2, 2).is_zero()


def test_a1_ideal_single_generator():
    L, Om, c = pipeline("A", 1)
    ideal = degree2_ideal(L, Om, c)
    assert ideal.dim == 1
    ef = sym2_index(3, 0, 1)
    hh = sym2_index(3, 2, 2)
    assert ideal.basis.vectors[0] == {ef: 4, hh: 1}


@pytest.mark.parametrize("family,rank,expected", [
    ("A", 1, 1),
    ("A", 2, 9),
    ("D", 4, 106),
])
def test_ideal_dimensions(family, rank, expected):
    L, Om, c = pipeline(family, rank)
    ideal = degree2_ideal(L, Om, c)
    assert ideal.dim == expected
    assert ideal.dim == sym2_dim(L.dim) - (
        {"A": {1: 5, 2: 27}, "D": {4: 300}}[family][rank]
    )


def test_restrict_to_cartan_a1():
    L, _, _ = pipeline("A", 1)
    ef = sym2_index(3, 0, 1)
    hh = sym2_index(3, 2, 2)
    assert restrict_to_cartan(L, {ef: 1}).is_zero()
    gen = restrict_to_cartan(L, {hh: 2, ef: 8})
    assert gen.coeffs == {(2,): Fraction(2)}


def test_restrict_to_cartan_a2_mixed_monomial():
    L, _, _ = pipeline("A", 2)
    h1h2 = sym2_index(L.dim, L.h_index(0), L.h_index(1))
    poly = restrict_to_cartan(L, {h1h2: 1})
    assert poly.coeffs == {(1, 1): Fraction(1)}


@pytest.mark.parametrize("family,rank", [("A", 1), ("A", 2), ("A", 3), ("D", 4)])
def test_projected_span_is_full(family, rank):
    L, Om, c = pipeline(family, rank)
    ideal = degree2_ideal(L, Om, c)
    got, _ = projected_span(L, ideal)
    assert got == rank * (rank + 1) // 2


@pytest.mark.parametrize("family,rank", [("A", 1), ("A", 2), ("A", 3), ("D", 4)])
def test_cartan_pair_generators_exact_values(family, rank):
    L, Om, c = pipeline(family, rank)
    gens = cartan_pair_generators(L, Om, c)
    n = rank
    assert len(gens) == n * (n + 1) // 2
    expected = []
    for i in range(n):
        for j in range(i, n):
            exp = [0] * n
            exp[i] += 1
            exp[j] += 1
            expected.append(CartanPolynomial({tuple(exp): -c}, 2, n))
    assert gens == expected


def test_cartan_pair_a1_value():
    L, Om, c = pipeline("A", 1)
    gens = cartan_pair_generators(L, Om, c)
    assert gens == [CartanPolynomial({(2,): -2}, 2, 1)]


@pytest.mark.parametrize("family,rank", [("A", 2), ("D", 4)])
def test_pair_generators_span_equals_projected_span(family, rank):
    # Two independent routes to the same subspace of Sym^2 h.
    L, Om, c = pipeline(family, rank)
    ideal = degree2_ideal(L, Om, c)
    _, via_ideal = projected_span(L, ideal)
    _, via_pairs = span_in_sym2h(rank, cartan_pair_generators(L, Om, c))
    assert via_ideal.pivots == via_pairs.pivots
    assert via_ideal.vectors == via_pairs.vectors


@pytest.mark.parametrize("family,rank,expected", [
    ("A", 1, [1, 1, 0, 0, 0]),
    ("A", 2, [1, 2, 0, 0, 0]),
    ("D", 4, [1, 4, 0, 0, 0]),
])
def test_quotient_hilbert_values(family, rank, expected):
    L, Om, c = pipeline(family, rank)
    ideal = degree2_ideal(L, Om, c)
    _, span = projected_span(L, ideal)
    assert quotient_hilbert(L, span, 4) == expected


def test_quotient_hilbert_stays_zero_in_higher_degrees():
    L, Om, c = pipeline("A", 2)
    ideal = degree2_ideal(L, Om, c)
    _, span = projected_span(L, ideal)
    assert quotient_hilbert(L, span, 7) == [1, 2, 0, 0, 0, 0, 0, 0]


def test_quotient_hilbert_rejects_small_degree():
    L, Om, c = pipeline("A", 1)
    ideal = degree2_ideal(L, Om, c)
    _, span = projected_span(L, ideal)
    with pytest.raises(ValueError):
        quotient_hilbert(L, span, 1)


def test_partial_span_gives_nonzero_quotient():
    # One quadric in two variables: the quotient of Sym[h] by (h1^2)
    # has dimensions 1, 2, 2, 2, ... in degrees 0, 1, 2, 3.
    quadric = CartanPolynomial({(2, 0): 1}, 2, 2)
    assert hilbert_from_quadrics(2, [quadric], 4) == [1, 2, 2, 2, 2]
    # (h1^2, h2^2): only h1 h2 survives in degree 2, and degree 3 is
    # the first that the ideal fills.
    squares = [CartanPolynomial({(2, 0): 1}, 2, 2), CartanPolynomial({(0, 2): 1}, 2, 2)]
    assert hilbert_from_quadrics(2, squares, 8) == [1, 2, 1, 0, 0, 0, 0, 0, 0]


@pytest.mark.parametrize("family,rank", [("A", 2), ("A", 3), ("D", 4)])
def test_ideal_vanishes_on_highest_weight_line(family, rank):
    # As quadratic functions, ideal vectors kill the point dual to
    # E(theta), whose only nonzero coordinate pairs with F(theta).
    L, Om, c = pipeline(family, rank)
    ideal = degree2_ideal(L, Om, c)
    f_theta = L.f_index(L.npos - 1)
    k = sym2_index(L.dim, f_theta, f_theta)
    for vec in ideal.basis.vectors:
        assert vec.get(k, 0) == 0


def test_sl2_generator_matches_classical_quadric():
    # The matrix-model equation is h^2 + ef; after rescaling f by 4 its
    # coefficient vector on the (h^2, ef) plane must be proportional to
    # ours.
    L, Om, c = pipeline("A", 1)
    ideal = degree2_ideal(L, Om, c)
    vec = ideal.basis.vectors[0]
    c_hh = vec.get(sym2_index(3, 2, 2), 0)
    c_ef = vec.get(sym2_index(3, 0, 1), 0)
    assert c_hh != 0 and c_ef != 0
    classical = {"hh": 1, "ef": 1}
    rescaled = {"hh": classical["hh"], "ef": 4 * classical["ef"]}
    assert c_hh * rescaled["ef"] == c_ef * rescaled["hh"]
    # And the restriction to the Cartan is a nonzero multiple of h^2.
    poly = restrict_to_cartan(L, vec)
    assert list(poly.coeffs) == [(2,)]
    assert poly.coeffs[(2,)] != 0


@pytest.mark.parametrize("family,rank", [("A", 2), ("A", 3), ("D", 4)])
def test_block_ranks_sum_to_the_dense_rank(family, rank):
    L, Om, c = pipeline(family, rank)
    blocks = list(weight_blocks(L, Om, c))
    assert sum(m.ncols for m in blocks) == sym2_dim(L.dim)
    block_ranks = sum(len(image_basis(m)) for m in blocks)
    assert block_ranks == dense_rank(to_rows(shifted_casimir(family, rank, c)))
    assert block_ranks == degree2_ideal(L, Om, c).dim


def test_off_weight_entry_fires_the_block_check():
    L, _, c = pipeline("A", 2)
    Om = split_casimir(L)  # a private operator: the cached one stays intact
    e1e1 = sym2_index(L.dim, 0, 0)
    h1h1 = sym2_index(L.dim, L.h_index(0), L.h_index(0))
    Om.matrix()[h1h1, e1e1] = 1
    with pytest.raises(InvariantViolation, match=(
        "ideal stage: A2: the image of monomial x_0 x_0 has an entry on x_6 x_6"
    )):
        degree2_ideal(L, Om, c)


@pytest.mark.parametrize("family,rank", [("A", 2), ("D", 4)])
def test_degree2_ideal_leaves_the_cached_operator_intact(family, rank):
    L = algebra_of(family, rank)
    Om = split_casimir(L)
    degree2_ideal(L, Om, casimir_top_eigenvalue(Om))
    assert Om.matrix().columns() == split_casimir(L).matrix().columns()


@pytest.mark.parametrize("family,rank", [("A", 3), ("D", 4), ("E", 6)])
def test_projected_span_equals_the_span_of_every_restriction(family, rank):
    L, Om, c = pipeline(family, rank)
    ideal = degree2_ideal(L, Om, c)
    _, skipped = projected_span(L, ideal)
    _, every = span_in_sym2h(rank, [restrict_to_cartan(L, vec) for vec in ideal.basis.vectors])
    assert skipped.pivots == every.pivots
    assert skipped.vectors == every.vectors


@pytest.mark.parametrize("family,rank,got,expected", [
    ("A", 3, 46, 36),
    ("D", 5, 291, 265),
    ("E", 6, 693, 651),
])
def test_negated_structure_constant_fails_the_dimension_check(family, rank, got, expected):
    bad = negate_first_ee_constant(algebra_of(family, rank))
    Om = split_casimir(bad)
    c = casimir_top_eigenvalue(Om)
    with pytest.raises(InvariantViolation, match=(
        f"{family}{rank}: degree-2 ideal has dimension {got}, expected {expected}"
    )):
        degree2_ideal(bad, Om, c)


@pytest.mark.parametrize("family,rank", [("A", 2), ("D", 4)])
def test_restrict_to_cartan_keeps_exactly_the_cartan_monomials(family, rank):
    L = algebra_of(family, rank)
    base = 2 * L.npos
    for k, (p, q) in enumerate(sym2_pairs(L.dim)):
        poly = restrict_to_cartan(L, {k: 3})
        if p >= base:
            exp = [0] * rank
            exp[p - base] += 1
            exp[q - base] += 1
            assert poly.coeffs == {tuple(exp): 3}
        else:
            assert poly.is_zero()
