"""Degree-2 ideal, Cartan restriction and quotient Hilbert functions."""

import weakref
from collections import defaultdict
from operator import add
from types import SimpleNamespace

import pytest

from minorbit.chevalley import (
    LieAlgebra,
    SplitCasimir,
    build_chevalley,
    casimir_top_eigenvalue,
    sym2_dim,
    sym2_index,
    sym2_pairs,
)
from minorbit.cli import ade_types
from minorbit.linalgx import image_basis
from minorbit.orbit_ideal import (
    IdealDegree2,
    _cartan_start,
    degree2_ideal,
    hilbert_from_quadrics,
    monomial_exponents,
    projected_span,
    quotient_hilbert,
)
from minorbit.rootsys import InvariantViolation, SimpleType

from helpers import (
    algebra_of,
    cartan_pair_generators,
    cartan_restriction,
    casimir_of,
    columns,
    dense,
    dense_rank,
    misdirect_first_ee_bracket,
    rs_of,
    scale_first_ee_constant,
    shifted_casimir,
    sparse_image,
    sym2_unrank,
    to_rows,
    weight_blocks,
)


def pipeline(family, rank):
    # An operator of its own: degree2_ideal empties the one it is given.
    L = algebra_of(family, rank)
    Om = SplitCasimir(L)
    c = casimir_top_eigenvalue(Om)
    return L, Om, c


def hand_built_ideal(L, *vectors):
    """An ideal whose vectors span the given Sym^2 g vectors; projected_span reads only those."""
    n = sym2_dim(L.dim)
    basis = SimpleNamespace(vectors=image_basis(n, [dense(n, v) for v in vectors]).vectors)
    return IdealDegree2(basis, dim_v2theta=0)


def test_a1_ideal_single_generator():
    L, Om, c = pipeline("A", 1)
    ideal = degree2_ideal(L.rs, Om, c)
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
    ideal = degree2_ideal(L.rs, Om, c)
    assert ideal.dim == expected
    assert ideal.dim_v2theta == {"A": {1: 5, 2: 27}, "D": {4: 300}}[family][rank]
    assert ideal.dim == sym2_dim(L.dim) - ideal.dim_v2theta


def test_restrict_to_cartan_a1():
    L, _, _ = pipeline("A", 1)
    ef = sym2_index(3, 0, 1)
    hh = sym2_index(3, 2, 2)
    got, span = projected_span(L.rs, hand_built_ideal(L, {ef: 1}))
    assert got == 0 and span.vectors == []
    got, span = projected_span(L.rs, hand_built_ideal(L, {hh: 2, ef: 8}))
    assert got == 1 and span.vectors == [{0: 1}]


def test_restrict_to_cartan_a2_mixed_monomial():
    # Root-vector terms die; h1^2, h1 h2 and h2^2 land on Sym^2 h
    # indices 0, 1 and 2 with their coefficients.
    L, _, _ = pipeline("A", 2)
    h1 = 2 * L.npos
    h2 = h1 + 1
    vec = {
        sym2_index(L.dim, 0, 0): 7,
        sym2_index(L.dim, h1, h1): 2,
        sym2_index(L.dim, h1, h2): 4,
        sym2_index(L.dim, h2, h2): -3,
    }
    got, span = projected_span(L.rs, hand_built_ideal(L, vec))
    assert got == 1 and span.vectors == [{0: 2, 1: 4, 2: -3}]


@pytest.mark.parametrize("family,rank", [("A", 1), ("A", 2), ("A", 3), ("D", 4)])
def test_projected_span_is_full(family, rank):
    L, Om, c = pipeline(family, rank)
    ideal = degree2_ideal(L.rs, Om, c)
    got, _ = projected_span(L.rs, ideal)
    assert got == rank * (rank + 1) // 2


@pytest.mark.parametrize("family,rank", [("A", 1), ("A", 2), ("A", 3), ("D", 4)])
def test_cartan_pair_generators_exact_values(family, rank):
    L, Om, c = pipeline(family, rank)
    gens = cartan_pair_generators(L, Om, c)
    n = rank
    assert len(gens) == n * (n + 1) // 2
    assert gens == [{sym2_index(n, i, j): -c} for i in range(n) for j in range(i, n)]


def test_cartan_pair_a1_value():
    L, Om, c = pipeline("A", 1)
    gens = cartan_pair_generators(L, Om, c)
    assert gens == [{0: -2}]


@pytest.mark.parametrize("family,rank", [("A", 2), ("D", 4)])
def test_pair_generators_span_equals_projected_span(family, rank):
    # Two independent routes to the same subspace of Sym^2 h.
    L, Om, c = pipeline(family, rank)
    ideal = degree2_ideal(L.rs, Om, c)
    _, via_ideal = projected_span(L.rs, ideal)
    n = sym2_dim(rank)
    gens = cartan_pair_generators(L, casimir_of(family, rank), c)
    via_pairs = image_basis(n, [dense(n, g) for g in gens])
    assert via_ideal.pivots == via_pairs.pivots
    assert via_ideal.vectors == via_pairs.vectors


@pytest.mark.parametrize("family,rank,expected", [
    ("A", 1, [1, 1, 0, 0, 0]),
    ("A", 2, [1, 2, 0, 0, 0]),
    ("D", 4, [1, 4, 0, 0, 0]),
])
def test_quotient_hilbert_values(family, rank, expected):
    L, Om, c = pipeline(family, rank)
    ideal = degree2_ideal(L.rs, Om, c)
    _, span = projected_span(L.rs, ideal)
    assert quotient_hilbert(L.rs, span, 4) == expected


def test_quotient_hilbert_stays_zero_in_higher_degrees():
    L, Om, c = pipeline("A", 2)
    ideal = degree2_ideal(L.rs, Om, c)
    _, span = projected_span(L.rs, ideal)
    assert quotient_hilbert(L.rs, span, 7) == [1, 2, 0, 0, 0, 0, 0, 0]


def test_quotient_hilbert_rejects_small_degree():
    L, Om, c = pipeline("A", 1)
    ideal = degree2_ideal(L.rs, Om, c)
    _, span = projected_span(L.rs, ideal)
    with pytest.raises(ValueError):
        quotient_hilbert(L.rs, span, 1)


def test_partial_span_gives_nonzero_quotient():
    # One quadric in two variables: the quotient of Sym[h] by (h1^2)
    # has dimensions 1, 2, 2, 2, ... in degrees 0, 1, 2, 3.
    h1h1, h2h2 = sym2_index(2, 0, 0), sym2_index(2, 1, 1)
    assert hilbert_from_quadrics(2, [{h1h1: 1}], 4) == [1, 2, 2, 2, 2]
    # (h1^2, h2^2): only h1 h2 survives in degree 2, and degree 3 is
    # the first that the ideal fills.
    squares = [{h1h1: 1}, {h2h2: 1}]
    assert hilbert_from_quadrics(2, squares, 8) == [1, 2, 1, 0, 0, 0, 0, 0, 0]


@pytest.mark.parametrize("family,rank", [("A", 2), ("A", 3), ("D", 4)])
def test_ideal_vanishes_on_highest_weight_line(family, rank):
    # As quadratic functions, ideal vectors kill the point dual to
    # E(theta), whose only nonzero coordinate pairs with F(theta).
    L, Om, c = pipeline(family, rank)
    ideal = degree2_ideal(L.rs, Om, c)
    f_theta = 2 * L.npos - 1
    k = sym2_index(L.dim, f_theta, f_theta)
    for vec in ideal.basis.vectors:
        assert vec.get(k, 0) == 0


def test_sl2_generator_matches_classical_quadric():
    # The matrix-model equation is h^2 + ef; after rescaling f by 4 its
    # coefficient vector on the (h^2, ef) plane must be proportional to
    # ours.
    L, Om, c = pipeline("A", 1)
    ideal = degree2_ideal(L.rs, Om, c)
    vec = ideal.basis.vectors[0]
    c_hh = vec.get(sym2_index(3, 2, 2), 0)
    c_ef = vec.get(sym2_index(3, 0, 1), 0)
    assert c_hh != 0 and c_ef != 0
    classical = {"hh": 1, "ef": 1}
    rescaled = {"hh": classical["hh"], "ef": 4 * classical["ef"]}
    assert c_hh * rescaled["ef"] == c_ef * rescaled["hh"]
    # And the restriction to the Cartan is a nonzero multiple of h^2.
    poly = cartan_restriction(L, vec)
    assert list(poly) == [0]
    assert poly[0] != 0


@pytest.mark.parametrize("family,rank", [("A", 2), ("A", 3), ("D", 4)])
def test_block_ranks_sum_to_the_dense_rank(family, rank):
    L, Om, c = pipeline(family, rank)
    blocks = weight_blocks(Om)
    assert sum(len(monos) for monos, _ in blocks) == sym2_dim(L.dim)
    block_ranks = 0
    for monos, data in blocks:
        s = len(monos)
        cols = [data[j * s : (j + 1) * s] for j in range(s)]
        for j in range(s):
            cols[j][j] -= c
        block_ranks += len(image_basis(s, cols))
    shifted = shifted_casimir(family, rank, c)
    assert block_ranks == dense_rank(to_rows(shifted))
    # The vectors of all blocks span the whole image, as the sparse route
    # finds it with no weight blocks.
    whole = sparse_image(shifted.nrows, columns(shifted))
    ideal = degree2_ideal(L.rs, Om, c)
    assert ideal.dim == block_ranks
    got = sparse_image(shifted.nrows, ideal.basis.vectors)
    assert got.pivots == whole.pivots
    assert got.vectors == whole.vectors


@pytest.mark.parametrize("family,rank", [("A", 2), ("A", 3), ("D", 4)])
def test_each_block_gives_as_many_ideal_vectors_as_its_dense_rank(family, rank):
    # Every vector lies in one weight block, and each shifted block
    # contributes exactly its rank, by the independent dense elimination.
    # The blocks come in the order release() hands them over, last key
    # first, so the zero-weight block, which holds the last monomial
    # H(rank)^2 and contributes its canonical basis, sits mid-list.
    L, Om, c = pipeline(family, rank)
    blocks = weight_blocks(Om)
    block_of = {m: b for b, (monos, _) in enumerate(blocks) for m in monos}
    ideal = degree2_ideal(L.rs, Om, c)
    by_block = defaultdict(list)
    order = []
    for vec in ideal.basis.vectors:
        (b,) = {block_of[m] for m in vec}
        by_block[b].append(vec)
        order.append(b)
    assert order == sorted(order, reverse=True)
    for b, (monos, data) in enumerate(blocks):
        s = len(monos)
        rows = [[data[j * s + i] - c * (i == j) for j in range(s)] for i in range(s)]
        assert len(by_block[b]) == dense_rank(rows), monos
    zero = block_of[sym2_dim(L.dim) - 1]
    monos, data = blocks[zero]
    s = len(monos)
    cols = [[data[j * s + i] - c * (i == j) for i in range(s)] for j in range(s)]
    canonical = [{monos[i]: x for i, x in v.items()} for v in image_basis(s, cols).vectors]
    assert by_block[zero] == canonical
    first = order.index(zero)
    assert 0 < first and first + len(canonical) < len(order)
    assert ideal.basis.vectors[first : first + len(canonical)] == canonical


@pytest.mark.parametrize("t", [*ade_types(8), SimpleType("A", 21)], ids=str)
def test_weight_blocks_partition_the_monomials_by_weight_tuple(t):
    # The integer key must group the monomials exactly as the weight
    # tuples do, each block in monomial order and square.  At rank 21
    # the keys of the weight sums pass 2^63.
    L = algebra_of(t.family, t.rank)
    wt = L.weights_fw
    by_tuple: dict = {}
    for k, (p, q) in enumerate(sym2_pairs(L.dim)):
        by_tuple.setdefault(tuple(map(add, wt[p], wt[q])), []).append(k)
    Om = SplitCasimir(L)
    blocks = weight_blocks(Om)
    assert sorted(monos for monos, _ in blocks) == sorted(by_tuple.values())
    for monos, data in blocks:
        assert len(data) == len(monos) ** 2
    # The offsets tile both arrays, with nothing left over.
    assert Om._mono_start[-1] == len(Om._monos) and Om._entry_start[-1] == len(Om._entries)


@pytest.mark.parametrize("family,rank", [("A", 3), ("D", 4), ("E", 6)])
def test_release_yields_square_blocks_last_key_first(family, rank):
    # release() empties the operator at once and hands the stored blocks
    # over in reverse.  Balanced digits order the keys as the weight
    # tuples read from their last coordinate, so those must descend.
    L = algebra_of(family, rank)
    Om = SplitCasimir(L)
    stored = weight_blocks(Om)
    released = Om.release()
    assert weight_blocks(Om) == [] and len(Om._monos) == len(Om._entries) == 0
    got = [(monos.tolist(), data.tolist()) for monos, data in released]
    assert got == stored[::-1]
    assert all(len(data) == len(monos) ** 2 for monos, data in got)
    wt = L.weights_fw
    pq = [sym2_unrank(L.dim, monos[0]) for monos, _ in got]
    weights = [tuple(map(add, wt[p], wt[q]))[::-1] for p, q in pq]
    assert all(a > b for a, b in zip(weights, weights[1:]))


def test_off_weight_entry_fires_the_block_check():
    bad = misdirect_first_ee_bracket(algebra_of("A", 2))
    with pytest.raises(InvariantViolation, match=(
        "^the bracket \\[x_0, x_1\\] has a term on x_6, whose weight is not the sum of theirs$"
    )):
        SplitCasimir(bad)


def test_dual_off_the_opposite_weight_fires_the_bracket_check():
    # F(alpha_2) given the weight of E(alpha_2): its products with any
    # root vector would leave their column's block.  The coroot
    # [E(alpha_2), F(alpha_2)] = H(2) has weight 0, so the bracket
    # check sees the two weights fail to cancel.
    L = algebra_of("A", 2)
    weights = list(L.weights_fw)
    weights[L.npos] = weights[0]
    bad = LieAlgebra(L.rs, L.brackets, tuple(weights), L.signed_roots)
    with pytest.raises(InvariantViolation, match=(
        f"^the bracket \\[x_0, x_{L.npos}\\] has a term on x_7, "
        "whose weight is not the sum of theirs$"
    )):
        SplitCasimir(bad)


@pytest.mark.parametrize("family,rank", [("A", 2), ("D", 4), ("E", 6)])
def test_operator_nnz_survives_the_release_of_its_blocks(family, rank):
    # nnz is counted once the blocks are filled, and degree2_ideal
    # empties the operator it eliminates; the count must read the same
    # afterwards.
    L, Om, c = pipeline(family, rank)
    nnz = sum(map(len, columns(Om)))
    assert Om.nnz == nnz
    degree2_ideal(L.rs, Om, c)
    assert weight_blocks(Om) == [] and len(Om._entries) == 0 and Om.nnz == nnz


def test_column_of_a_released_operator_says_the_blocks_are_gone():
    # degree2_ideal empties the operator's storage, and column() then
    # names what happened instead of failing on an empty array.
    L, Om, c = pipeline("A", 2)
    p = L.npos - 1
    assert Om.column(p, p) == {sym2_index(L.dim, p, p): 2}
    degree2_ideal(L.rs, Om, c)
    with pytest.raises(RuntimeError, match="^column\\(\\) needs the weight blocks, and this "
                       "operator has released them$"):
        Om.column(p, p)


def test_top_eigenvalue_of_a_released_operator_says_the_blocks_are_gone():
    # casimir_top_eigenvalue reads only dim and npos, which outlive the
    # blocks, so a used-up operator gets column()'s message.
    L, Om, c = pipeline("A", 2)
    degree2_ideal(L.rs, Om, c)
    with pytest.raises(RuntimeError, match="^column\\(\\) needs the weight blocks, and this "
                       "operator has released them$"):
        casimir_top_eigenvalue(Om)


def test_bracket_table_is_freed_before_the_ideal_stage():
    # The operator holds only its blocks, dim, npos and nnz, never its
    # Lie algebra, so the bracket table dies as soon as the caller lets
    # go of it, while the blocks wait for the ideal stage.
    rs = rs_of("A", 3)
    L = build_chevalley(rs)
    r = weakref.ref(L)
    Om = SplitCasimir(L)
    assert sorted(vars(Om)) == [
        "_entries", "_entry_start", "_mono_start", "_monos", "dim", "nnz", "npos",
    ]
    c = casimir_top_eigenvalue(Om)
    del L
    assert r() is None
    assert len(Om._entries) > 0 and Om.nnz > 0
    assert degree2_ideal(rs, Om, c).dim == 36


@pytest.mark.parametrize("family,rank", [("A", 3), ("D", 4), ("E", 6)])
def test_projected_span_equals_the_span_of_every_restriction(family, rank):
    L, Om, c = pipeline(family, rank)
    ideal = degree2_ideal(L.rs, Om, c)
    _, skipped = projected_span(L.rs, ideal)
    n = sym2_dim(rank)
    every = image_basis(n, [dense(n, cartan_restriction(L, vec)) for vec in ideal.basis.vectors])
    assert skipped.pivots == every.pivots
    assert skipped.vectors == every.vectors


@pytest.mark.parametrize("family,rank,got,expected", [
    ("A", 3, 46, 36),
    ("D", 5, 291, 265),
    ("E", 6, 693, 651),
])
def test_negated_structure_constant_fails_the_dimension_check(family, rank, got, expected):
    bad = scale_first_ee_constant(algebra_of(family, rank), -1)
    Om = SplitCasimir(bad)
    c = casimir_top_eigenvalue(Om)
    with pytest.raises(InvariantViolation, match=(
        f"^degree-2 ideal has dimension {got}, expected {expected}$"
    )):
        degree2_ideal(bad.rs, Om, c)


def _stops_before_the_verdict(L: LieAlgebra) -> bool:
    """Whether the casimir or the ideal stage raises InvariantViolation on L."""
    try:
        Om = SplitCasimir(L)
        degree2_ideal(L.rs, Om, casimir_top_eigenvalue(Om))
    except InvariantViolation:
        return True
    return False


@pytest.mark.parametrize("family,rank,factor", [
    (family, rank, factor) for family, rank in (("A", 3), ("D", 4)) for factor in (-1, 0, 2)
])
def test_every_stored_bracket_is_guarded(family, rank, factor):
    # Each stored bracket in turn, and so its derived reverse, multiplied
    # by factor; factor 0 deletes it, as the table holds no zero bracket.
    # Every such mutant must stop at the casimir or the ideal stage.
    L = algebra_of(family, rank)
    survivors = []
    for key, terms in L.brackets.items():
        brackets = dict(L.brackets)
        if factor:
            brackets[key] = tuple((k, factor * c) for k, c in terms)
        else:
            del brackets[key]
        if not _stops_before_the_verdict(LieAlgebra(L.rs, brackets, L.weights_fw, L.signed_roots)):
            survivors.append(divmod(key, L.dim))
    assert survivors == []


@pytest.mark.parametrize("family,rank", (
    [("A", r) for r in range(1, 7)] + [("D", r) for r in (4, 5, 6)] + [("E", 6)]
))
def test_restrict_to_cartan_keeps_exactly_the_cartan_monomials(family, rank):
    # The layout the index shift in projected_span rests on: the monomials
    # with both factors Cartan are exactly the indices from H(1)^2 on,
    # in the order of Sym^2 h, which is also the order of the exponent
    # tuples hilbert_from_quadrics reads the quadrics in.
    L = algebra_of(family, rank)
    base = 2 * L.npos
    start = _cartan_start(L.rs)
    exps = monomial_exponents(rank, 2)
    for k, (p, q) in enumerate(sym2_pairs(L.dim)):
        assert (k >= start) == (p >= base and q >= base), (k, p, q)
        if k >= start:
            assert k - start == sym2_index(rank, p - base, q - base)
            exp = [0] * rank
            exp[p - base] += 1
            exp[q - base] += 1
            assert exps[k - start] == tuple(exp)
