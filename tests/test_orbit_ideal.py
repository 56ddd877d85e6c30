"""Degree-2 ideal, Cartan restriction and quotient Hilbert functions."""

import weakref
from collections import Counter, defaultdict
from itertools import combinations_with_replacement
from operator import add
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

import minorbit.orbit_ideal
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
from minorbit.linalgx import image_basis, pivot_rows
from minorbit.orbit_ideal import (
    IdealDegree2,
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
    chevalley_images,
    cartan_restriction,
    casimir_of,
    columns,
    dense,
    dense_rank,
    misdirect_first_ee_bracket,
    negate_first_ee_constant_and_its_mirror,
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


@st.composite
def quadric_systems(draw):
    """n <= 3 variables, up to 4 integer quadrics over sym2_index order, some empty, and a top degree."""
    n = draw(st.integers(1, 3))
    coefficient = st.sampled_from([1, -1, 2, -3, 4])
    quadric = st.dictionaries(st.integers(0, sym2_dim(n) - 1), coefficient, max_size=4)
    return n, draw(st.lists(quadric, max_size=4)), draw(st.integers(2, 5))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(quadric_systems())
def test_hilbert_from_quadrics_matches_the_dense_rank_of_every_product(case):
    # Reference: in every degree d, the dense rank of all products q m over
    # every degree d-2 monomial m, with no early stop.  A monomial is the
    # sorted tuple of its variables; a quadric's k-th coordinate is the k-th
    # pair i <= j in row-major order.
    n, quadrics, max_degree = case
    pairs = list(combinations_with_replacement(range(n), 2))
    expected = [1, n]
    for d in range(2, max_degree + 1):
        column = {m: i for i, m in enumerate(combinations_with_replacement(range(n), d))}
        rows = []
        for q in quadrics:
            for m in combinations_with_replacement(range(n), d - 2):
                row = [0] * len(column)
                for k, c in q.items():
                    row[column[tuple(sorted(m + pairs[k]))]] = c
                rows.append(row)
        expected.append(len(column) - dense_rank(rows))
    assert hilbert_from_quadrics(n, quadrics, max_degree) == expected


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
    # The blocks come in the order release() hands them over: first the
    # zero-weight block, stored first, which holds the last monomial
    # H(rank)^2 and contributes its canonical basis; then each pair from
    # the last to the first, the block of key k (stored at an even place)
    # and then its partner of key -k (stored just before it), whose
    # vectors are the block's own, relabelled by the Chevalley involution.
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
    assert order == sorted(order, key=lambda b: (b > 0, -((b + 1) // 2), b % 2))
    for b, (monos, data) in enumerate(blocks):
        s = len(monos)
        rows = [[data[j * s + i] - c * (i == j) for j in range(s)] for i in range(s)]
        assert len(by_block[b]) == dense_rank(rows), monos
    assert block_of[sym2_dim(L.dim) - 1] == 0
    monos, data = blocks[0]
    s = len(monos)
    cols = [[data[j * s + i] - c * (i == j) for i in range(s)] for j in range(s)]
    canonical = [{monos[i]: x for i, x in v.items()} for v in image_basis(s, cols).vectors]
    assert ideal.basis.vectors[: len(canonical)] == canonical
    image = chevalley_images(L)
    for b in range(2, len(blocks), 2):
        relabelled = [{image[m]: x for m, x in v.items()} for v in by_block[b]]
        assert by_block[b - 1] == relabelled, blocks[b][0]


@pytest.mark.parametrize("t", [*ade_types(8), SimpleType("A", 21)], ids=str)
def test_weight_blocks_partition_the_monomials_by_weight_tuple(t):
    # The integer key must group the monomials exactly as the weight
    # tuples do, each block square.  At rank 21 the keys of the weight
    # sums pass 2^63.  The zero-weight block is stored first, then each
    # pair of opposite weights, the block of key k, in monomial order,
    # just after its partner of key -k.  Balanced digits order the keys
    # as the weight tuples read from their last coordinate, so those of
    # the blocks of key k must ascend, from above the zero weight.
    L = algebra_of(t.family, t.rank)
    wt = L.weights_fw
    by_tuple: dict = {}
    for k, (p, q) in enumerate(sym2_pairs(L.dim)):
        by_tuple.setdefault(tuple(map(add, wt[p], wt[q])), []).append(k)
    Om = casimir_of(t.family, t.rank)
    blocks = weight_blocks(Om)
    assert sorted(sorted(monos) for monos, _ in blocks) == sorted(by_tuple.values())
    for monos, data in blocks:
        assert len(data) == len(monos) ** 2
    weights = []
    for monos, _ in blocks:
        p, q = sym2_unrank(L.dim, monos[0])
        weights.append(tuple(map(add, wt[p], wt[q]))[::-1])
    zero = (0,) * t.rank
    assert weights[0] == zero and len(blocks) % 2 == 1
    for partner, own in zip(weights[1::2], weights[2::2]):
        assert partner == tuple(-x for x in own)
    assert all(a < b for a, b in zip([zero] + weights[2::2], weights[2::2]))
    assert all(monos == sorted(monos) for monos, _ in blocks[::2])
    # The blocks tile both arrays, with nothing left over.
    assert sum(len(monos) for monos, _ in blocks) == len(Om._monos)
    assert sum(len(data) for _, data in blocks) == len(Om._entries)


@pytest.mark.parametrize("t", [*ade_types(8), SimpleType("A", 21)], ids=str)
def test_each_partner_is_the_chevalley_image_of_its_block(t):
    # The positive control of the partner check: on a correct table the
    # operator commutes with the Chevalley involution, so each partner's
    # monomials are the images of its block's, in the same order, and
    # the two int8 runs release() compares are equal byte for byte.
    L = algebra_of(t.family, t.rank)
    image = chevalley_images(L)
    blocks = weight_blocks(casimir_of(t.family, t.rank))
    assert len(blocks) > 1
    for (partner, partner_data), (own, data) in zip(blocks[1::2], blocks[2::2]):
        assert partner == [image[k] for k in own]
        assert partner_data == data, own


@pytest.mark.parametrize("family,rank", [("A", 3), ("D", 4), ("E", 6)])
def test_release_yields_square_blocks_last_key_first(family, rank):
    # release() empties the operator at once.  It hands the zero-weight
    # block over first, alone, then the stored pairs from the last key to
    # the first, each as the entries of the block of key k with two
    # monomial lists, the block's own and its partner's.
    L = algebra_of(family, rank)
    Om = SplitCasimir(L)
    stored = weight_blocks(Om)
    released = Om.release()
    assert weight_blocks(Om) == [] and len(Om._monos) == len(Om._entries) == 0
    got = [([monos.tolist() for monos in lists], data.tolist()) for lists, data in released]
    pairs = list(zip(stored[1::2], stored[2::2]))[::-1]
    assert got == [([stored[0][0]], stored[0][1])] + [
        ([own, partner], data) for (partner, _), (own, data) in pairs
    ]
    assert all(len(data) == len(lists[0]) ** 2 for lists, data in got)


def _shifted_columns(data, c):
    """The columns of a stored block's entries with c subtracted on the diagonal, as int lists."""
    s = int(len(data) ** 0.5)
    return [[data[j * s + i] - c * (i == j) for i in range(s)] for j in range(s)]


def _counted_pivot_rows(monkeypatch):
    """Replace the ideal stage's pivot_rows by one that records the columns of every call."""
    calls = []

    def counted(nrows, cols):
        calls.append(cols)
        return pivot_rows(nrows, cols)

    monkeypatch.setattr(minorbit.orbit_ideal, "pivot_rows", counted)
    return calls


@pytest.mark.parametrize("family,rank", [("A", 5), ("D", 5), ("E", 6)])
def test_every_pair_emits_the_fresh_pivot_rows_of_its_own_entries(family, rank):
    # Pairs whose int8 runs are equal byte for byte share one elimination,
    # so the vectors of each pair must still be exactly those a fresh
    # pivot_rows of its own shifted entries gives, over its own two
    # monomial lists, in the order release() hands the pairs over.
    L, Om, c = pipeline(family, rank)
    blocks = weight_blocks(Om)
    assert max(Counter(tuple(data) for _, data in blocks[2::2]).values()) > 1
    monos, data = blocks[0]
    expected = [
        {monos[i]: x for i, x in v.items()}
        for v in image_basis(len(monos), _shifted_columns(data, c)).vectors
    ]
    for (partner, _), (own, data) in reversed(list(zip(blocks[1::2], blocks[2::2]))):
        rows = pivot_rows(len(own), _shifted_columns(data, c))
        for monos in (own, partner):
            expected += [{m: x for m, x in zip(monos, row) if x} for row in rows]
    assert degree2_ideal(L.rs, Om, c).basis.vectors == expected


def test_each_distinct_run_is_eliminated_at_most_twice(monkeypatch):
    # A run is eliminated when it is first met and again when it recurs,
    # where its rows are kept for every later pair with the same bytes:
    # E6's 567 pairs hold 45 distinct runs, 9 of which recur, so 54
    # eliminations replace 567.  One of the runs is the 1 x 1 block [2],
    # which the shift leaves zero, met 396 times.
    L, Om, c = pipeline("E", 6)
    runs = Counter(tuple(data) for _, data in weight_blocks(Om)[2::2])
    calls = _counted_pivot_rows(monkeypatch)
    degree2_ideal(L.rs, Om, c)
    recurring = sum(n > 1 for n in runs.values())
    assert (sum(runs.values()), len(runs), recurring) == (567, 45, 9)
    assert len(calls) == len(runs) + recurring


def test_pairs_with_equal_runs_emit_rows_over_their_own_monomials():
    # Two pairs of E6 with byte-identical entries but different weights:
    # the rows they share must land on each pair's own monomials.
    L, Om, c = pipeline("E", 6)
    blocks = weight_blocks(Om)
    runs = Counter(tuple(data) for _, data in blocks[2::2])
    first = next(
        b for b in range(2, len(blocks), 2)
        if len(blocks[b][0]) > 1 and runs[tuple(blocks[b][1])] > 1
    )
    data = blocks[first][1]
    second = next(b for b in range(first + 2, len(blocks), 2) if blocks[b][1] == data)
    assert blocks[first][0] != blocks[second][0]
    block_of = {m: b for b, (monos, _) in enumerate(blocks) for m in monos}
    by_block = defaultdict(list)
    for vec in degree2_ideal(L.rs, Om, c).basis.vectors:
        (b,) = {block_of[m] for m in vec}
        by_block[b].append(vec)
    rows = pivot_rows(len(blocks[first][0]), _shifted_columns(data, c))
    assert rows
    for b in (first, first - 1, second, second - 1):
        monos = blocks[b][0]
        assert by_block[b] == [{m: x for m, x in zip(monos, row) if x} for row in rows]


@pytest.mark.parametrize("family,rank,got,expected", [
    ("A", 3, 38, 36),
    ("D", 4, 108, 106),
    ("E", 6, 653, 651),
])
def test_a_run_one_byte_off_is_eliminated_afresh(family, rank, got, expected, monkeypatch):
    # Negative control of the reuse: one entry of a recurring pair raised
    # by 1, in the block and in its partner alike, so the partner check
    # passes.  The changed pair must be eliminated in its own right, as
    # must the pairs it used to equal: its rank goes up by one, and the
    # dimension check sees the two extra vectors, where rows reused from
    # the unchanged run would have hidden the change.
    L, Om, c = pipeline(family, rank)
    blocks = weight_blocks(Om)
    runs = Counter(tuple(data) for _, data in blocks[2::2])
    b = next(
        b for b in range(2, len(blocks), 2)
        if len(blocks[b][0]) > 1 and runs[tuple(blocks[b][1])] > 1
    )
    changed = list(blocks[b][1])
    changed[0] += 1
    assert tuple(changed) not in runs
    for a in (b, b - 1):
        Om._entries[sum(len(data) for _, data in blocks[:a])] += 1
    calls = _counted_pivot_rows(monkeypatch)
    with pytest.raises(InvariantViolation, match=(
        f"^degree-2 ideal has dimension {got}, expected {expected}$"
    )):
        degree2_ideal(L.rs, Om, c)
    assert _shifted_columns(changed, c) in calls
    assert _shifted_columns(blocks[b][1], c) in calls


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


def test_weight_off_the_chevalley_image_fires_the_opposite_weight_check():
    # A1 without its coroot bracket [E, F], and with F given the weight of
    # E.  The brackets left, [E, H] and [F, H], have consistent weights,
    # so the bracket check passes; only the check that the involution
    # negates every weight, which the block pairing rests on, sees it.
    L = algebra_of("A", 1)
    brackets = {k: v for k, v in L.brackets.items() if k != 0 * L.dim + 1}
    weights = (L.weights_fw[0],) * 2 + L.weights_fw[2:]
    with pytest.raises(InvariantViolation, match=(
        "^x_0 and its Chevalley image x_1 do not have opposite weights$"
    )):
        SplitCasimir(LieAlgebra(L.rs, brackets, weights, L.signed_roots))


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
        "_entries", "_mono_start", "_monos", "dim", "nnz", "npos",
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


@pytest.mark.parametrize("family,rank,column,image", [
    ("A", 3, "x_0 x_3", "x_6 x_9"),
    ("D", 5, "x_0 x_5", "x_20 x_25"),
    ("E", 6, "x_0 x_6", "x_36 x_42"),
], ids=["A3", "D5", "E6"])
def test_negated_structure_constant_fails_the_partner_check(family, rank, column, image):
    # One E-E constant negated, and so its reverse, but not its mirror
    # [F(a), F(b)]: the Chevalley involution no longer preserves the
    # table, and a block stops matching its partner.  The check names a
    # column of each, before any pair is eliminated.
    bad = scale_first_ee_constant(algebra_of(family, rank), -1)
    Om = SplitCasimir(bad)
    c = casimir_top_eigenvalue(Om)
    with pytest.raises(InvariantViolation, match=(
        f"^column {column} differs from column {image}, its Chevalley image$"
    )):
        degree2_ideal(bad.rs, Om, c)


@pytest.mark.parametrize("family,rank,got,expected", [
    ("A", 3, 54, 36),
    ("D", 5, 315, 265),
    ("E", 6, 733, 651),
])
def test_negated_constant_and_its_mirror_fail_the_dimension_check(family, rank, got, expected):
    # Negated together, the constant and its mirror keep the table
    # equivariant, so every block matches its partner and the partner
    # check passes; the ideal dimension must still come out wrong.
    bad = negate_first_ee_constant_and_its_mirror(algebra_of(family, rank))
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
    # with both factors Cartan are exactly the last rank(rank+1)/2, in the
    # order of Sym^2 h, which is also the order of the exponent tuples
    # hilbert_from_quadrics reads the quadrics in.
    L = algebra_of(family, rank)
    base = 2 * L.npos
    start = sym2_dim(L.dim) - sym2_dim(rank)
    assert start == sym2_index(L.dim, base, base)
    exps = monomial_exponents(rank, 2)
    for k, (p, q) in enumerate(sym2_pairs(L.dim)):
        assert (k >= start) == (p >= base and q >= base), (k, p, q)
        if k >= start:
            assert k - start == sym2_index(rank, p - base, q - base)
            exp = [0] * rank
            exp[p - base] += 1
            exp[q - base] += 1
            assert exps[k - start] == tuple(exp)
