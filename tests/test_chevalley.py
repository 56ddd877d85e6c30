"""Structure constants, invariant form and the split Casimir."""

import random
from itertools import combinations, combinations_with_replacement
from operator import add

import pytest

from minorbit.chevalley import (
    LieAlgebra,
    SplitCasimir,
    _weight_keys,
    casimir_top_eigenvalue,
    sym2_dim,
    sym2_index,
    sym2_pairs,
)
from minorbit.cli import MAX_RANK
from minorbit.rootsys import InvariantViolation, root_to_weight

from helpers import (
    SparseMatrix,
    adjoint_matrix,
    algebra_of,
    all_pairs_column,
    casimir_of,
    columns,
    from_entries,
    invariant_form,
    mul,
    rs_of,
    scale_first_ee_constant,
    shift_theta_pairing,
    shifted_casimir,
    sym2_unrank,
    transpose,
)

SMALL_TYPES = [("A", 1), ("A", 2), ("A", 3), ("D", 4)]
ALL_TYPES = [
    *(("A", r) for r in range(1, 9)),
    *(("D", r) for r in range(4, 9)),
    *(("E", r) for r in range(6, 9)),
]


def jacobi_residual(L, i, j, k):
    acc = {}
    for x, y, z in ((i, j, k), (j, k, i), (k, i, j)):
        for w, c in L.bracket(x, y):
            for u, s in L.bracket(w, z):
                acc[u] = acc.get(u, 0) + c * s
    return {u: v for u, v in acc.items() if v}


def form_invariance_residual(L, form, x, y, z):
    # form([x, y], z) + form(y, [x, z])
    total = 0
    for w, c in L.bracket(x, y):
        total += c * form(w, z)
    for w, c in L.bracket(x, z):
        total += c * form(y, w)
    return total


def test_a1_sl2_relations():
    L = algebra_of("A", 1)
    e, f, h = 0, 1, 2
    assert L.bracket(h, e) == ((e, 2),)
    assert L.bracket(h, f) == ((f, -2),)
    assert L.bracket(e, f) == ((h, 1),)


def test_a2_root_vectors_bracket_nonvanishing():
    L = algebra_of("A", 2)
    rs = L.rs
    top = rs.positive_roots.index((1, 1))
    simple = [rs.positive_roots.index((1, 0)), rs.positive_roots.index((0, 1))]
    terms = L.bracket(simple[0], simple[1])
    assert len(terms) == 1
    idx, coeff = terms[0]
    assert idx == top
    assert coeff in (1, -1)


@pytest.mark.parametrize("family,rank", SMALL_TYPES)
def test_antisymmetry_exhaustive(family, rank):
    L = algebra_of(family, rank)
    for i in range(L.dim):
        assert L.bracket(i, i) == ()
        for j in range(L.dim):
            forward = dict(L.bracket(i, j))
            backward = dict(L.bracket(j, i))
            assert forward == {k: -c for k, c in backward.items()}


@pytest.mark.parametrize("family,rank", SMALL_TYPES)
def test_jacobi_exhaustive(family, rank):
    L = algebra_of(family, rank)
    for i, j, k in combinations(range(L.dim), 3):
        assert jacobi_residual(L, i, j, k) == {}


@pytest.mark.parametrize("family,rank", SMALL_TYPES)
def test_form_invariance_exhaustive(family, rank):
    L = algebra_of(family, rank)
    form = invariant_form(L)
    nn = L.dim
    for x in range(nn):
        for y in range(nn):
            for z in range(y, nn):
                assert form_invariance_residual(L, form, x, y, z) == 0


@pytest.mark.parametrize("family,rank", SMALL_TYPES + [("D", 5), ("E", 6)])
def test_form_matches_root_data(family, rank):
    # The reference form pairs only opposite weights, and it gives every
    # coroot [E(a), F(a)] of the bracket table squared length 2, the
    # normalization behind the Casimir scalar c = 2.
    L = algebra_of(family, rank)
    form = invariant_form(L)
    wt = L.weights_fw
    for x in range(L.dim):
        for y in range(L.dim):
            if form(x, y):
                assert all(a == -b for a, b in zip(wt[x], wt[y])), (x, y)
    m = L.npos
    for a in range(m):
        coroot = L.bracket(a, m + a)
        assert sum(c * d * form(i, j) for i, c in coroot for j, d in coroot) == 2


@pytest.mark.parametrize("family,rank", [("A", 3), ("D", 4), ("E", 6)])
def test_structure_constant_sizes(family, rank):
    # Root-root constants are signs; Cartan eigenvalues lie in -2..2;
    # the coroot coordinates of [E(a), F(a)] are the marks of a.
    L = algebra_of(family, rank)
    m = L.npos
    for ij, terms in L.brackets.items():
        i, j = divmod(ij, L.dim)
        for k, c in terms:
            assert isinstance(c, int)
            both_root = i < 2 * m and j < 2 * m
            if both_root and k < 2 * m and not (i % m == j % m):
                assert c in (1, -1)
            if i >= 2 * m or j >= 2 * m:
                assert abs(c) <= 2


@pytest.mark.parametrize("family,rank", ALL_TYPES)
def test_root_brackets_follow_the_documented_cocycle(family, rank):
    # [x_a, x_b] for x_a = sigma_a e_(s_a): the coroot of s_a when
    # s_a + s_b = 0, sigma_a sigma_b sigma_k (-1)^(s_a^T B s_b) x_k when
    # s_a + s_b = s_k, else nothing.  B has ones on the diagonal and at
    # (i, j) for each Dynkin edge with i > j.  build_chevalley finds
    # s_a + s_b through integer keys; here it is tuple addition, on
    # every pair of signed roots.
    L = algebra_of(family, rank)
    c = L.rs.cartan_matrix
    m = L.npos
    B = [[int(i == j or (i > j and c[i][j] != 0)) for j in range(rank)] for i in range(rank)]
    signed = list(L.rs.positive_roots) + [tuple(-x for x in u) for u in L.rs.positive_roots]
    where = {s: k for k, s in enumerate(signed)}
    sigma = [1] * m + [-1] * m
    for a, sa in enumerate(signed):
        for b, sb in enumerate(signed):
            total = tuple(x + y for x, y in zip(sa, sb))
            k = where.get(total)
            if not any(total):
                expected = tuple((2 * m + i, x) for i, x in enumerate(sa) if x)
            elif k is not None:
                power = sum(sa[i] * B[i][j] * sb[j] for i in range(rank) for j in range(rank))
                expected = ((k, sigma[a] * sigma[b] * sigma[k] * (-1) ** power),)
            else:
                expected = ()
            assert L.bracket(a, b) == expected, (a, b)


def weight_key_faults(weights, keys) -> list:
    """The pairs (p, q), p <= q, whose summed key does not stand for their summed weight.

    keys[p] + keys[q] must name one summed weight only, and where that
    sum is itself one of the weights, equal its key.
    """
    key_of = dict(zip(weights, keys))
    named: dict = {}
    faults = []
    for p, q in combinations_with_replacement(range(len(weights)), 2):
        k = keys[p] + keys[q]
        w = tuple(map(add, weights[p], weights[q]))
        if named.setdefault(k, w) != w or key_of.get(w, k) != k:
            faults.append((p, q))
    return faults


@pytest.mark.parametrize("family,rank", [*ALL_TYPES, ("A", 21)])
def test_weight_keys_add_and_tell_summed_weights_apart(family, rank):
    # build_chevalley finds s_a + s_b by key[a] + key[b], and matrix()
    # groups and checks the monomials x_p x_q by key[p] + key[q]: both
    # need the key of a sum of two weights to be the sum of their keys
    # and to determine that sum.  A21's keys pass 2^63 and stay exact.
    weights = algebra_of(family, rank).weights_fw
    keys = _weight_keys(weights)
    assert all(type(k) is int for k in keys)
    assert weight_key_faults(weights, keys) == []
    if rank == 21:
        assert max(map(abs, keys)) > 2**63


@pytest.mark.parametrize("family,rank,base", [("A", 3, 6), ("E", 8, 4)])
def test_weight_key_check_fires_on_too_small_a_base(family, rank, base):
    # Negative control: balanced digits in a base too small for the sums
    # of two weights make two different sums share a key.
    weights = algebra_of(family, rank).weights_fw
    keys = [sum(x * base**i for i, x in enumerate(w)) for w in weights]
    assert weight_key_faults(weights, keys)


@pytest.mark.parametrize("family,rank", ALL_TYPES)
def test_stored_brackets_are_antisymmetric(family, rank):
    # The table keys [x_i, x_j] by i * dim + j with i < j, stores only
    # nonzero brackets, and bracket(j, i) is the negation.  It holds one
    # key per nonzero pair, counted from the root data: the pairs of
    # signed roots that sum to a root, the coroots [E(a), F(a)], and one
    # [x_a, H(i)] per nonzero weight coordinate of a root vector.
    L = algebra_of(family, rank)
    for ij, terms in L.brackets.items():
        i, j = divmod(ij, L.dim)
        assert terms and 0 <= i < j < L.dim and L.bracket(i, j) is terms
        assert L.bracket(j, i) == tuple((k, -c) for k, c in terms), (i, j)
    signed = L.signed_roots[: 2 * L.npos]
    roots = set(signed)
    sums = sum(tuple(map(add, u, v)) in roots for u, v in combinations(signed, 2))
    cartan = sum(x != 0 for w in L.weights_fw for x in w)
    assert len(L.brackets) == sums + L.npos + cartan


@pytest.mark.parametrize("family,rank", [("A", 3), ("D", 5), ("E", 8)])
def test_equal_bracket_terms_are_one_object(family, rank):
    L = algebra_of(family, rank)
    first: dict = {}
    for terms in L.brackets.values():
        assert first.setdefault(terms, terms) is terms
    assert len(first) < len(L.brackets)


def test_adjoint_matrix_a1():
    L = algebra_of("A", 1)
    h = 2
    ad_h = adjoint_matrix(L, h)
    assert (ad_h.nrows, columns(ad_h)) == (3, ({0: 2}, {1: -2}, {}))
    ad_e = adjoint_matrix(L, 0)
    assert ad_e.column(1) == {h: 1}


@pytest.mark.parametrize("family,rank", SMALL_TYPES)
def test_trace_form_is_dual_coxeter_multiple(family, rank):
    # tr(ad x ad y) = 2 h^vee form(x, y), with h^vee = 1 + height of the
    # highest root; checked on every basis pair.
    L = algebra_of(family, rank)
    form = invariant_form(L)
    hvee = 1 + sum(L.rs.positive_roots[-1])
    ads = [columns(adjoint_matrix(L, i)) for i in range(L.dim)]
    for x in range(L.dim):
        ax = ads[x]
        for y in range(x, L.dim):
            ay = ads[y]
            tr = 0
            for c, col in enumerate(ax):
                for r, v in col.items():
                    w = ay[r].get(c, 0)
                    if w:
                        tr += v * w
            assert tr == 2 * hvee * form(x, y)


def test_sym2_indexing_roundtrip():
    n = 7
    pairs = list(sym2_pairs(n))
    assert len(pairs) == sym2_dim(n)
    for flat, (p, q) in enumerate(pairs):
        assert sym2_index(n, p, q) == flat
        assert sym2_index(n, q, p) == flat
        assert sym2_unrank(n, flat) == (p, q)


@pytest.mark.parametrize("family,rank,reads", [("A", 3, 90), ("D", 4, 288), ("E", 6, 1764)])
def test_casimir_reads_each_bracket_once_per_root_vector_end(family, rank, reads, monkeypatch):
    # The assembly reads [x, x_p] only where the table stores a key for x
    # and p, x a root vector: once for each root-vector end of each key,
    # not once for every root vector and every position.
    L = algebra_of(family, rank)
    ends = sum((a < 2 * L.npos) + (b < 2 * L.npos) for a, b in (divmod(k, L.dim) for k in L.brackets))
    assert ends == reads < 2 * L.npos * L.dim
    calls = []
    bracket = LieAlgebra.bracket
    monkeypatch.setattr(LieAlgebra, "bracket", lambda self, i, j: calls.append(i) or bracket(self, i, j))
    SplitCasimir(L)
    assert len(calls) == reads


@pytest.mark.parametrize("n,k", [(3, -1), (3, 6), (3, 7), (1, 1), (0, 0)])
def test_sym2_unrank_rejects_an_index_outside_the_square(n, k):
    # sym2_dim(3) is 6: flat indices run 0..5.  Past the end the walk
    # over the rows would never stop, and below 0 it would return (0, -1).
    with pytest.raises(ValueError, match=f"^flat index {k} out of range for Sym\\^2 of dimension {n}$"):
        sym2_unrank(n, k)


def test_casimir_a1_columns():
    L = algebra_of("A", 1)
    Om = casimir_of("A", 1)
    e, f, h = 0, 1, 2
    assert Om.column(h, h) == {sym2_index(3, e, f): -8}
    assert Om.column(e, e) == {sym2_index(3, e, e): 2}
    col_ef = Om.column(e, f)
    assert col_ef == {sym2_index(3, e, f): -2, sym2_index(3, h, h): -1}


@pytest.mark.parametrize("family,rank", [("A", 3), ("D", 4), ("E", 6)])
def test_column_matches_the_all_pairs_sum(family, rank):
    L = algebra_of(family, rank)
    Om = casimir_of(family, rank)
    for p, q in sym2_pairs(L.dim):
        assert Om.column(p, q) == all_pairs_column(L, p, q), (p, q)


@pytest.mark.parametrize("family,rank", [("A", 2), ("D", 4), ("E", 6)])
def test_matrix_packs_every_column_in_monomial_order(family, rank):
    # The blocks hold every image the all-pairs sum gives, column by
    # column, and assembling again rebuilds the same operator.
    L = algebra_of(family, rank)
    Om = SplitCasimir(L)
    cols = tuple(all_pairs_column(L, p, q) for p, q in sym2_pairs(L.dim))
    assert columns(Om) == cols
    assert Om.nnz == sum(map(len, cols))
    assert Om.matrix(L) is Om
    assert columns(Om) == cols and Om.nnz == sum(map(len, cols))
    # No column keeps an entry whose sum cancelled to zero.
    assert not any(0 in col.values() for col in columns(Om))


@pytest.mark.parametrize("family,rank", [("A", 2), ("A", 3)])
def test_casimir_well_defined_on_monomials(family, rank):
    # The image of x_p x_q must not depend on the order of the factors.
    # column() assembles every pair from its lower index, so the
    # reference sums the dual pairs over the factors taken the other way.
    L = algebra_of(family, rank)
    Om = casimir_of(family, rank)
    rng = random.Random(7)
    for _ in range(25):
        p = rng.randrange(L.dim)
        q = rng.randrange(L.dim)
        assert Om.column(p, q) == all_pairs_column(L, q, p), (p, q)


def _sym2_ad(L, x):
    """Derivation action of ad(x) on the monomial basis, built independently."""
    nn = L.dim
    cols = []
    for p, q in sym2_pairs(nn):
        acc = {}
        for i, c in L.bracket(x, p):
            k = sym2_index(nn, i, q)
            acc[k] = acc.get(k, 0) + c
        for j, c in L.bracket(x, q):
            k = sym2_index(nn, p, j)
            acc[k] = acc.get(k, 0) + c
        cols.append({k: v for k, v in acc.items() if v})
    return SparseMatrix.from_columns(sym2_dim(nn), cols)


@pytest.mark.parametrize("family,rank", [("A", 2), ("D", 4)])
def test_casimir_commutes_with_diagonal_adjoint_action(family, rank):
    L = algebra_of(family, rank)
    Om = shifted_casimir(family, rank, 0)
    rng = random.Random(11)
    sample = [rng.randrange(L.dim) for _ in range(10)]
    for x in sample:
        d = _sym2_ad(L, x)
        assert columns(mul(Om, d)) == columns(mul(d, Om))


@pytest.mark.parametrize("family,rank", [("A", 1), ("A", 2)])
def test_casimir_self_adjoint_for_induced_form(family, rank):
    L = algebra_of(family, rank)
    Om = shifted_casimir(family, rank, 0)
    form = invariant_form(L)
    nn = L.dim
    pairs = list(sym2_pairs(nn))
    gram = from_entries(sym2_dim(nn), sym2_dim(nn), {
        (a, b): form(p, r) * form(q, s) + form(p, s) * form(q, r)
        for a, (p, q) in enumerate(pairs)
        for b, (r, s) in enumerate(pairs)
    })
    lhs = mul(gram, Om)
    assert columns(lhs) == columns(transpose(lhs))


@pytest.mark.parametrize("family,rank", [("A", 1), ("A", 2), ("D", 4), ("E", 6)])
def test_casimir_top_eigenvalue_is_two(family, rank):
    L = algebra_of(family, rank)
    c = casimir_top_eigenvalue(casimir_of(family, rank))
    assert type(c) is int and c == 2
    theta = L.rs.positive_roots[-1]
    assert c == sum(a * b for a, b in zip(root_to_weight(L.rs, theta), theta))
    cols = columns(casimir_of(family, rank))
    assert all(type(v) is int for col in cols for v in col.values())


@pytest.mark.parametrize("family,rank,lo,hi", [
    ("A", 1, -8, 2),
    *(("A", r, -8, 4) for r in range(2, 9)),
    *(("D", r, -8, 4) for r in range(4, 9)),
    ("E", 6, -12, 6),
    ("E", 7, -24, 8),
    ("E", 8, -60, 12),
])
def test_entry_range_of_every_type_up_to_rank_eight(family, rank, lo, hi):
    # Block data is int8; a change that moves entries toward
    # [-128, 127] shows here first.
    entries = casimir_of(family, rank)._entries
    assert (min(entries), max(entries)) == (lo, hi)


@pytest.mark.parametrize("corrupt,message", [
    (lambda: scale_first_ee_constant(algebra_of("A", 3), 64), "column x_0 x_13 has the entry 129"),
    (lambda: shift_theta_pairing(algebra_of("A", 2), -66), "column x_1 x_2 has the entry -130"),
], ids=["scaled-ee-constant", "shifted-theta-pairing"])
def test_entry_outside_int8_raises_instead_of_wrapping(corrupt, message):
    # Block data is int8: an entry that does not fit must stop the
    # assembly, not wrap around to a wrong operator.
    with pytest.raises(InvariantViolation, match=(
        rf"^{message}, outside the int8 range \[-128, 127\]$"
    )):
        SplitCasimir(corrupt())


def test_entries_at_the_int8_edges_fit():
    # One step short of the corruptions above, the extreme entry is 127 or -128.
    assert max(SplitCasimir(scale_first_ee_constant(algebra_of("A", 3), 63))._entries) == 127
    assert min(SplitCasimir(shift_theta_pairing(algebra_of("A", 2), -65))._entries) == -128


@pytest.mark.parametrize("family", ["A", "D"])
def test_monomial_indices_of_the_largest_types_fit_int32(family):
    # _monos and _mono_start hold monomial indices and block offsets,
    # at most sym2_dim(dim g), in int32; D24 is the largest type that
    # verify takes.
    dim = rs_of(family, MAX_RANK).dim_g
    assert sym2_dim(dim) < 2**31
    Om = casimir_of("A", 2)
    assert Om._monos.typecode == Om._mono_start.typecode == "i"
    assert Om._monos.itemsize == 4


@pytest.mark.parametrize("family,rank", [("A", 2), ("D", 4), ("E", 6)])
def test_top_eigenvalue_check_fires_on_wrong_weight_pairing(family, rank):
    with pytest.raises(InvariantViolation, match=(
        r"^Casimir scalar 3 on the highest-weight square differs from \(theta, theta\) = 2$"
    )):
        casimir_top_eigenvalue(SplitCasimir(shift_theta_pairing(algebra_of(family, rank), 1)))


def test_zero_on_the_highest_weight_square_fires_the_scalar_check():
    # A1 with the signed root of E(theta) lowered by 1 to 0: the weight
    # pairing (theta, theta) drops to 0, no bracket product reaches
    # E(theta)^2, and its column holds no entry at all.
    L = algebra_of("A", 1)
    bad = LieAlgebra(L.rs, L.brackets, L.weights_fw, ((0,),) + L.signed_roots[1:])
    with pytest.raises(InvariantViolation, match=(
        r"^Casimir scalar 0 on the highest-weight square differs from \(theta, theta\) = 2$"
    )):
        casimir_top_eigenvalue(SplitCasimir(bad))
