"""Integer rank, image bases and incremental span building, and the reference SparseMatrix."""

import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings, strategies as st

from minorbit.chevalley import casimir_top_eigenvalue, sym2_index
from minorbit.linalgx import EchelonBasis, append_and_rank, image_basis, pivot_rows

from helpers import (
    SparseMatrix,
    casimir_of,
    columns,
    dense,
    dense_columns,
    dense_rank,
    fraction_echelon,
    from_entries,
    shifted_casimir,
    to_rows,
    transpose,
)


def top_shifted_casimir(family, rk):
    return shifted_casimir(family, rk, casimir_top_eigenvalue(casimir_of(family, rk)))


def random_sparse(rng, max_side=200):
    nrows = rng.randint(1, max_side)
    ncols = rng.randint(1, max_side)
    entries = {}
    nnz = rng.randint(0, 3 * ncols)
    values = [1, -1, 2, -2, 3, 5, -6]
    for _ in range(nnz):
        entries[rng.randrange(nrows), rng.randrange(ncols)] = rng.choice(values)
    return from_entries(nrows, ncols, entries)


def test_matrix_basic_invariants():
    m = SparseMatrix.from_columns(3, [{}, {}, {1: -3}])
    assert (m.nrows, m.ncols, m.nnz) == (3, 3, 1)
    assert m.column(2) == {1: -3} and m.column(0) == {}
    for j in (3, -1):
        with pytest.raises(IndexError):
            m.column(j)
    with pytest.raises(ValueError):
        SparseMatrix.from_columns(-1, [])
    # There is no entry access and no coordinate-map constructor.
    with pytest.raises(TypeError):
        m[1, 2]
    with pytest.raises(TypeError):
        SparseMatrix(3, 3)
    empty = SparseMatrix.from_columns(4, [])
    assert (empty.ncols, empty.nnz) == (0, 0)


def test_sparse_matrix_stores_its_columns():
    cols = [{0: 4, 2: -1}, {1: 5}]
    m = SparseMatrix.from_columns(3, iter(cols))
    assert (m.nrows, m.ncols, m.nnz) == (3, 2, 3)
    assert [m.column(j) for j in range(2)] == cols
    # The columns are packed, not held: a later write to the input does not show.
    cols[0][1] = 7
    assert m.column(0) == {0: 4, 2: -1}


def test_writing_a_returned_column_leaves_the_matrix_intact():
    cols = [{0: 4, 2: -1}, {}, {1: 5}]
    m = SparseMatrix.from_columns(3, cols)
    m.column(0)[1] = 7
    m.column(1)[0] = 1
    got = m.column(2)
    got.clear()
    assert [m.column(j) for j in range(3)] == cols


@pytest.mark.parametrize("bad,error", [
    (Fraction(1, 3), TypeError),
    (Fraction(2), TypeError),
    (1.0, TypeError),
    (2**63, OverflowError),
    (-(2**63) - 1, OverflowError),
])
def test_from_columns_rejects_non_int64_entries(bad, error):
    with pytest.raises(error):
        SparseMatrix.from_columns(3, [{0: 1}, {1: bad}])
    with pytest.raises(error):
        SparseMatrix.from_columns(3, [{bad: 1}])
    assert SparseMatrix.from_columns(3, [{2: 2**63 - 1, 0: -(2**63)}]).nnz == 2


@pytest.mark.parametrize("bad", [-1, 5])
def test_append_and_rank_rejects_out_of_range_coordinates(bad):
    basis = EchelonBasis(5)
    with pytest.raises(ValueError, match=f"coordinate {bad} out of range for dimension 5"):
        append_and_rank(basis, {2: 1, bad: 3})
    assert len(basis) == 0


def test_rank_trivial():
    assert len(image_basis(4, [[0] * 4] * 7)) == 0
    assert len(image_basis(5, (dense(5, {i: 1}) for i in range(5)))) == 5


def test_rank_a2_shifted_casimir():
    # 36 - 27 by the dimension count, and again by dense elimination.
    m = top_shifted_casimir("A", 2)
    assert m.nrows == 36
    assert len(image_basis(m.nrows, dense_columns(m))) == 9
    assert dense_rank(to_rows(m)) == 9


def test_image_basis_identity_and_repeated_column():
    basis = image_basis(4, [dense(4, {i: 1}) for i in range(4)])
    assert basis.pivots == [0, 1, 2, 3]
    assert basis.vectors == [{0: 1}, {1: 1}, {2: 1}, {3: 1}]

    basis = image_basis(3, [[2, 0, -4]] * 4)
    assert len(basis) == 1
    assert basis.vectors == [{0: 1, 2: -2}]


def test_image_basis_pivots_the_sparsest_coordinate_first_through_a_non_unit_entry():
    # Coordinate 2 is nonzero in two columns only, fewer than any other,
    # and both entries there (2 and 3) are non-units, so the first pivot
    # is not coordinate 0 and its elimination step scales.  The basis
    # must still be the canonical one of the span.
    cols = [
        [1, 2, 0, 1, 1],
        [3, 1, 0, 2, 0],
        [2, 5, 2, 0, 1],
        [1, 1, 3, 4, 2],
        [4, 3, 0, 3, 1],  # the sum of the first two
    ]
    counts = [sum(1 for c in cols if c[i]) for i in range(5)]
    assert min(range(5), key=counts.__getitem__) == 2
    assert sorted(c[2] for c in cols if c[2]) == [2, 3]
    basis = image_basis(5, cols)
    pivots, vectors = fraction_echelon([dict(enumerate(c)) for c in cols])
    assert len(basis) == dense_rank(list(map(list, zip(*cols)))) == 4
    assert basis.pivots == pivots
    assert [{i: Fraction(x, vec[p]) for i, x in vec.items()}
            for p, vec in zip(basis.pivots, basis.vectors)] == vectors
    assert all(vec[p] > 0 and gcd(*vec.values()) == 1
               for p, vec in zip(basis.pivots, basis.vectors))


def test_image_basis_a1_shifted_casimir():
    # The single generator as a primitive integer vector: 4 e.f + h.h,
    # proportional to 2 h.h + 8 e.f.
    m = top_shifted_casimir("A", 1)
    basis = image_basis(m.nrows, dense_columns(m))
    ef = sym2_index(3, 0, 1)
    hh = sym2_index(3, 2, 2)
    assert len(basis) == 1
    assert basis.vectors[0] == {ef: 4, hh: 1}


def test_append_and_rank_cases():
    basis = EchelonBasis(5)
    same, grew = append_and_rank(basis, {})
    assert same is basis and not grew and len(basis) == 0

    _, grew = append_and_rank(basis, {1: 3, 4: -6})
    assert grew
    assert basis.pivots == [1]
    assert basis.vectors == [{1: 1, 4: -2}]

    _, grew = append_and_rank(basis, {1: -2, 4: 4})
    assert not grew and len(basis) == 1

    # Zero entries are dropped on entry and never become a pivot; v is not written.
    v = {0: 0, 2: -3}
    _, grew = append_and_rank(basis, v)
    assert grew and basis.pivots == [1, 2] and v == {0: 0, 2: -3}

    with pytest.raises(ValueError):
        append_and_rank(basis, {5: 1})


def test_append_linear_combination_does_not_grow():
    basis = EchelonBasis(6)
    v1 = {0: 1, 3: 2}
    v2 = {1: 1, 3: -1}
    append_and_rank(basis, v1)
    append_and_rank(basis, v2)
    combo = {0: 3, 1: -2, 3: 8}
    _, grew = append_and_rank(basis, combo)
    assert not grew
    assert basis.reduce(combo) == {}


def test_echelon_invariants_on_random_matrices():
    rng = random.Random(2024)
    for _ in range(40):
        m = random_sparse(rng, max_side=60)
        basis = image_basis(m.nrows, dense_columns(m))
        assert basis.pivots == sorted(basis.pivots)
        assert len(set(basis.pivots)) == len(basis.pivots)
        for i, vec in enumerate(basis.vectors):
            assert vec[basis.pivots[i]] > 0
            assert gcd(*vec.values()) == 1
            assert min(vec) == basis.pivots[i]
            for j, other in enumerate(basis.vectors):
                if i != j:
                    assert basis.pivots[i] not in other
        # Every original column reduces to zero against the basis.
        for col in columns(m):
            assert basis.reduce(col) == {}
        assert dense_rank(to_rows(m)) == len(basis)


def test_rank_equals_rank_of_transpose():
    rng = random.Random(99)
    for _ in range(30):
        m = random_sparse(rng, max_side=60)
        t = transpose(m)
        assert len(image_basis(m.nrows, dense_columns(m))) == len(image_basis(t.nrows, dense_columns(t)))


def test_image_basis_is_canonical_under_column_shuffle():
    rng = random.Random(5)
    m = random_sparse(rng, max_side=30)
    cols = dense_columns(m)
    rng.shuffle(cols)
    b1 = image_basis(m.nrows, dense_columns(m))
    b2 = image_basis(m.nrows, cols)
    assert b1.pivots == b2.pivots
    assert b1.vectors == b2.vectors


def test_all_arithmetic_stays_rational():
    rng = random.Random(17)
    m = random_sparse(rng, max_side=25)
    for vec in image_basis(m.nrows, dense_columns(m)).vectors:
        for v in vec.values():
            assert type(v) is int


VALUES = [1, -1, 2, -2, 3, 4, 5, 6, -9, -10]


@st.composite
def sparse_matrices(draw):
    nrows = draw(st.integers(1, 30))
    ncols = draw(st.integers(1, 30))
    entries = draw(st.dictionaries(
        st.tuples(st.integers(0, nrows - 1), st.integers(0, ncols - 1)),
        st.sampled_from(VALUES),
        max_size=3 * ncols,
    ))
    return from_entries(nrows, ncols, entries)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(sparse_matrices())
def test_integer_basis_is_the_monic_fraction_basis_rescaled(m):
    basis = image_basis(m.nrows, dense_columns(m))
    pivots, vectors = fraction_echelon(columns(m))
    assert basis.pivots == pivots
    for pivot, vec in zip(basis.pivots, basis.vectors):
        assert all(type(x) is int for x in vec.values())
        assert vec[pivot] > 0 and gcd(*vec.values()) == 1
    monic = [
        {i: Fraction(x, vec[pivot]) for i, x in vec.items()}
        for pivot, vec in zip(basis.pivots, basis.vectors)
    ]
    assert monic == vectors


@st.composite
def int_columns(draw):
    """Dense int columns, mostly zero, then repeats and multiples of some and a zero column."""
    nrows = draw(st.integers(1, 12))
    entry = st.sampled_from([0, 0, 0, 1, -1, 2, -3, 4, 6, -9])
    cols = draw(st.lists(st.lists(entry, min_size=nrows, max_size=nrows), max_size=12))
    if cols:
        for col in draw(st.lists(st.sampled_from(cols), max_size=4)):
            cols.append([draw(st.sampled_from([1, -1, 2, -3])) * x for x in col])
    if draw(st.booleans()):
        cols.insert(draw(st.integers(0, len(cols))), [0] * nrows)
    return nrows, cols


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(int_columns())
@example((3, []))
@example((2, [[0, 0], [0, 0]]))
@example((3, [[2, 4, 0], [3, 0, 6], [2, 4, 0], [0, 0, 0], [-4, -8, 0]]))
@example((4, [[6, 0, 4, 0], [0, 9, 6, 0], [4, 6, 0, 0]]))
def test_pivot_rows_count_the_rank_and_span_the_columns(case):
    nrows, cols = case
    rows = pivot_rows(nrows, cols)
    assert len(rows) == dense_rank(list(map(list, zip(*cols))))
    for row in rows:
        assert len(row) == nrows and gcd(*row) == 1
    got, want = image_basis(nrows, rows), image_basis(nrows, cols)
    assert got.pivots == want.pivots
    assert got.vectors == want.vectors


def test_fraction_entries_raise_type_error():
    # The kernel is integer-only: a Fraction entry is rejected, even an
    # integral one, whether or not it meets a pivot, and the basis is
    # left as it was.
    basis = EchelonBasis(4)
    append_and_rank(basis, {0: 2, 3: -1})
    bad = [
        {1: Fraction(1, 2)},
        {1: Fraction(2)},
        {0: Fraction(2)},
        {0: 4, 1: 3, 3: Fraction(-1, 3)},
    ]
    for v in bad:
        with pytest.raises(TypeError):
            append_and_rank(basis, v)
        with pytest.raises(TypeError):
            basis.reduce(v)
    assert basis.pivots == [0] and basis.vectors == [{0: 2, 3: -1}]


@pytest.mark.parametrize("bad", [Fraction(1, 3), Fraction(2), 2.0])
@pytest.mark.parametrize("column", [
    lambda b: [b, 0, 0, 0],
    lambda b: [0, b, 0, 0],
    lambda b: [b, 0, 0, -b],
], ids=["on_the_pivot", "off_every_pivot", "inside_the_span"])
def test_image_basis_rejects_non_int_entries(bad, column):
    # The dense kernel is integer-only like the sparse one: a Fraction,
    # even an integral one, or a float raises wherever it stands, also
    # in a column that would reduce to zero against the int column.
    col = column(bad)
    with pytest.raises(TypeError):
        image_basis(4, [[1, 0, 0, -1], col])
    with pytest.raises(TypeError):
        image_basis(4, [col, [1, 0, 0, -1]])


@pytest.mark.parametrize("length", [0, 3, 5])
def test_image_basis_rejects_columns_of_the_wrong_length(length):
    # A dense list would otherwise read a short column as zero-padded and
    # never look at the tail of a long one.
    with pytest.raises(ValueError, match=f"^column of length {length} in dimension 4$"):
        image_basis(4, [[1, 0, 0, 0], [1] * length])
