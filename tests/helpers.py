"""Shared builders and independent oracles for the test suite.

Builders are cached per type so large algebras are constructed once per
session.  The oracles here are deliberately written against different
models than the package: dense fraction-free elimination for ranks, and
Euclidean-coordinate constructions of the classical root systems.  A
reference matrix is a Matrix, its row count and a tuple of column
dicts.  A corrupted construction is a LieAlgebra(L.rs, brackets) built
from an edited copy of the bracket table, or a copy of L whose weights
or signed roots with_tables replaces.
"""

from __future__ import annotations

from collections import namedtuple
from copy import copy
from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement, pairwise
from math import gcd
from typing import Callable, Iterable, Mapping

from minorbit.chevalley import (
    LieAlgebra,
    SplitCasimir,
    build_chevalley,
    sym2_dim,
    sym2_index,
    sym2_pairs,
)
from minorbit.linalgx import EchelonBasis, append_and_rank
from minorbit.rootsys import RootSystem, SimpleType, build_root_system


@lru_cache(maxsize=None)
def rs_of(family: str, rank: int) -> RootSystem:
    return build_root_system(SimpleType(family, rank))


@lru_cache(maxsize=None)
def algebra_of(family: str, rank: int) -> LieAlgebra:
    return build_chevalley(rs_of(family, rank))


@lru_cache(maxsize=None)
def casimir_of(family: str, rank: int) -> SplitCasimir:
    """The assembled operator, shared and read-only: degree2_ideal empties
    the operator it is given, so a test that calls it builds its own."""
    return SplitCasimir(algebra_of(family, rank))


def weight_blocks(Om: SplitCasimir) -> list[tuple[list[int], list[int]]]:
    """The operator's stored blocks, in storage order, as (monomials, entries) int lists.

    Storage order is the zero-weight block, then each pair of blocks of
    keys -k and k, the partner of key -k first, by ascending |k|.  Read
    straight from the flat storage, so that a test can check the layout
    and still hand the operator to degree2_ideal: block b's monomials lie
    between _mono_start[b] and _mono_start[b + 1], and its s * s entries,
    s its number of monomials, follow those of the blocks before it.
    This is the one place the tests read that layout; a test that needs
    a flat entry offset sums the entry counts of the blocks before it.
    """
    blocks, at = [], 0
    for lo, hi in pairwise(Om._mono_start):
        end = at + (hi - lo) ** 2
        blocks.append((Om._monos[lo:hi].tolist(), Om._entries[at:end].tolist()))
        at = end
    return blocks


def chevalley_images(L: LieAlgebra) -> list[int]:
    """For each monomial index, the index of its image under the Chevalley involution.

    The involution sends E(a) to -F(a), F(a) to -E(a) and H(i) to -H(i),
    so x_p x_q goes to x_p' x_q' with sign +1, where p' swaps E(a) and
    F(a) and fixes H(i).  Built pair by pair over sym2_pairs, not from
    the row segments that SplitCasimir reads.
    """
    m = L.npos
    swap = [x + m if x < m else x - m if x < 2 * m else x for x in range(L.dim)]
    return [sym2_index(L.dim, swap[p], swap[q]) for p, q in sym2_pairs(L.dim)]


# -- reference matrix operations --------------------------------------------

# The reference matrix the helpers below build: nrows rows, and cols, a
# tuple whose entry j is column j as a sparse vector over range(nrows)
# with no zero entries.  The helpers only read the columns they are given.
Matrix = namedtuple("Matrix", "nrows cols")


def columns(m) -> tuple[dict, ...]:
    """Every column of m, empty ones included, as dicts.

    m is a Matrix, whose own columns these are, or a SplitCasimir, read
    as fresh dicts by column(p, q) over sym2_pairs.  Two matrices with
    the same number of rows are equal exactly when their columns() are:
    dict equality ignores the order of the rows inside a column.
    """
    if isinstance(m, SplitCasimir):
        return tuple(m.column(p, q) for p, q in sym2_pairs(m.dim))
    return m.cols


def dense(n: int, v: Mapping[int, int]) -> list[int]:
    """The sparse vector v over range(n) as the dense int list image_basis takes."""
    return [v.get(i, 0) for i in range(n)]


def dense_columns(m) -> list[list[int]]:
    return [dense(m.nrows, col) for col in columns(m)]


def sparse_image(nrows: int, cols: Iterable[Mapping[int, int]]) -> EchelonBasis:
    """Echelon basis of the span of sparse columns, pushed one at a time through append_and_rank.

    The sparse route, with no weight blocks: the reference for ranks of
    whole operators, which the dense kernel would take as one block.
    """
    basis = EchelonBasis(nrows)
    for col in cols:
        append_and_rank(basis, col)
    return basis


def to_rows(m) -> list[list]:
    rows = [[0] * len(m.cols) for _ in range(m.nrows)]
    for c, col in enumerate(columns(m)):
        for r, v in col.items():
            rows[r][c] = v
    return rows


def from_entries(nrows: int, ncols: int, entries: dict) -> Matrix:
    """The matrix with the given {(row, column): value} entries, zero values dropped."""
    cols: list[dict] = [{} for _ in range(ncols)]
    for (r, c), v in entries.items():
        if v:
            cols[c][r] = v
    return Matrix(nrows, tuple(cols))


def transpose(m: Matrix) -> Matrix:
    return from_entries(
        len(m.cols), m.nrows, {(c, r): v for c, col in enumerate(columns(m)) for r, v in col.items()}
    )


def add_scaled(target: dict, src: Mapping, scale) -> None:
    """target += scale * src in place, dropping entries that cancel.

    Written here, not imported from linalgx, so that the references do not
    share the kernel they check.
    """
    for i, x in src.items():
        v = target.get(i, 0) + scale * x
        if v:
            target[i] = v
        else:
            target.pop(i, None)


def mul(a: Matrix, b: Matrix) -> Matrix:
    if len(a.cols) != b.nrows:
        raise ValueError("shape mismatch in matrix product")
    a_cols = columns(a)
    out = []
    for col in columns(b):
        acc: dict = {}
        for k, x in col.items():
            add_scaled(acc, a_cols[k], x)
        out.append(acc)
    return Matrix(a.nrows, tuple(out))


def invariant_form(L: LieAlgebra) -> Callable[[int, int], int]:
    """The invariant form on the Chevalley basis, as a function of two basis positions.

    Normalized so that every root has squared length 2: form(E(a), F(a))
    is 1 and form(H(i), H(j)) is the Cartan matrix.  The package does
    not build it; this is the reference the bracket table and the
    Casimir are checked against.
    """
    m = L.npos
    form = {}
    for a in range(m):
        form[a, m + a] = form[m + a, a] = 1
    for i, row in enumerate(L.rs.cartan_matrix):
        for j, x in enumerate(row):
            if x:
                form[2 * m + i, 2 * m + j] = x
    return lambda i, j: form.get((i, j), 0)


def adjoint_matrix(L: LieAlgebra, x: int) -> Matrix:
    """Matrix of ad(x) = [x, -] over the Chevalley basis."""
    return Matrix(L.dim, tuple(dict(L.bracket(x, j)) for j in range(L.dim)))


def shifted_casimir(family: str, rank: int, c: int = 2) -> Matrix:
    """The matrix of Omega - c on Sym^2 g, built column by column; c = 0 gives Omega itself."""
    Om = casimir_of(family, rank)
    cols = columns(Om)
    for d, col in enumerate(cols):
        v = col.get(d, 0) - c
        if v:
            col[d] = v
        else:
            col.pop(d, None)
    return Matrix(sym2_dim(Om.dim), cols)


def all_pairs_column(L: LieAlgebra, p: int, q: int) -> dict:
    """Omega(x_p x_q) of L, summed over every dual pair (E(r), F(r)), empty brackets included."""
    nn = L.dim
    m = L.npos
    out: dict = {}
    for r in range(m):
        for x, y in ((r, m + r), (m + r, r)):
            for i, ci in L.bracket(x, p):
                for j, cj in L.bracket(y, q):
                    k = sym2_index(nn, i, j)
                    out[k] = out.get(k, 0) + ci * cj
    w = sum(a * b for a, b in zip(L.weights_fw[p], L.signed_roots[q]))
    if w:
        k = sym2_index(nn, p, q)
        out[k] = out.get(k, 0) + w
    return {k: v for k, v in out.items() if v}


def evaluate(poly: dict, values: dict) -> Fraction:
    """Value of a polynomial in matrix entries at a point, with unspecified entries treated as zero."""
    total = Fraction(0)
    for mono, c in poly.items():
        prod = Fraction(c)
        for var in mono:
            prod *= Fraction(values.get(var, 0))
            if not prod:
                break
        total += prod
    return total


# -- the paper's argument and corrupted constructions ------------------------

def cartan_restriction(L: LieAlgebra, vec: dict) -> dict:
    """The H(i) H(j) terms of a Sym^2 g vector, as a vector indexed by sym2_index(rank, i, j).

    Each monomial is read back as its pair p <= q, the k-th of
    combinations_with_replacement, and tested on its own, so this does
    not rest on the Cartan monomials coming last, as the index shift in
    projected_span does.
    """
    n = L.rs.rank
    base = 2 * L.npos
    pairs = list(combinations_with_replacement(range(L.dim), 2))
    out = {}
    for k, x in vec.items():
        p, q = pairs[k]
        if p >= base and q >= base:
            out[sym2_index(n, p - base, q - base)] = x
    return out


def cartan_pair_generators(L: LieAlgebra, Omega: SplitCasimir, c) -> list[dict]:
    """Cartan restriction of (Omega - c) applied to each monomial H(i) H(j), i <= j.

    Only the diagonal term survives the projection, so each output is
    -c h_i h_j; the root contributions land on E(a) F(a) monomials and
    are killed.  This needs one operator column per Cartan pair and
    never assembles the full matrix.
    """
    n = L.rs.rank
    nn = L.dim
    base = 2 * L.npos
    out = []
    for i in range(n):
        for j in range(i, n):
            p, q = base + i, base + j
            col = dict(Omega.column(p, q))
            k = sym2_index(nn, p, q)
            val = col.get(k, 0) - c
            if val:
                col[k] = val
            else:
                col.pop(k, None)
            out.append(cartan_restriction(L, col))
    return out


def with_tables(L: LieAlgebra, **tables) -> LieAlgebra:
    """A copy of L, sharing its bracket table, with weights_fw or signed_roots replaced.

    LieAlgebra derives both tables from its root system, so this is how
    a mutant gives a basis position a weight or a signed root that its
    root does not have.
    """
    bad = copy(L)
    vars(bad).update(tables)
    return bad


def _first_ee_key(L: LieAlgebra) -> int:
    """The table key of the first stored E-E bracket [x_a, x_b], a < b."""
    return next(k for k in L.brackets if k // L.dim < k % L.dim < L.npos)


def misdirect_first_ee_bracket(L: LieAlgebra) -> LieAlgebra:
    """A copy of L whose first E-E bracket lands on H(1) instead of a root vector.

    The bracket keeps its sign but loses its weight, so products of the
    split Casimir that use it leave their column's weight block.  The
    table stores the bracket once, so its reverse is misdirected too.
    """
    h1 = 2 * L.npos
    brackets = dict(L.brackets)
    key = _first_ee_key(L)
    brackets[key] = tuple((h1, s) for _, s in brackets[key])
    return LieAlgebra(L.rs, brackets)


def scale_first_ee_constant(L: LieAlgebra, factor: int) -> LieAlgebra:
    """A copy of L with one E-E structure constant, and so its reverse, multiplied by factor."""
    brackets = dict(L.brackets)
    key = _first_ee_key(L)
    brackets[key] = tuple((k, factor * s) for k, s in brackets[key])
    return LieAlgebra(L.rs, brackets)


def negate_first_ee_constant_and_its_mirror(L: LieAlgebra) -> LieAlgebra:
    """A copy of L with one E-E constant and its mirror [F(a), F(b)] negated together.

    With both negated, the Chevalley involution is still an automorphism
    of the table, so the operator stays equivariant and every block
    equals its partner; the ideal dimension is what changes.
    """
    brackets = dict(L.brackets)
    key = _first_ee_key(L)
    a, b = divmod(key, L.dim)
    for k in (key, (a + L.npos) * L.dim + b + L.npos):
        brackets[k] = tuple((j, -s) for j, s in brackets[k])
    return LieAlgebra(L.rs, brackets)


def shift_theta_pairing(L: LieAlgebra, by: int) -> LieAlgebra:
    """A copy of L whose signed root of E(theta) is off by `by` times a unit vector.

    The unit vector sits where the weight of theta has a 1, so the
    weight pairing of theta with itself becomes 2 + by.  Only the
    Casimir's weight pairing reads signed_roots.
    """
    t = L.npos - 1
    i = L.weights_fw[t].index(1)
    signed = list(L.signed_roots)
    signed[t] = tuple(x + by * (k == i) for k, x in enumerate(signed[t]))
    return with_tables(L, signed_roots=tuple(signed))


# -- rational echelon reference ----------------------------------------------


def fraction_echelon(columns) -> tuple[list[int], list[dict]]:
    """Monic reduced echelon basis of the span of the columns, in Fraction arithmetic.

    Each vector is reduced against the basis, scaled so its lowest
    coordinate is 1 and eliminated from every earlier vector.
    """
    pivots: list[int] = []
    vectors: list[dict] = []
    for col in columns:
        w = {i: Fraction(x) for i, x in col.items() if x}
        for pivot, vec in zip(pivots, vectors):
            c = w.get(pivot)
            if c:
                add_scaled(w, vec, -c)
        if not w:
            continue
        pivot = min(w)
        inv = 1 / w[pivot]
        w = {i: x * inv for i, x in w.items()}
        for vec in vectors:
            c = vec.get(pivot)
            if c:
                add_scaled(vec, w, -c)
        at = sum(1 for p in pivots if p < pivot)
        pivots.insert(at, pivot)
        vectors.insert(at, w)
    return pivots, vectors


# -- dense rank oracle -------------------------------------------------------

def _int_row(row) -> list[int]:
    denom = 1
    for x in row:
        f = Fraction(x)
        denom = denom * f.denominator // gcd(denom, f.denominator)
    out = [int(Fraction(x) * denom) for x in row]
    g = 0
    for x in out:
        g = gcd(g, abs(x))
    if g > 1:
        out = [x // g for x in out]
    return out


def dense_rank(rows) -> int:
    """Rank by dense fraction-free row elimination over the integers."""
    rows = [_int_row(r) for r in rows if any(r)]
    if not rows:
        return 0
    ncols = len(rows[0])
    rank = 0
    for col in range(ncols):
        piv = None
        for r in range(rank, len(rows)):
            if rows[r][col]:
                piv = r
                break
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        prow = rows[rank]
        p = prow[col]
        for r in range(rank + 1, len(rows)):
            x = rows[r][col]
            if x:
                new = [p * a - x * b for a, b in zip(rows[r], prow)]
                g = 0
                for v in new:
                    g = gcd(g, abs(v))
                if g > 1:
                    new = [v // g for v in new]
                rows[r] = new
        rank += 1
        if rank == len(rows):
            break
    return rank


# -- Euclidean root models ---------------------------------------------------

def _solve(cols: list[tuple], v: tuple) -> tuple:
    """Solve M x = v exactly, where M has the given columns."""
    n = len(v)
    a = [[Fraction(cols[j][i]) for j in range(n)] + [Fraction(v[i])] for i in range(n)]
    for c in range(n):
        piv = next(r for r in range(c, n) if a[r][c] != 0)
        a[c], a[piv] = a[piv], a[c]
        inv = Fraction(1) / a[c][c]
        a[c] = [x * inv for x in a[c]]
        for r in range(n):
            if r != c and a[r][c]:
                f = a[r][c]
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return tuple(a[r][n] for r in range(n))


def _in_simple_basis(simple: list[tuple], roots: list[tuple]) -> set:
    """Positive roots in simple-root coordinates: the nonnegative integer solutions."""
    out = set()
    for v in roots:
        x = _solve(simple, v)
        if all(c.denominator == 1 for c in x):
            c = tuple(int(ci) for ci in x)
            if all(ci >= 0 for ci in c) and any(c):
                out.add(c)
    return out


def a_positive_roots(n: int) -> set:
    """Type A_n positive roots: contiguous all-ones blocks of coordinates."""
    out = set()
    for i in range(n):
        for j in range(i, n):
            out.add(tuple(1 if i <= k <= j else 0 for k in range(n)))
    return out


def d_positive_roots(n: int) -> set:
    """Type D_n positive roots from the Euclidean model e_i -+ e_j."""
    simple = [tuple(Fraction(int(k == i) - int(k == i + 1)) for k in range(n)) for i in range(n - 1)]
    simple.append(tuple(Fraction(int(k >= n - 2)) for k in range(n)))
    roots = []
    for i in range(n):
        for j in range(i + 1, n):
            for s in (1, -1):
                roots.append(tuple(Fraction(int(k == i) + s * int(k == j)) for k in range(n)))
                roots.append(tuple(-x for x in roots[-1]))
    return _in_simple_basis(simple, roots)


@lru_cache(maxsize=None)
def e8_positive_roots() -> frozenset:
    """E8 positive roots from the even-coordinate Euclidean model."""
    half = Fraction(1, 2)
    simple = [
        (half, -half, -half, -half, -half, -half, -half, half),
        (1, 1, 0, 0, 0, 0, 0, 0),
        (-1, 1, 0, 0, 0, 0, 0, 0),
        (0, -1, 1, 0, 0, 0, 0, 0),
        (0, 0, -1, 1, 0, 0, 0, 0),
        (0, 0, 0, -1, 1, 0, 0, 0),
        (0, 0, 0, 0, -1, 1, 0, 0),
        (0, 0, 0, 0, 0, -1, 1, 0),
    ]
    simple = [tuple(Fraction(x) for x in v) for v in simple]
    roots = []
    for i in range(8):
        for j in range(i + 1, 8):
            for si in (1, -1):
                for sj in (1, -1):
                    v = [Fraction(0)] * 8
                    v[i] = Fraction(si)
                    v[j] = Fraction(sj)
                    roots.append(tuple(v))
    for bits in range(256):
        signs = [1 if bits & (1 << k) else -1 for k in range(8)]
        if signs.count(-1) % 2 == 0:
            roots.append(tuple(half * s for s in signs))
    return frozenset(_in_simple_basis(simple, roots))
