"""Exact sparse linear algebra with fraction-free integer elimination.

Vectors are dicts mapping coordinate index to a nonzero integer.  A
matrix packs its sparse columns into three 64-bit integer arrays
(compressed-sparse-column form) and hands each column back as a fresh
dict.  Rank and image computations push columns, from a matrix or any
other iterable, one at a time into a reduced echelon basis.

Every vector is an integer vector, and every operation is integer
arithmetic: the kernel takes int entries only, and anything else, a
``Fraction`` included, raises ``TypeError`` in ``math.gcd``.  Each
stored vector is primitive (its entries have gcd 1) with a positive
pivot entry, so the basis is the canonical reduced echelon basis of its
span over the rationals, each vector scaled from monic to primitive
integers.  There is no floating point anywhere in this module.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from math import gcd, lcm
from operator import itemgetter
from typing import Iterable, Mapping

__all__ = [
    "SparseVec",
    "SparseMatrix",
    "EchelonBasis",
    "addmul",
    "append_and_rank",
    "direct_sum",
    "image_basis",
]

SparseVec = dict

def addmul(target: SparseVec, src: Mapping[int, int], scale: int) -> None:
    """target += scale * src in place, dropping entries that cancel."""
    if not scale:
        return
    for i, x in src.items():
        v = target.get(i, 0) + scale * x
        if v:
            target[i] = v
        else:
            target.pop(i, None)


def _primitive(w: SparseVec) -> SparseVec:
    """Nonzero integer w divided by its content, signed so its lowest coordinate is positive."""
    g = gcd(*w.values())
    if w[min(w)] < 0:
        g = -g
    if g == 1:
        return w
    return {i: x // g for i, x in w.items()}


class SparseMatrix:
    """An nrows x ncols integer matrix, packed in compressed-sparse-column form.

    Three ``array("q")`` fields hold it: the entries of column j are the
    pairs zip(_rows[a:b], _vals[a:b]) with a, b = _ptr[j], _ptr[j + 1].
    A matrix is immutable once built, and from_columns() is its only
    constructor.  column() hands out a fresh dict, so writing into one
    never writes the matrix.

    Every row index and entry must be an int that fits in 64 bits, and
    that is enforced where it comes in: packing a ``Fraction``, integral
    or not, or a float raises ``TypeError``, and an int beyond 64 bits
    raises ``OverflowError``.
    """

    __slots__ = ("nrows", "_ptr", "_rows", "_vals")

    @classmethod
    def from_columns(cls, nrows: int, cols: Iterable[Mapping[int, int]]) -> SparseMatrix:
        """The matrix whose columns are cols, each packed as it arrives.

        cols may be any iterable, a generator included, and is consumed
        once.  Each column must be a sparse vector over range(nrows) with
        no zero entries.  That is not checked here, as it costs a pass
        over every entry; append_and_rank checks the coordinates of every
        column it eliminates.
        """
        if nrows < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        ptr, rows, vals = array("q", [0]), array("q"), array("q")
        for col in cols:
            rows.extend(col)
            vals.extend(col.values())
            ptr.append(len(rows))
        m = cls.__new__(cls)
        m.nrows, m._ptr, m._rows, m._vals = nrows, ptr, rows, vals
        return m

    @property
    def ncols(self) -> int:
        return len(self._ptr) - 1

    @property
    def nnz(self) -> int:
        return len(self._vals)

    def column(self, j: int) -> SparseVec:
        """Column j as a fresh dict that the caller owns."""
        if not 0 <= j < self.ncols:
            raise IndexError(f"column {j} out of range for {self.ncols} columns")
        a, b = self._ptr[j], self._ptr[j + 1]
        return dict(zip(self._rows[a:b], self._vals[a:b]))


class EchelonBasis:
    """Reduced echelon basis of a subspace of Q^dim, stored over the integers.

    Pivot columns are strictly increasing, each vector's pivot is its
    lowest coordinate and is positive, each vector is primitive, and
    each pivot coordinate is zero in every other basis vector, so the
    basis is the canonical reduced form of the subspace it spans.
    """

    def __init__(self, dim: int):
        if dim < 0:
            raise ValueError("ambient dimension must be nonnegative")
        self.dim = dim
        self.vectors: list[SparseVec] = []
        self.pivots: list[int] = []
        self._by_pivot: dict = {}

    def __len__(self) -> int:
        return len(self.vectors)

    def reduce(self, v: Mapping[int, int]) -> SparseVec:
        """Remainder of v after eliminating every pivot coordinate, as a primitive integer vector.

        The basis is reduced, so clearing one pivot coordinate of v
        leaves every other pivot coordinate unchanged: all of them are
        cleared in one pass, after scaling v by the smallest integer
        that makes every elimination step integral.
        """
        w = {i: x for i, x in v.items() if x}
        by_pivot = self._by_pivot
        hits = [(p, x) for p, x in w.items() if p in by_pivot]
        if hits:
            scale = 1
            for p, x in hits:
                b = by_pivot[p][p]
                scale = lcm(scale, b // gcd(b, x))
            if scale != 1:
                w = {i: scale * x for i, x in w.items()}
            for p, x in hits:
                vec = by_pivot[p]
                addmul(w, vec, -(scale * x // vec[p]))
        return _primitive(w) if w else w


def append_and_rank(basis: EchelonBasis, v: Mapping[int, int]) -> tuple[EchelonBasis, bool]:
    """Reduce v against the basis; insert the primitive remainder if nonzero.

    Mutates and returns the same basis object, together with a flag
    saying whether the span grew.
    """
    if v:
        lo, hi = min(v), max(v)
        if lo < 0 or hi >= basis.dim:
            bad = lo if lo < 0 else hi
            raise ValueError(f"coordinate {bad} out of range for dimension {basis.dim}")
    w = basis.reduce(v)
    if not w:
        return basis, False
    pivot = min(w)
    a = w[pivot]
    at = bisect_left(basis.pivots, pivot)
    # Only a vector with a lower pivot can hold the new pivot coordinate.
    for k in range(at):
        vec = basis.vectors[k]
        c = vec.get(pivot)
        if c:
            g = gcd(a, c)
            vec = {i: (a // g) * x for i, x in vec.items()}
            addmul(vec, w, -(c // g))
            vec = _primitive(vec)
            basis.vectors[k] = vec
            basis._by_pivot[basis.pivots[k]] = vec
    basis.pivots.insert(at, pivot)
    basis.vectors.insert(at, w)
    basis._by_pivot[pivot] = w
    return basis, True


def direct_sum(dim: int, parts: Iterable[EchelonBasis]) -> EchelonBasis:
    """One basis from echelon bases of subspaces with pairwise disjoint supports.

    No coordinate is shared, so the union is already reduced and the
    merge is a sort by pivot.
    """
    out = EchelonBasis(dim)
    pairs = sorted(
        (pair for part in parts for pair in zip(part.pivots, part.vectors)),
        key=itemgetter(0),
    )
    out.pivots = [p for p, _ in pairs]
    out.vectors = [vec for _, vec in pairs]
    out._by_pivot = dict(pairs)
    if len(out._by_pivot) != len(pairs):
        raise ValueError("bases to merge share a pivot coordinate")
    return out


def image_basis(nrows: int, columns: Iterable[Mapping[int, int]]) -> EchelonBasis:
    """Canonical reduced echelon basis of the span of columns, vectors over range(nrows)."""
    basis = EchelonBasis(nrows)
    for col in columns:
        append_and_rank(basis, col)
    return basis

