"""Exact sparse linear algebra over the rationals.

Vectors are dicts mapping coordinate index to a nonzero rational
(int or Fraction), matrices store a coordinate map of nonzero entries,
and rank and image computations push columns one at a time into a
reduced echelon basis.  There is no floating point anywhere in this
module.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from typing import Mapping, Union

__all__ = [
    "Rational",
    "SparseVec",
    "SparseMatrix",
    "EchelonBasis",
    "addmul",
    "append_and_rank",
    "rank",
    "image_basis",
]

Rational = Union[int, Fraction]
SparseVec = dict

def addmul(target: SparseVec, src: Mapping[int, Rational], scale: Rational) -> None:
    """target += scale * src in place, dropping entries that cancel."""
    if not scale:
        return
    for i, x in src.items():
        v = target.get(i, 0) + scale * x
        if v:
            target[i] = v
        else:
            target.pop(i, None)


class SparseMatrix:
    """An nrows x ncols matrix holding only its nonzero rational entries."""

    def __init__(self, nrows: int, ncols: int, entries: Mapping | None = None):
        if nrows < 0 or ncols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        self.nrows = nrows
        self.ncols = ncols
        self.entries: dict = {}
        if entries:
            for (r, c), v in entries.items():
                self[r, c] = v

    def __getitem__(self, rc: tuple[int, int]) -> Rational:
        return self.entries.get(rc, 0)

    def __setitem__(self, rc: tuple[int, int], value: Rational) -> None:
        r, c = rc
        if not (0 <= r < self.nrows and 0 <= c < self.ncols):
            raise ValueError(f"index {rc} out of range for {self.nrows}x{self.ncols}")
        if value:
            self.entries[rc] = value
        else:
            self.entries.pop(rc, None)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SparseMatrix):
            return NotImplemented
        return (
            self.nrows == other.nrows
            and self.ncols == other.ncols
            and self.entries == other.entries
        )

    @property
    def nnz(self) -> int:
        return len(self.entries)

    def columns(self) -> list[SparseVec]:
        """All columns as sparse vectors, including empty ones."""
        cols: list[SparseVec] = [{} for _ in range(self.ncols)]
        for (r, c), v in self.entries.items():
            cols[c][r] = v
        return cols


class EchelonBasis:
    """Reduced echelon basis of a subspace of Q^dim.

    Pivot columns are strictly increasing, every pivot entry is 1, and
    each pivot coordinate is zero in every other basis vector, so the
    basis is the canonical reduced form of the subspace it spans.
    """

    def __init__(self, dim: int):
        if dim < 0:
            raise ValueError("ambient dimension must be nonnegative")
        self.dim = dim
        self.vectors: list[SparseVec] = []
        self.pivots: list[int] = []

    def __len__(self) -> int:
        return len(self.vectors)

    def reduce(self, v: Mapping[int, Rational]) -> SparseVec:
        """Remainder of v after eliminating every pivot coordinate."""
        w = {i: x for i, x in v.items() if x}
        for pivot, vec in zip(self.pivots, self.vectors):
            c = w.get(pivot)
            if c:
                addmul(w, vec, -c)
        return w


def append_and_rank(basis: EchelonBasis, v: Mapping[int, Rational]) -> tuple[EchelonBasis, bool]:
    """Reduce v against the basis; insert the normalized remainder if nonzero.

    Mutates and returns the same basis object, together with a flag
    saying whether the span grew.
    """
    for i in v:
        if not (0 <= i < basis.dim):
            raise ValueError(f"coordinate {i} out of range for dimension {basis.dim}")
    w = basis.reduce(v)
    if not w:
        return basis, False
    pivot = min(w)
    inv = Fraction(1) / Fraction(w[pivot])
    w = {i: x * inv for i, x in w.items()}
    for vec in basis.vectors:
        c = vec.get(pivot)
        if c:
            addmul(vec, w, -c)
    at = bisect_left(basis.pivots, pivot)
    basis.pivots.insert(at, pivot)
    basis.vectors.insert(at, w)
    return basis, True


def image_basis(m: SparseMatrix) -> EchelonBasis:
    """Canonical reduced echelon basis of the column span of m."""
    basis = EchelonBasis(m.nrows)
    for col in m.columns():
        append_and_rank(basis, col)
    return basis


def rank(m: SparseMatrix) -> int:
    """Exact rank of m over the rationals."""
    return len(image_basis(m))
