"""Exact linear algebra with fraction-free integer elimination.

Vectors are dicts mapping coordinate index to a nonzero integer, and
an echelon basis grows one such vector at a time through
``append_and_rank``.  ``pivot_rows`` is the dense kernel for one weight
block: its columns are int lists over the block's own coordinates, and
one forward elimination hands back independent rows spanning their
image, as many as its rank.  ``image_basis`` puts those rows in the
canonical form below, for the callers that read a basis and not only
its size.

Every vector is an integer vector, and every operation is integer
arithmetic: the kernels take int entries only, and anything else, a
``Fraction`` included, raises ``TypeError`` in ``math.gcd``.  Each
vector of an echelon basis is primitive (its entries have gcd 1) with a
positive pivot entry, so the basis is the canonical reduced echelon
basis of its span over the rationals, each vector scaled from monic to
primitive integers.  There is no floating point anywhere in this module.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Iterable, Mapping, Sequence
from math import gcd, lcm
from operator import add, sub

__all__ = [
    "EchelonBasis",
    "append_and_rank",
    "image_basis",
    "pivot_rows",
]


def _addmul(target: dict, src: Mapping[int, int], scale: int) -> None:
    """target += scale * src in place, dropping entries that cancel."""
    for i, x in src.items():
        v = target.get(i, 0) + scale * x
        if v:
            target[i] = v
        else:
            target.pop(i, None)


def _primitive(w: dict) -> dict:
    """Nonzero integer w divided by its content, signed so its lowest coordinate is positive."""
    g = gcd(*w.values())
    if w[min(w)] < 0:
        g = -g
    if g == 1:
        return w
    return {i: x // g for i, x in w.items()}


class EchelonBasis:
    """Reduced echelon basis of a subspace of Q^dim, stored over the integers.

    pivots[k] is the pivot of vectors[k], and the two lists are the
    whole state.  Pivot columns are strictly increasing, each vector's
    pivot is its lowest coordinate and is positive, each vector is
    primitive, and each pivot coordinate is zero in every other basis
    vector, so the basis is the canonical reduced form of the subspace
    it spans.
    """

    def __init__(self, dim: int):
        if dim < 0:
            raise ValueError("ambient dimension must be nonnegative")
        self.dim = dim
        self.vectors: list[dict] = []
        self.pivots: list[int] = []

    def __len__(self) -> int:
        return len(self.vectors)

    def reduce(self, v: Mapping[int, int]) -> dict:
        """Remainder of v after eliminating every pivot coordinate, as a primitive integer vector.

        The basis is reduced, so clearing one pivot coordinate of v
        leaves every other pivot coordinate unchanged: all of them are
        cleared in one pass, after scaling v by the smallest integer
        that makes every elimination step integral.
        """
        w = {i: x for i, x in v.items() if x}
        hits = [(p, w[p], vec) for p, vec in zip(self.pivots, self.vectors) if p in w]
        if hits:
            scale = 1
            for p, x, vec in hits:
                b = vec[p]
                scale = lcm(scale, b // gcd(b, x))
            if scale != 1:
                w = {i: scale * x for i, x in w.items()}
            for p, x, vec in hits:
                _addmul(w, vec, -(scale * x // vec[p]))
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
            _addmul(vec, w, -(c // g))
            basis.vectors[k] = _primitive(vec)
    basis.pivots.insert(at, pivot)
    basis.vectors.insert(at, w)
    return basis, True


def _submul(v: list[int], x: int, row: list[int]) -> list[int]:
    """v - x * row for dense int lists, with the unit multiples done in C."""
    if x == 1:
        return list(map(sub, v, row))
    if x == -1:
        return list(map(add, v, row))
    return [u - x * y for u, y in zip(v, row)]


def pivot_rows(nrows: int, columns: Iterable[Sequence[int]]) -> list[list[int]]:
    """Primitive rows spanning the dense int columns of length nrows, as many as their rank.

    Fraction-free forward elimination one coordinate at a time, in
    ascending order of the number of columns that are nonzero there,
    ties by index: the column with the smallest nonzero entry at the
    coordinate, in absolute value, becomes the row of that pivot, made
    primitive with a positive pivot entry, and the coordinate is cleared
    from every remaining column, so a unit pivot, where there is one,
    makes every step a plain subtraction.  Taking the sparsest
    coordinates first keeps the fill-in down.  A column that reaches
    zero is dropped.  Each row is zero on the pivots of the rows before
    it, so the rows are independent, but nothing clears a later pivot
    from an earlier row: they are not in echelon form.
    """
    # Every step builds a new list, so a column is never written and needs no copy.
    vecs = []
    for col in columns:
        if len(col) != nrows:
            raise ValueError(f"column of length {len(col)} in dimension {nrows}")
        g = gcd(*col)
        if g:
            vecs.append(col if g == 1 else [x // g for x in col])
    # Fill-in never reaches a coordinate that is zero in every column, so those are skipped.
    counts = [len(t) - t.count(0) for t in zip(*vecs)]
    rows: list[list[int]] = []
    for i in sorted((i for i, n in enumerate(counts) if n), key=counts.__getitem__):
        if not vecs:
            break
        best, size = -1, 0
        for k, v in enumerate(vecs):
            x = v[i]
            if x and (best < 0 or abs(x) < size):
                best, size = k, abs(x)
                if size == 1:
                    break
        if best < 0:
            continue
        row = vecs.pop(best)
        g = gcd(*row)
        if row[i] < 0:
            g = -g
        if g != 1:
            row = [x // g for x in row]
        a = row[i]
        for k, v in enumerate(vecs):
            x = v[i]
            if not x:
                continue
            if a == 1:
                v = _submul(v, x, row)
            else:
                g = gcd(a, x)
                v = [(a // g) * u - (x // g) * y for u, y in zip(v, row)]
                g = gcd(*v)
                if g > 1:
                    v = [u // g for u in v]
            vecs[k] = v
        vecs = [v for v in vecs if any(v)]
        rows.append(row)
    return rows


def image_basis(nrows: int, columns: Iterable[Sequence[int]]) -> EchelonBasis:
    """Canonical reduced echelon basis of the span of dense int columns of length nrows.

    The pivot_rows of the columns span the image, pivoted out of
    coordinate order.  They enter an EchelonBasis through
    append_and_rank, the row whose lowest coordinate is highest first,
    so each new row's lowest coordinate is at or below every pivot so
    far and rarely has to be cleared from the vectors already in.  The
    result is the canonical basis of the span, whatever order the
    coordinates were pivoted in.
    """
    basis = EchelonBasis(nrows)
    sparse = [{i: x for i, x in enumerate(row) if x} for row in pivot_rows(nrows, columns)]
    for v in sorted(sparse, key=min, reverse=True):
        append_and_rank(basis, v)
    return basis
