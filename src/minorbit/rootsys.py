"""ADE root systems in exact arithmetic.

A root is a plain int tuple, its coordinates in the simple-root basis,
and a weight is an int tuple in the fundamental-weight basis.  The
invariant form is normalized so that every root has squared length 2;
under that normalization the Gram matrix of the simple roots is the
Cartan matrix, root_to_weight is multiplication by it, and a weight
paired with a root is the dot product of their tuples.

Simple roots are numbered as in Bourbaki.  Positive roots are ordered
by height and then lexicographically, which fixes every downstream
basis order.
"""

from __future__ import annotations

from collections import namedtuple
from operator import mul

__all__ = [
    "InvariantViolation",
    "SimpleType",
    "RootSystem",
    "cartan_matrix",
    "dynkin_edges",
    "positive_root_count",
    "build_root_system",
    "root_to_weight",
    "weyl_dim",
]


class InvariantViolation(RuntimeError):
    """A construction-time self-check failed: the build is wrong, not the input."""


class SimpleType(namedtuple("SimpleType", "family rank")):
    """A simply laced simple type: family A, D or E plus a rank, an int and not a bool."""

    __slots__ = ()

    def __new__(cls, family: str, rank: int) -> SimpleType:
        if type(rank) is not int:
            raise ValueError(f"rank must be an int, got {rank!r}")
        if family == "A":
            if rank < 1:
                raise ValueError(f"family A requires rank >= 1, got {rank}")
        elif family == "D":
            if rank < 4:
                raise ValueError(f"family D requires rank >= 4, got {rank}")
        elif family == "E":
            if rank not in (6, 7, 8):
                raise ValueError(f"family E requires rank in {{6, 7, 8}}, got {rank}")
        else:
            raise ValueError(f"unknown family {family!r}, expected one of A, D, E")
        return super().__new__(cls, family, rank)

    @classmethod
    def _make(cls, iterable) -> SimpleType:
        # _replace builds through _make, so it validates too.
        return cls(*iterable)

    def __str__(self) -> str:
        return f"{self.family}{self.rank}"


def positive_root_count(t: SimpleType) -> int:
    """Closed-form count of positive roots for type t."""
    n = t.rank
    if t.family == "A":
        return n * (n + 1) // 2
    if t.family == "D":
        return n * (n - 1)
    return {6: 36, 7: 63, 8: 120}[n]


def dynkin_edges(t: SimpleType) -> tuple[tuple[int, int], ...]:
    """Edges of the Dynkin diagram, 0-based, Bourbaki numbering."""
    n = t.rank
    if t.family == "A":
        return tuple((i, i + 1) for i in range(n - 1))
    if t.family == "D":
        # Chain 1..n-2 with both n-1 and n attached to n-2.
        chain = [(i, i + 1) for i in range(n - 3)]
        return tuple(chain + [(n - 3, n - 2), (n - 3, n - 1)])
    # E family: chain 1-3-4-...-n with node 2 attached to node 4.
    chain = [(0, 2)] + [(i, i + 1) for i in range(2, n - 1)]
    return tuple(chain + [(1, 3)])


def cartan_matrix(t: SimpleType) -> tuple[tuple[int, ...], ...]:
    """Cartan matrix: 2 on the diagonal, -1 across each Dynkin edge."""
    n = t.rank
    c = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for i, j in dynkin_edges(t):
        c[i][j] = c[j][i] = -1
    return tuple(tuple(row) for row in c)


class RootSystem(namedtuple("RootSystem", "simple_type cartan_matrix positive_roots")):
    """Root data for one ADE type, immutable after construction.

    ``cartan_matrix`` and ``positive_roots`` are tuples of int tuples.
    ``cartan_matrix`` doubles as the Gram matrix of the simple roots in
    the simply laced normalization.  The highest root theta is
    ``positive_roots[-1]``, the only root of the greatest height.
    """

    __slots__ = ()

    @property
    def rank(self) -> int:
        return self.simple_type.rank

    @property
    def dim_g(self) -> int:
        return self.rank + 2 * len(self.positive_roots)


def build_root_system(t: SimpleType) -> RootSystem:
    """Enumerate the positive roots of type t and package the root data.

    Starting from the simple roots, each height layer is extended by
    adding simple roots.  In a simply laced root system an alpha_i-string
    through a root u != alpha_i has length at most 2, so u + alpha_i is a
    root exactly when (u, alpha_i) = -1 (Humphreys, Introduction to Lie
    Algebras, 9.4).  Enumeration stops once more roots are known than
    type t has, so a diagram whose root system is infinite fails the
    count check instead of running forever.  Every root must have
    squared length 2 and lie below the last one, theta, in each
    coordinate, which leaves theta alone at the greatest height.
    """
    c = cartan_matrix(t)
    n = t.rank
    count = positive_root_count(t)
    layer = sorted(tuple(int(i == j) for j in range(n)) for i in range(n))
    ordered = list(layer)
    while layer and len(ordered) <= count:
        layer = sorted({
            u[:i] + (u[i] + 1,) + u[i + 1:]
            for u in layer
            for i in range(n)
            if sum(map(mul, c[i], u)) == -1
        })
        ordered += layer

    if len(ordered) != count:
        raise InvariantViolation(f"enumerated {len(ordered)} positive roots, expected {count}")

    for u in ordered:
        norm = sum(u[i] * c[i][j] * u[j] for i in range(n) for j in range(n))
        if norm != 2:
            raise InvariantViolation(f"root {u} has squared length {norm}, not 2")

    theta = ordered[-1]
    for u in ordered:
        if any(a < b for a, b in zip(theta, u)):
            raise InvariantViolation(f"{u} is not below the highest root")

    return RootSystem(
        simple_type=t,
        cartan_matrix=c,
        positive_roots=tuple(ordered),
    )


def root_to_weight(rs: RootSystem, r: tuple[int, ...]) -> tuple[int, ...]:
    """Coordinates of a root in the fundamental-weight basis (Cartan matrix times coords)."""
    return tuple(sum(map(mul, row, r)) for row in rs.cartan_matrix)


def weyl_dim(rs: RootSystem, lam: tuple[int, ...]) -> int:
    """Dimension of the irreducible representation with highest weight lam.

    Evaluates the product over positive roots of (lam + rho, alpha)
    divided by (rho, alpha); both factors are integer dot products in
    our coordinates, and the quotient is checked to be exact.  A weight
    that is not dominant or a product that is not an integer means the
    root data is broken, reported fatally.
    """
    if len(lam) != rs.rank:
        raise ValueError(f"weight length must be {rs.rank}")
    if min(lam) < 0:
        raise InvariantViolation(f"weight {lam} is not dominant")
    shifted = [x + 1 for x in lam]
    num = 1
    den = 1
    for beta in rs.positive_roots:
        num *= sum(map(mul, shifted, beta))
        den *= sum(beta)
    if num % den:
        raise InvariantViolation(f"Weyl dimension product for weight {lam} is not an integer")
    return num // den
