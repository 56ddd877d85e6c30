"""Cohomology of the minimal resolution of a Kleinian singularity.

The exceptional fiber of the minimal resolution of C^2/Gamma is a tree
of 2-spheres whose shape is the Dynkin diagram of the matching ADE
type, and the whole space contracts onto that fiber.  Everything the
verifier needs is therefore combinatorial: one degree-0 class, no
degree-1 classes (the fiber is simply connected), one degree-2 class
per sphere, and all products of positive-degree classes vanish.  In
ring terms the cohomology is Sym[h] modulo everything of degree 2 and
higher, recorded here under the convention that cohomological degree
2d matches polynomial degree d.
"""

from __future__ import annotations

from collections import namedtuple

from .rootsys import InvariantViolation, SimpleType, dynkin_edges

__all__ = ["DynkinTree", "dynkin_tree", "betti_numbers", "euler_characteristic"]


class DynkinTree(namedtuple("DynkinTree", "n edges")):
    """The Dynkin diagram as a plain tree on vertices 0..n-1, with its edges as (i, j) pairs."""

    __slots__ = ()


def dynkin_tree(t: SimpleType) -> DynkinTree:
    """Tree of exceptional spheres for type t, checked to have no cycle.

    A graph on n vertices with k edges and no cycle is a forest of
    n - k components.  cli.verify checks its Euler characteristic,
    2n - k, against the Betti sum 1 + n, which holds only at k = n - 1,
    one component: so a diagram that passes both checks is a tree.
    """
    n = t.rank
    edges = dynkin_edges(t)
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i, j in edges:
        ri, rj = find(i), find(j)
        if ri == rj:
            raise InvariantViolation("diagram contains a cycle")
        parent[ri] = rj
    return DynkinTree(n, edges)


def betti_numbers(tr: DynkinTree) -> list[int]:
    """Betti numbers [b0, b1, b2] of the resolution.

    b0 = 1 (connected), b1 = 0 (tree of simply connected spheres glued
    at points), b2 = n (one class per sphere), nothing above.  The
    Poincare polynomial is 1 + n t^2, so the cohomology ring, halved in
    grading, has dimensions b0, b2 and then zero in every degree.
    """
    return [1, 0, tr.n]


def euler_characteristic(tr: DynkinTree) -> int:
    """Euler characteristic of the tree of spheres: n spheres, one double point per edge."""
    return 2 * tr.n - len(tr.edges)
