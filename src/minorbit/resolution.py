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

from .rootsys import InvariantViolation, SimpleType, dynkin_edges

__all__ = ["dynkin_tree", "betti_numbers"]


def dynkin_tree(t: SimpleType) -> int:
    """The number n of exceptional spheres for type t, once its diagram is checked to be a tree.

    The diagram, dynkin_edges(t) on the vertices 0..n-1, must have
    n - 1 edges that reach all n vertices from vertex 0.  Its n spheres
    then meet in n - 1 points, for an Euler characteristic of n + 1,
    which cli.verify checks against the Betti numbers.
    """
    n = t.rank
    edges = dynkin_edges(t)
    reached = {0}
    for _ in range(n):
        reached |= {v for e in edges if not reached.isdisjoint(e) for v in e}
    if len(edges) != n - 1 or reached != set(range(n)):
        raise InvariantViolation("diagram is not a tree")
    return n


def betti_numbers(n: int) -> list[int]:
    """Betti numbers [b0, b1, b2] of the resolution of a tree of n spheres.

    b0 = 1 (connected), b1 = 0 (tree of simply connected spheres glued
    at points), b2 = n (one class per sphere), nothing above.  The
    Poincare polynomial is 1 + n t^2, so the cohomology ring, halved in
    grading, has dimensions b0, b2 and then zero in every degree.
    """
    return [1, 0, n]

