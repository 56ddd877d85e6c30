"""Dynkin trees and the combinatorial resolution cohomology."""

import pytest

from minorbit import resolution
from minorbit.cli import verify
from minorbit.resolution import betti_numbers, dynkin_tree
from minorbit.rootsys import InvariantViolation, SimpleType, cartan_matrix, dynkin_edges

ALL_TYPES = (
    [("A", r) for r in range(1, 9)]
    + [("D", r) for r in range(4, 9)]
    + [("E", r) for r in (6, 7, 8)]
)


def test_a3_is_a_path():
    t = SimpleType("A", 3)
    assert dynkin_tree(t) == 3
    assert set(dynkin_edges(t)) == {(0, 1), (1, 2)}


def test_d4_is_a_star():
    t = SimpleType("D", 4)
    assert dynkin_tree(t) == 4
    degree = [0] * 4
    for i, j in dynkin_edges(t):
        degree[i] += 1
        degree[j] += 1
    assert sorted(degree) == [1, 1, 1, 3]


def test_e6_has_one_branch_vertex():
    t = SimpleType("E", 6)
    assert dynkin_tree(t) == 6
    edges = dynkin_edges(t)
    assert len(edges) == 5
    degree = [0] * 6
    for i, j in edges:
        degree[i] += 1
        degree[j] += 1
    assert degree.count(3) == 1


@pytest.mark.parametrize("family,rank", ALL_TYPES)
def test_tree_invariants(family, rank):
    t = SimpleType(family, rank)
    assert dynkin_tree(t) == rank
    edges = dynkin_edges(t)
    assert len(edges) == rank - 1
    c = cartan_matrix(t)
    expected_edges = {
        (i, j) for i in range(rank) for j in range(i + 1, rank) if c[i][j] == -1
    }
    assert {tuple(sorted(e)) for e in edges} == expected_edges


def test_betti_small_cases():
    assert betti_numbers(dynkin_tree(SimpleType("A", 1))) == [1, 0, 1]
    assert betti_numbers(dynkin_tree(SimpleType("D", 4))) == [1, 0, 4]
    assert betti_numbers(dynkin_tree(SimpleType("E", 8))) == [1, 0, 8]


@pytest.mark.parametrize("family,rank", ALL_TYPES)
def test_euler_matches_betti_alternating_sum(family, rank):
    # n spheres meeting in n - 1 points: Euler characteristic 2n - (n - 1).
    b0, b1, b2 = betti_numbers(dynkin_tree(SimpleType(family, rank)))
    assert b0 - b1 + b2 == rank + 1


def test_dropped_edge_fails_the_tree_check(monkeypatch):
    # A5 without its first edge is a forest of two trees.  verify stops it
    # at the resolution stage; the root system still reads the real diagram.
    real = resolution.dynkin_edges
    monkeypatch.setattr(resolution, "dynkin_edges", lambda t: real(t)[1:])
    with pytest.raises(InvariantViolation, match=(
        "^resolution stage: A5: diagram is not a tree$"
    )):
        verify(SimpleType("A", 5))


# Each non-tree on A4, whose diagram is the path (0, 1), (1, 2), (2, 3).
NON_TREES = {
    # (0, 2) closes the triangle 0-1-2 and leaves vertex 3 alone.
    "cycle": ((0, 1), (1, 2), (0, 2)),
    "dropped-edge": ((0, 1), (1, 2)),
    "added-edge": ((0, 1), (1, 2), (2, 3), (0, 3)),
    # Three edges, as in a tree, but (3, 3) reaches no new vertex.
    "self-loop": ((0, 1), (1, 2), (3, 3)),
}


@pytest.mark.parametrize("edges", NON_TREES.values(), ids=NON_TREES.keys())
def test_non_tree_fails_the_tree_check(monkeypatch, edges):
    assert resolution.dynkin_edges(SimpleType("A", 4)) == ((0, 1), (1, 2), (2, 3))
    monkeypatch.setattr(resolution, "dynkin_edges", lambda t: edges)
    with pytest.raises(InvariantViolation, match="^diagram is not a tree$"):
        dynkin_tree(SimpleType("A", 4))
