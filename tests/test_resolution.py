"""Dynkin trees and the combinatorial resolution cohomology."""

import pytest

from minorbit import resolution
from minorbit.cli import verify
from minorbit.resolution import betti_numbers, dynkin_tree, euler_characteristic
from minorbit.rootsys import InvariantViolation, SimpleType, cartan_matrix

ALL_TYPES = (
    [("A", r) for r in range(1, 9)]
    + [("D", r) for r in range(4, 9)]
    + [("E", r) for r in (6, 7, 8)]
)


def test_a3_is_a_path():
    tr = dynkin_tree(SimpleType("A", 3))
    assert tr.n == 3
    assert set(tr.edges) == {(0, 1), (1, 2)}


def test_d4_is_a_star():
    tr = dynkin_tree(SimpleType("D", 4))
    degree = [0] * 4
    for i, j in tr.edges:
        degree[i] += 1
        degree[j] += 1
    assert sorted(degree) == [1, 1, 1, 3]


def test_e6_has_one_branch_vertex():
    tr = dynkin_tree(SimpleType("E", 6))
    assert tr.n == 6
    assert len(tr.edges) == 5
    degree = [0] * 6
    for i, j in tr.edges:
        degree[i] += 1
        degree[j] += 1
    assert degree.count(3) == 1


@pytest.mark.parametrize("family,rank", ALL_TYPES)
def test_tree_invariants(family, rank):
    t = SimpleType(family, rank)
    tr = dynkin_tree(t)
    assert len(tr.edges) == rank - 1
    c = cartan_matrix(t)
    expected_edges = {
        (i, j) for i in range(rank) for j in range(i + 1, rank) if c[i][j] == -1
    }
    assert {tuple(sorted(e)) for e in tr.edges} == expected_edges


def test_betti_small_cases():
    assert betti_numbers(dynkin_tree(SimpleType("A", 1))) == [1, 0, 1]
    assert betti_numbers(dynkin_tree(SimpleType("D", 4))) == [1, 0, 4]
    assert betti_numbers(dynkin_tree(SimpleType("E", 8))) == [1, 0, 8]


def test_euler_characteristic_values():
    assert euler_characteristic(dynkin_tree(SimpleType("A", 1))) == 2
    assert euler_characteristic(dynkin_tree(SimpleType("A", 2))) == 3
    assert euler_characteristic(dynkin_tree(SimpleType("E", 6))) == 7


@pytest.mark.parametrize("family,rank", ALL_TYPES)
def test_euler_matches_betti_alternating_sum(family, rank):
    tr = dynkin_tree(SimpleType(family, rank))
    b0, b1, b2 = betti_numbers(tr)
    assert euler_characteristic(tr) == b0 - b1 + b2
    assert euler_characteristic(tr) == rank + 1


def test_dropped_edge_fails_the_euler_check(monkeypatch):
    # A5 without its first edge has no cycle, so dynkin_tree passes it:
    # it is a forest of two trees, whose Euler characteristic 2 * 5 - 3
    # is one more than the Betti sum 1 + 5.  verify stops it at the
    # resolution stage; the root system still reads the real diagram.
    real = resolution.dynkin_edges
    monkeypatch.setattr(resolution, "dynkin_edges", lambda t: real(t)[1:])
    assert dynkin_tree(SimpleType("A", 5)).edges == real(SimpleType("A", 5))[1:]
    with pytest.raises(InvariantViolation, match=(
        "^resolution stage: A5: Euler characteristic mismatch$"
    )):
        verify(SimpleType("A", 5))


def test_cycle_fails_the_tree_check(monkeypatch):
    # Three edges on four vertices: (0, 2) closes the triangle 0-1-2
    # and leaves vertex 3 alone.
    monkeypatch.setattr(resolution, "dynkin_edges", lambda t: ((0, 1), (1, 2), (0, 2)))
    with pytest.raises(InvariantViolation, match="^diagram contains a cycle$"):
        dynkin_tree(SimpleType("A", 4))
