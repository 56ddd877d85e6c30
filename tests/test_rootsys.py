"""Root system construction, pairings and Weyl dimensions."""

import pytest

from minorbit import rootsys
from minorbit.rootsys import (
    InvariantViolation,
    SimpleType,
    build_root_system,
    cartan_matrix,
    dynkin_edges,
    positive_root_count,
    root_to_weight,
    weyl_dim,
)

from helpers import a_positive_roots, d_positive_roots, e8_positive_roots, rs_of


def dot(a, b):
    return sum(x * y for x, y in zip(a, b))


ALL_TYPES = (
    [("A", r) for r in range(1, 9)]
    + [("D", r) for r in range(4, 9)]
    + [("E", r) for r in (6, 7, 8)]
)

# Known dimensions of the simple Lie algebras.
DIM_G = {
    "A1": 3, "A2": 8, "A3": 15, "A4": 24, "A5": 35, "A6": 48, "A7": 63, "A8": 80,
    "D4": 28, "D5": 45, "D6": 66, "D7": 91, "D8": 120,
    "E6": 78, "E7": 133, "E8": 248,
}


@pytest.mark.parametrize("family,rank,msg", [
    ("A", 0, "family A"),
    ("A", -3, "family A"),
    ("D", 3, "family D"),
    ("E", 5, "family E"),
    ("E", 9, "family E"),
    ("B", 2, "unknown family"),
])
def test_invalid_types_rejected(family, rank, msg):
    with pytest.raises(ValueError, match=msg):
        SimpleType(family, rank)
    with pytest.raises(ValueError, match=msg):
        SimpleType("A", 1)._replace(family=family, rank=rank)


def test_a1_is_sl2():
    rs = rs_of("A", 1)
    assert rs.positive_roots == ((1,),)
    assert rs.positive_roots[-1] == (1,)
    assert rs.dim_g == 3


def test_a2_roots_match_brute_force_closure():
    # Independent oracle: vectors with nonnegative coordinates in a small
    # box whose squared length under the A2 Cartan form equals 2.
    c = cartan_matrix(SimpleType("A", 2))
    box = [
        (x, y)
        for x in range(0, 4)
        for y in range(0, 4)
        if (x, y) != (0, 0)
    ]
    oracle = {
        v for v in box
        if sum(v[i] * c[i][j] * v[j] for i in range(2) for j in range(2)) == 2
    }
    assert oracle == {(1, 0), (0, 1), (1, 1)}
    rs = rs_of("A", 2)
    assert set(rs.positive_roots) == oracle
    assert rs.positive_roots[-1] == (1, 1)


@pytest.mark.parametrize("rank", [1, 2, 3, 4, 5, 6])
def test_a_family_roots_are_contiguous_blocks(rank):
    rs = rs_of("A", rank)
    assert set(rs.positive_roots) == a_positive_roots(rank)


@pytest.mark.parametrize("rank", [4, 5])
def test_d_family_roots_match_euclidean_model(rank):
    rs = rs_of("D", rank)
    assert set(rs.positive_roots) == d_positive_roots(rank)


def test_e8_roots_match_euclidean_model():
    rs = rs_of("E", 8)
    oracle = e8_positive_roots()
    assert len(oracle) == 120
    assert set(rs.positive_roots) == oracle


@pytest.mark.parametrize("rank,count", [(6, 36), (7, 63)])
def test_e6_e7_roots_are_the_e8_roots_they_contain(rank, count):
    # Bourbaki numbering nests E6 in E7 in E8: node k of E_rank is node k of E8.
    oracle = {r[:rank] for r in e8_positive_roots() if not any(r[rank:])}
    assert len(oracle) == count
    assert set(rs_of("E", rank).positive_roots) == oracle


def test_e6_counts():
    rs = rs_of("E", 6)
    assert len(rs.positive_roots) == 36
    assert rs.dim_g == 78
    assert len(rs.positive_roots) == (78 - 6) // 2


@pytest.mark.parametrize("family,rank", ALL_TYPES)
def test_root_counts_and_lengths(family, rank):
    rs = rs_of(family, rank)
    t = SimpleType(family, rank)
    assert len(rs.positive_roots) == positive_root_count(t)
    assert rs.dim_g == DIM_G[f"{family}{rank}"]
    for r in rs.positive_roots:
        assert type(r) is tuple and all(type(x) is int for x in r)
        assert dot(root_to_weight(rs, r), r) == 2


@pytest.mark.parametrize("family,rank", ALL_TYPES)
def test_ordering_is_by_height_then_lex(family, rank):
    rs = rs_of(family, rank)
    keys = [(sum(r), r) for r in rs.positive_roots]
    assert keys == sorted(keys)
    # Deterministic: a rebuild gives the identical sequence.
    again = build_root_system(SimpleType(family, rank))
    assert again.positive_roots == rs.positive_roots


def test_highest_root_is_dominant_and_maximal():
    for family, rank in ALL_TYPES:
        rs = rs_of(family, rank)
        theta = rs.positive_roots[-1]
        if rank > 1:
            assert sum(rs.positive_roots[-2]) < sum(theta)
        assert min(root_to_weight(rs, theta)) >= 0
        for r in rs.positive_roots:
            assert all(a >= b for a, b in zip(theta, r))


def test_root_of_the_wrong_length_fires_the_norm_check(monkeypatch):
    # A2 with Cartan entry (0, 0) lowered to 1 still has three positive
    # roots, the count A2 expects, but alpha_1 is now too short.
    real = rootsys.cartan_matrix

    def cartan(t):
        c = [list(row) for row in real(t)]
        c[0][0] -= 1
        return tuple(map(tuple, c))

    monkeypatch.setattr(rootsys, "cartan_matrix", cartan)
    with pytest.raises(InvariantViolation, match=r"^root \(1, 0\) has squared length 1, not 2$"):
        build_root_system(SimpleType("A", 2))


def test_second_root_of_the_top_height_fires_the_below_theta_check(monkeypatch):
    # A3 with an extra edge (0, 2) is the affine A2 triangle.  Enumeration
    # finds three roots of height 2 and none above, six in all, the count
    # A3 expects, each of squared length 2; but the last of them,
    # (1, 1, 0), does not dominate alpha_3 = (0, 0, 1).
    real = rootsys.dynkin_edges
    monkeypatch.setattr(rootsys, "dynkin_edges", lambda t: real(t) + ((0, 2),))
    with pytest.raises(InvariantViolation, match=r"^\(0, 0, 1\) is not below the highest root$"):
        build_root_system(SimpleType("A", 3))


def test_pairing_values():
    # A root paired with a root is its weight dotted with the other root.
    rs = rs_of("A", 2)
    a1, a2 = (1, 0), (0, 1)
    assert root_to_weight(rs, a1) == (2, -1)
    assert dot(root_to_weight(rs, a1), a2) == dot(root_to_weight(rs, a2), a1) == -1
    for family, rank in ALL_TYPES:
        rsx = rs_of(family, rank)
        theta = rsx.positive_roots[-1]
        assert dot(root_to_weight(rsx, theta), theta) == 2


def test_weyl_dim_sl2_adjoint():
    rs = rs_of("A", 1)
    assert weyl_dim(rs, (2,)) == 3


def test_weyl_dim_a2_doubled_highest_weight():
    # Frozen from the product over the three positive roots:
    # (3 * 3 * 6) / (1 * 1 * 2) = 27.
    rs = rs_of("A", 2)
    assert weyl_dim(rs, (2, 2)) == 27


def test_weyl_dim_d4_doubled_highest_weight():
    # Frozen from evaluating the product by hand: numerator
    # 1*3*1*1*4*4*4*5*5*5*6*9 = 1296000, denominator (heights) 4320.
    rs = rs_of("D", 4)
    lam = tuple(2 * x for x in root_to_weight(rs, rs.positive_roots[-1]))
    assert lam == (0, 2, 0, 0)
    assert weyl_dim(rs, lam) == 300


@pytest.mark.parametrize("family,rank", ALL_TYPES)
def test_weyl_dim_of_adjoint_is_dim_g(family, rank):
    rs = rs_of(family, rank)
    theta = root_to_weight(rs, rs.positive_roots[-1])
    assert weyl_dim(rs, theta) == rs.dim_g


def test_weyl_dim_rejects_non_dominant():
    rs = rs_of("A", 2)
    with pytest.raises(InvariantViolation, match=r"^weight \(-1, 1\) is not dominant$"):
        weyl_dim(rs, (-1, 1))
    with pytest.raises(ValueError, match="weight length must be 2"):
        weyl_dim(rs, (1, 0, 0))


def test_weyl_dim_names_the_weight():
    # With the highest root dropped, the D4 product for 2 theta is not integral.
    rs = rs_of("D", 4)
    bad = rs._replace(positive_roots=rs.positive_roots[:-1])
    with pytest.raises(InvariantViolation, match=(
        r"^Weyl dimension product for weight \(0, 2, 0, 0\) is not an integer$"
    )):
        weyl_dim(bad, (0, 2, 0, 0))


def test_weyl_dim_small_weights_are_integers():
    rs = rs_of("D", 5)
    for coords in [(1, 0, 0, 0, 0), (0, 1, 0, 0, 0), (1, 1, 0, 0, 1), (2, 0, 1, 0, 0)]:
        assert weyl_dim(rs, coords) > 0


def test_dynkin_shapes():
    assert dynkin_edges(SimpleType("A", 3)) == ((0, 1), (1, 2))
    assert dynkin_edges(SimpleType("D", 4)) == ((0, 1), (1, 2), (1, 3))
    e6 = dynkin_edges(SimpleType("E", 6))
    assert len(e6) == 5
    degree = [0] * 6
    for i, j in e6:
        degree[i] += 1
        degree[j] += 1
    assert sorted(degree) == [1, 1, 1, 2, 2, 3]


def test_cartan_matrix_is_simply_laced():
    for family, rank in ALL_TYPES:
        c = cartan_matrix(SimpleType(family, rank))
        for i in range(rank):
            assert c[i][i] == 2
            for j in range(rank):
                if i != j:
                    assert c[i][j] in (0, -1)
                assert c[i][j] == c[j][i]
