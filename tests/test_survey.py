"""Mutation survey: the stage whose checks stop each kind of broken construction.

Each mutant is injected by monkeypatching a name that the pipeline
looks up at run time:

* the Dynkin diagram, through rootsys.dynkin_edges and
  resolution.dynkin_edges together, or through resolution.dynkin_edges
  alone;
* one entry of the Cartan matrix, through rootsys.cartan_matrix;
* one coordinate of a weight or a signed root, through
  cli.build_chevalley;
* one stored entry of the assembled operator, through cli.SplitCasimir;
* one Betti number, through cli.betti_numbers.

The survey asserts the stage that stops each mutant, not the message,
so it holds whichever of a stage's checks fires first.  Every class of
diagram and Cartan mutant is swept whole on every ADE type up to rank 8,
since those stop at the first stage; the classes that run the whole
pipeline are swept on small types only.  Three kinds of mutant are no
fault and must PASS, or PASS today for a known reason; each test says
which and why.
"""

from itertools import accumulate, combinations

import pytest

from minorbit import cli, resolution, rootsys
from minorbit.chevalley import LieAlgebra, SplitCasimir, sym2_index
from minorbit.cli import ade_types, verify
from minorbit.rootsys import InvariantViolation, SimpleType

from helpers import algebra_of, casimir_of, weight_blocks

# Types small enough to run the whole pipeline once per mutant.
SMALL = [SimpleType("A", 1), SimpleType("A", 2), SimpleType("A", 3), SimpleType("D", 4)]


def outcome(t: SimpleType) -> str:
    """The stage that stops verify(t), or PASS or FAIL when none does."""
    try:
        report = verify(t, max_degree=2)
    except InvariantViolation as exc:
        return str(exc).split(" stage: ", 1)[0]
    return "PASS" if report.passed else "FAIL"


def edge_mutants(edges: tuple, n: int) -> list[tuple]:
    """Every edge list with one edge dropped, one endpoint moved, one edge added or one self-loop added."""
    out = [tuple(f for f in edges if f != e) for e in edges]
    for e in edges:
        for keep in e:
            for w in range(n):
                new = (min(keep, w), max(keep, w))
                if w not in e and new not in edges:
                    out.append(tuple(new if f == e else f for f in edges))
    out += [edges + (e,) for e in combinations(range(n), 2) if e not in edges]
    out += [edges + ((i, i),) for i in range(n)]
    return list(dict.fromkeys(out))


def adjacency(n: int, edges: tuple) -> list[list[int]]:
    a = [[0] * n for _ in range(n)]
    for i, j in edges:
        a[i][j] += 1
        a[j][i] += 1 if i != j else 0
    return a


def relabelling(a, b):
    """A permutation p with a[i][j] == b[p[i]][p[j]] for all i and j, or None if there is none."""
    n = len(a)
    if sorted(map(sorted, a)) != sorted(map(sorted, b)):
        return None  # a permutation keeps the multiset of sorted rows

    def extend(p):
        i = len(p)
        if i == n:
            return p
        for k in range(n):
            if k not in p and a[i][i] == b[k][k] and all(
                a[i][j] == b[k][p[j]] and a[j][i] == b[p[j]][k] for j in range(i)
            ):
                found = extend(p + [k])
                if found is not None:
                    return found
        return None

    return extend([])


def same_shape(n: int, a: tuple, b: tuple) -> bool:
    """Whether edge lists a and b on n vertices give one graph, up to renaming the vertices."""
    return relabelling(adjacency(n, a), adjacency(n, b)) is not None


def is_tree(n: int, edges: tuple) -> bool:
    """Whether n - 1 edges join all n vertices."""
    reached = {0}
    for _ in range(n):
        reached |= {j for i, j in edges if i in reached} | {i for i, j in edges if j in reached}
    return len(edges) == n - 1 and len(reached) == n


class _Built(Exception):
    """Raised in place of the chevalley stage, with the root system the first stage built."""


def _stop_after_the_root_system(rs):
    raise _Built(rs)


def test_edge_mutants_cover_each_kind():
    # A3, edges (0, 1) and (1, 2): two drops, two moved endpoints (the
    # other two moves repeat an edge), one added edge and three loops.
    assert edge_mutants(((0, 1), (1, 2)), 3) == [
        ((1, 2),), ((0, 1),),
        ((0, 2), (1, 2)), ((0, 1), (0, 2)),
        ((0, 1), (1, 2), (0, 2)),
        ((0, 1), (1, 2), (0, 0)), ((0, 1), (1, 2), (1, 1)), ((0, 1), (1, 2), (2, 2)),
    ]
    assert relabelling(adjacency(3, ((0, 2), (1, 2))), adjacency(3, ((0, 1), (1, 2)))) == [0, 2, 1]
    assert relabelling(adjacency(4, ((0, 1), (1, 2), (1, 3))), adjacency(4, ((0, 1), (1, 2), (2, 3)))) is None
    assert is_tree(3, ((0, 2), (1, 2))) and not is_tree(4, ((0, 1), (1, 2), (0, 2)))


@pytest.mark.parametrize("t", ade_types(8), ids=str)
def test_diagram_mutants_stop_at_the_root_system_stage(monkeypatch, t):
    # A moved edge can give the same diagram with its vertices renamed.
    # That is another labelling of type t, not a fault, so the first
    # stage must pass it, with the real Cartan matrix permuted.  Every
    # other mutant must stop at the first stage.
    monkeypatch.setattr(cli, "build_chevalley", _stop_after_the_root_system)
    real = rootsys.dynkin_edges(t)
    real_cartan = rootsys.cartan_matrix(t)
    for edges in edge_mutants(real, t.rank):
        monkeypatch.setattr(rootsys, "dynkin_edges", lambda _, edges=edges: edges)
        monkeypatch.setattr(resolution, "dynkin_edges", lambda _, edges=edges: edges)
        if not same_shape(t.rank, edges, real):
            assert outcome(t) == "root_system", edges
        else:
            with pytest.raises(_Built) as built:
                outcome(t)
            cartan = built.value.args[0].cartan_matrix
            assert relabelling(cartan, real_cartan) is not None, edges


@pytest.mark.parametrize("t", ade_types(8), ids=str)
def test_cartan_mutants_stop_at_the_root_system_stage(monkeypatch, t):
    # Every entry of the Cartan matrix, off by one either way.
    real = rootsys.cartan_matrix(t)
    for i in range(t.rank):
        for j in range(t.rank):
            for d in (-1, 1):
                c = [list(row) for row in real]
                c[i][j] += d
                c = tuple(map(tuple, c))
                monkeypatch.setattr(rootsys, "cartan_matrix", lambda _, c=c: c)
                assert outcome(t) == "root_system", (i, j, d)


@pytest.mark.parametrize("t", [SimpleType("A", 3), SimpleType("A", 5), SimpleType("D", 5)], ids=str)
def test_relabelled_diagram_passes_the_whole_pipeline(monkeypatch, t):
    # The positive control of the diagram class: a renamed diagram is
    # type t again, so every stage passes and the verdict is PASS.
    real = rootsys.dynkin_edges(t)
    mutants = [edges for edges in edge_mutants(real, t.rank) if same_shape(t.rank, edges, real)]
    assert mutants
    for edges in mutants:
        monkeypatch.setattr(rootsys, "dynkin_edges", lambda _, edges=edges: edges)
        monkeypatch.setattr(resolution, "dynkin_edges", lambda _, edges=edges: edges)
        assert outcome(t) == "PASS", edges


# The Kleinian side sees the diagram only through resolution.dynkin_edges.
RESOLUTION_TYPES = [SimpleType("A", 4), SimpleType("D", 4)]


def _other_tree_shapes() -> list:
    params = []
    for t in RESOLUTION_TYPES:
        real = rootsys.dynkin_edges(t)
        for edges in edge_mutants(real, t.rank):
            if is_tree(t.rank, edges) and not same_shape(t.rank, edges, real):
                params.append(pytest.param(
                    t, edges, id=f"{t}-" + "-".join(f"{i}{j}" for i, j in edges)
                ))
    return params


@pytest.mark.parametrize("t", RESOLUTION_TYPES, ids=str)
def test_resolution_edge_mutants_stop_at_the_resolution_stage(monkeypatch, t):
    # A mutant that is not a tree must stop at the resolution stage.  A
    # tree of the same shape is the same resolution with its spheres
    # renamed, so it must PASS.  Trees of another shape are the known
    # hole, surveyed below.
    real = rootsys.dynkin_edges(t)
    kinds = set()
    for edges in edge_mutants(real, t.rank):
        monkeypatch.setattr(resolution, "dynkin_edges", lambda _, edges=edges: edges)
        if not is_tree(t.rank, edges):
            assert outcome(t) == "resolution", edges
            kinds.add("stopped")
        elif same_shape(t.rank, edges, real):
            assert outcome(t) == "PASS", edges
            kinds.add("renamed")
    # No moved endpoint keeps the D4 star a star.
    assert kinds == ({"stopped", "renamed"} if t.family == "A" else {"stopped"})


@pytest.mark.xfail(strict=True, reason=(
    "the Kleinian side reads only the rank n, not the shape of the tree "
    "(ROADMAP item 3), so a tree of another shape passes"
))
@pytest.mark.parametrize("t,edges", _other_tree_shapes())
def test_resolution_tree_of_another_shape_is_caught(monkeypatch, t, edges):
    monkeypatch.setattr(resolution, "dynkin_edges", lambda _: edges)
    assert outcome(t) == "resolution"


def _with_algebra(monkeypatch, L: LieAlgebra) -> None:
    monkeypatch.setattr(cli, "build_chevalley", lambda rs: L)


@pytest.mark.parametrize("t", SMALL, ids=str)
def test_weight_mutants_stop_at_the_casimir_stage(monkeypatch, t):
    # Every coordinate of every weight, off by one either way.
    L = algebra_of(t.family, t.rank)
    for x, w in enumerate(L.weights_fw):
        for i in range(t.rank):
            for d in (-1, 1):
                weights = list(L.weights_fw)
                weights[x] = w[:i] + (w[i] + d,) + w[i + 1:]
                _with_algebra(monkeypatch, LieAlgebra(L.rs, L.brackets, tuple(weights), L.signed_roots))
                assert outcome(t) == "casimir", (x, i, d)


# D4's 336 signed-root mutants, most of which reach the ideal stage, would take seconds.
@pytest.mark.parametrize("t", SMALL[:3], ids=str)
def test_signed_root_mutants_stop_at_the_casimir_or_the_ideal_stage(monkeypatch, t):
    # Only the weight pairing on the operator's diagonal reads the signed
    # roots, and column (p, q) pairs weights_fw[p] with signed_roots[q]
    # for p <= q only.  So a change that every such weight ignores
    # leaves the operator byte for byte as it was: that is no fault, and
    # it must PASS.  On A3 three changes do, those to the first coordinate
    # of the signed root of x_0, whose weight has a 0 there.  Every other
    # change must stop at the casimir stage (the scalar on E(theta)^2) or
    # the ideal stage (its dimension).
    L = algebra_of(t.family, t.rank)
    real = SplitCasimir(L)._entries
    kinds = set()
    for x, s in enumerate(L.signed_roots):
        for i in range(t.rank):
            for d in (-2, -1, 1):
                roots = list(L.signed_roots)
                roots[x] = s[:i] + (s[i] + d,) + s[i + 1:]
                bad = LieAlgebra(L.rs, L.brackets, L.weights_fw, tuple(roots))
                _with_algebra(monkeypatch, bad)
                stage = outcome(t)
                if stage == "PASS":
                    assert SplitCasimir(bad)._entries == real, (x, i, d)
                else:
                    assert stage in ("casimir", "ideal"), (x, i, d, stage)
                kinds.add(stage)
    assert kinds == ({"casimir", "ideal", "PASS"} if t == SimpleType("A", 3) else {"casimir", "ideal"})


@pytest.mark.parametrize("t", SMALL[:3], ids=str)
def test_assembly_mutants_stop_at_the_ideal_stage(monkeypatch, t):
    # Every stored entry of every block that has a partner, off by one
    # either way once the operator is assembled, as a slip in the index
    # arithmetic that places the products would leave it.  Each must stop
    # at the ideal stage, except the entry of E(theta)^2, alone in its
    # block, which the scalar check reads first, at the casimir stage.
    real = cli.SplitCasimir
    Om = casimir_of(t.family, t.rank)
    blocks = weight_blocks(Om)
    start = list(accumulate((len(data) for _, data in blocks), initial=0))
    at = sym2_index(Om.dim, Om.npos - 1, Om.npos - 1)
    top = start[next(b for b, (monos, _) in enumerate(blocks) if at in monos)]
    for i in range(start[1], len(Om._entries)):
        for d in (-1, 1):

            def build(L, i=i, d=d):
                Om = real(L)
                Om._entries[i] += d
                return Om

            monkeypatch.setattr(cli, "SplitCasimir", build)
            assert outcome(t) == ("casimir" if i == top else "ideal"), (i, d)


@pytest.mark.parametrize("t", [SimpleType("A", 1), SimpleType("A", 2), SimpleType("D", 4)], ids=str)
def test_betti_mutants_stop_at_the_resolution_stage(monkeypatch, t):
    # b0, b1 or b2 off by one either way breaks the Euler characteristic.
    for k in range(3):
        for d in (-1, 1):
            monkeypatch.setattr(
                cli, "betti_numbers",
                lambda n, k=k, d=d: [b + d * (i == k) for i, b in enumerate([1, 0, n])],
            )
            assert outcome(t) == "resolution", (k, d)
