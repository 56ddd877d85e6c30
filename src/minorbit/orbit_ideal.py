"""Quadratic part of the minimal-nilpotent-orbit ideal and its Cartan image.

The degree-2 component of the orbit ideal is the image of (Omega - c)
on the symmetric square of g, where Omega is the split Casimir and c
its scalar on the square of a highest-weight vector: the operator acts
by distinct scalars on the irreducible summands, the top summand is the
kernel of the shift, and everything else is the ideal.  The image is
taken one torus-weight block at a time, in integer arithmetic, and its
dimension is checked against the Weyl dimension formula at every
construction.

Restriction to the Cartan subalgebra sends E and F coordinates to zero
and H(i) to the polynomial variable h_i; quotienting Sym[h] by the span
of the restricted quadrics yields the graded dimensions the verifier
compares against the resolution cohomology.  A quadric on the Cartan is
an integer vector over the monomials h_i h_j, indexed as
sym2_index(rank, i, j): the Cartan monomials of Sym^2 g come last in
exactly that order, so restriction is a shift of the index.
"""

from __future__ import annotations

from array import array
from collections import namedtuple
from collections.abc import Sequence
from itertools import combinations_with_replacement, product
from types import SimpleNamespace

from .chevalley import SplitCasimir, sym2_dim
from .linalgx import EchelonBasis, append_and_rank, image_basis, pivot_rows
from .rootsys import InvariantViolation, RootSystem, root_to_weight, weyl_dim

__all__ = [
    "IdealDegree2",
    "degree2_ideal",
    "projected_span",
    "quotient_hilbert",
    "hilbert_from_quadrics",
    "monomial_exponents",
]


class IdealDegree2(namedtuple("IdealDegree2", "basis dim_v2theta")):
    """A basis of the degree-2 ideal component inside Sym^2 g.

    basis.vectors lists dim integer vectors over the monomials of
    Sym^2 g that together span the ideal, block by block in the order
    release() hands the blocks over: first the canonical echelon basis
    of the zero-weight block's part of the ideal, then, for each pair of
    blocks of keys k and -k from the last pair to the first, the pivot
    rows of the block of key k, which are independent but not in echelon
    form, and the same rows over its partner's monomials.  Pairs whose
    entries are equal byte for byte get the same rows, each pair over
    its own monomials.
    dim_v2theta is the Weyl dimension of V(2 theta), the kernel of the
    shift, which the ideal dimension was checked against.
    """

    __slots__ = ()

    @property
    def dim(self) -> int:
        return len(self.basis.vectors)


def degree2_ideal(rs: RootSystem, Omega: SplitCasimir, c) -> IdealDegree2:
    """A basis of the image of (Omega - c) on Sym^2 g, with its dimension verified.

    rs is the root system of g; the bracket table is not read here.  The
    operator comes assembled in its torus-weight blocks, which
    Omega.release() hands over: the zero-weight block first, then each
    pair of blocks of opposite weights, from the last pair to the first,
    once their entries are found equal byte for byte, freeing each pair
    once the next one is asked for.  So this uses the operator up:
    afterwards its blocks are gone, and only dim, npos and nnz, the
    count of its entries, are left.  A block is read into int lists,
    one per column, with c subtracted on its diagonal, and eliminated
    in its own coordinates.
    The zero-weight block, the only one that holds the Cartan monomials
    H(i) H(j) that projected_span reads, gives its image_basis.  A pair
    gives the pivot_rows of one block, as many as its rank, each row
    emitted twice: once over the block's monomials and once over its
    partner's, the Chevalley images of the same monomials in the same
    order, since the two blocks are the same matrix.  Most pairs repeat
    another's int8 entries byte for byte (E8's 1,200 pairs that the
    shift leaves nonzero hold 177 distinct runs), and pivot_rows is
    deterministic, so a pair's rows depend on its bytes alone.  A pair
    is eliminated the first and the second time its run is met; the
    second time its rows are kept, keyed by the bytes, and every later
    pair with that run reuses them over its own two monomial lists.  A
    run met once leaves only its hash, so rows are kept just for the
    runs that recur.  E8 makes 236 eliminations for its 4,680 pairs,
    3,480 of them 1 x 1 blocks that the shift leaves zero, and keeps
    the rows of 58 runs.
    Local coordinates map back through each monomial list, made once
    per list, so the vectors of a block share its monomial ints.  The
    block supports are disjoint, so the vectors of all blocks together
    are independent.  A count other than dim Sym^2 g minus the Weyl
    dimension of the doubled highest weight is a construction bug,
    reported fatally, as is a pair whose blocks differ.
    """
    nrows = sym2_dim(rs.dim_g)
    blocks = Omega.release()
    (monos,), data = next(blocks)
    s = len(monos)
    monos = monos.tolist()
    basis = image_basis(s, _shifted_columns(data, s, c))
    vectors = [{monos[i]: x for i, x in v.items()} for v in basis.vectors]
    # The hashes of the entry runs met once, and the rows of the runs met again.
    seen, known = set(), {}
    for lists, data in blocks:
        raw = data.tobytes()
        rows = known.get(raw)
        if rows is None:
            s = len(lists[0])
            rows = pivot_rows(s, _shifted_columns(data, s, c))
            if (h := hash(raw)) in seen:
                known[raw] = rows
            seen.add(h)
        if not rows:
            continue
        for monos in lists:
            monos = monos.tolist()
            vectors += ({m: x for m, x in zip(monos, row) if x} for row in rows)
    theta2 = tuple(2 * x for x in root_to_weight(rs, rs.positive_roots[-1]))
    dim_v2theta = weyl_dim(rs, theta2)
    expected = nrows - dim_v2theta
    dim = len(vectors)
    if dim != expected:
        raise InvariantViolation(f"degree-2 ideal has dimension {dim}, expected {expected}")
    return IdealDegree2(SimpleNamespace(vectors=vectors), dim_v2theta)


def _shifted_columns(data: array, s: int, c) -> list[list[int]]:
    """The int8 entries of an s x s block, c subtracted on the diagonal, as s int list columns."""
    data = data.tolist()
    data[:: s + 1] = [x - c for x in data[:: s + 1]]
    return [data[j : j + s] for j in range(0, s * s, s)]


def projected_span(rs: RootSystem, I2: IdealDegree2) -> tuple[int, EchelonBasis]:
    """Restrict the ideal basis vectors to the Cartan and span inside Sym^2 h.

    The Cartan monomials H(i) H(j) are the last rank(rank+1)/2
    monomials of Sym^2 g, in the order of Sym^2 h, so restriction drops
    the lower indices and shifts the rest.  Only a vector whose highest
    coordinate reaches H(1)^2 restricts to a nonzero quadric; the
    others are skipped.  The expected rank is rank(rank+1)/2;
    falling short is a verification failure for the caller to report,
    not an error here.
    """
    first = sym2_dim(rs.dim_g) - sym2_dim(rs.rank)
    basis = EchelonBasis(sym2_dim(rs.rank))
    for vec in I2.basis.vectors:
        if max(vec) >= first:
            append_and_rank(basis, {k - first: c for k, c in vec.items() if k >= first})
    return len(basis), basis


def monomial_exponents(n: int, d: int) -> list[tuple[int, ...]]:
    """All degree-d exponent vectors over n variables, deterministic order."""
    out = []
    for combo in combinations_with_replacement(range(n), d):
        exp = [0] * n
        for v in combo:
            exp[v] += 1
        out.append(tuple(exp))
    return out


def hilbert_from_quadrics(
    n: int, quadrics: Sequence[dict], max_degree: int
) -> list[int]:
    """Hilbert function of Sym[h] modulo the ideal generated by the quadrics.

    Each quadric is an integer vector over Sym^2 h in the order of
    monomial_exponents(n, 2), which is the sym2_index(n, i, j) order.

    In each degree d the ideal piece is spanned by the quadrics times
    all degree d-2 monomials; its rank is accumulated incrementally and
    the loop stops early once the whole degree is filled.  Once a degree
    is wholly in the ideal, so is every higher one (Sym^(d+1) = h Sym^d),
    and the remaining degrees are zero without being computed.
    """
    if max_degree < 2:
        raise ValueError(f"max_degree must be at least 2, got {max_degree}")
    dims = [1, n]
    exps = monomial_exponents(n, 2)
    gens = [[(exps[k], c) for k, c in g.items()] for g in quadrics if g]
    for d in range(2, max_degree + 1):
        monos = exps if d == 2 else monomial_exponents(n, d)
        pos = {e: i for i, e in enumerate(monos)}
        extras = monomial_exponents(n, d - 2)
        basis = EchelonBasis(len(monos))
        for g, extra in product(gens, extras):
            vec = {}
            for e, c in g:
                key = tuple(a + b for a, b in zip(e, extra))
                vec[pos[key]] = c
            append_and_rank(basis, vec)
            if len(basis) == len(monos):
                break
        dims.append(len(monos) - len(basis))
        if dims[-1] == 0:
            break
    return dims + [0] * (max_degree + 1 - len(dims))


def quotient_hilbert(rs: RootSystem, projected: EchelonBasis, max_degree: int) -> list[int]:
    """Graded dimensions of Sym[h] modulo the projected degree-2 ideal, h the Cartan of rs."""
    return hilbert_from_quadrics(rs.rank, projected.vectors, max_degree)
