"""Chevalley bases with integer structure constants.

The basis of g is E(alpha), F(alpha) for positive roots alpha and H(i)
for the simple coroots.  Signs of root-root brackets come from a
bimultiplicative cocycle on the root lattice determined by an
orientation of the Dynkin diagram: eps(alpha, beta) = (-1)^(u^T B v)
in simple-root coordinates, where B has ones on the diagonal and a one
at (i, j) for each Dynkin edge with i > j.  With

    E(a) = e_a,   F(a) = -e_(-a),   H(i) = a_i^vee

the brackets are

    [e_a, e_b] = eps(a, b) e_(a+b)     when a + b is a root,
    [e_a, e_(-a)] = -a^vee,

which yields [E(a), F(a)] = a^vee and the familiar sl2 triples on the
simple roots.  The invariant form that matches the root normalization
(a, a) = 2 puts form(E(a), F(a)) = 1 and form(H(i), H(j)) equal to the
Cartan matrix.  Nothing here stores it: the Casimir needs only its dual
pairs (E(a), F(a)) and, on the Cartan, the weight pairing.  The test
suite builds it as a reference and checks the bracket table and the
Casimir against it.

The split Casimir is the sum over the basis of ad(x_a) tensor ad(x^a)
with x^a the form-dual basis.  On the symmetric square, realized with
monomial basis x_p x_q for p <= q, it acts column by column as

    Omega(x_p x_q) = sum_a (ad(x_a) x_p) (ad(x^a) x_q),

where the Cartan part of the sum collapses to the weight pairing
(wt(x_p), wt(x_q)) times the identity.  Every entry is an integer, and
on the square of a highest-weight vector the operator is the scalar
(theta, theta) = 2.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import combinations_with_replacement, groupby, islice, repeat
from operator import add, itemgetter, mul
from typing import Iterator

from .linalgx import SparseVec
from .rootsys import InvariantViolation, RootSystem, root_to_weight

__all__ = [
    "LieAlgebra",
    "SplitCasimir",
    "WeightBlocks",
    "build_chevalley",
    "casimir_top_eigenvalue",
    "sym2_dim",
    "sym2_index",
    "sym2_unrank",
    "sym2_pairs",
]


class LieAlgebra:
    """Bracket table and weight data over a Chevalley basis.

    Basis positions are laid out as all E(alpha), then all F(alpha) in
    the positive-root order, then H(1)..H(rank).  signed_roots[x] is
    the root of position x in simple-root coordinates: +alpha on E(alpha),
    -alpha on F(alpha) and zero on the Cartan.  Immutable in practice:
    nothing mutates the tables after construction.
    """

    def __init__(self, rs, brackets, weights_fw, signed_roots):
        self.rs = rs
        self.brackets = brackets
        self.weights_fw = weights_fw
        self.signed_roots = signed_roots

    @property
    def dim(self) -> int:
        return 2 * self.npos + self.rs.rank

    @property
    def npos(self) -> int:
        return len(self.rs.positive_roots)

    def bracket(self, i: int, j: int) -> tuple:
        """[x_i, x_j] as a tuple of (position, integer coefficient)."""
        return self.brackets.get((i, j), ())


def build_chevalley(rs: RootSystem) -> LieAlgebra:
    """Assemble the bracket table and the weights over the Chevalley basis.

    Root-vector position a carries the signed root s_a, +alpha for E(alpha)
    and -alpha for F(alpha), and x_a = sigma_a e_(s_a) with sigma_a = 1 on
    E and -1 on F.  One loop over position pairs a < b fills every
    root-root bracket: the coroot of s_a when b is the F partner of a,
    otherwise sigma_a sigma_b sigma_k eps(s_a, s_b) x_k when s_a + s_b is
    the root s_k, and nothing otherwise.
    """
    n = rs.rank
    m = len(rs.positive_roots)
    c = rs.cartan_matrix
    signed = list(rs.positive_roots) + [tuple(-x for x in u) for u in rs.positive_roots]
    position = {s: k for k, s in enumerate(signed)}
    sigma = [1] * m + [-1] * m
    # Bit i of masks[a] is s_a[i] mod 2 and of bmasks[a] is (B s_a)[i] mod 2,
    # so eps(s_a, s_b) = -1 exactly when masks[a] & bmasks[b] has odd parity.
    masks = [sum((x & 1) << i for i, x in enumerate(s)) for s in signed]
    bmasks = [
        sum(((s[i] + sum(s[j] for j in range(i) if c[i][j])) & 1) << i for i in range(n))
        for s in signed
    ]

    brackets: dict = {}

    def put(i: int, j: int, terms: tuple) -> None:
        brackets[(i, j)] = terms
        brackets[(j, i)] = tuple((k, -s) for k, s in terms)

    for a in range(2 * m):
        sa = signed[a]
        for b in range(a + 1, 2 * m):
            if b == a + m:
                put(a, b, tuple((2 * m + i, x) for i, x in enumerate(sa) if x))
            elif (k := position.get(tuple(map(add, sa, signed[b])))) is not None:
                sign = sigma[a] * sigma[b] * sigma[k]
                if (masks[a] & bmasks[b]).bit_count() & 1:
                    sign = -sign
                put(a, b, ((k, sign),))

    # Cartan action on the root vectors: H(i) scales E(a) by the i-th weight coordinate of a.
    weights = [root_to_weight(rs, u) for u in rs.positive_roots]
    for i in range(n):
        hi = 2 * m + i
        for a in range(m):
            k = weights[a][i]
            if k:
                put(hi, a, ((a, k),))
                put(hi, m + a, ((m + a, -k),))

    weights += [tuple(-x for x in w) for w in weights]
    weights += [(0,) * n] * n
    return LieAlgebra(rs, brackets, tuple(weights), tuple(signed) + ((0,) * n,) * n)


def sym2_dim(n: int) -> int:
    return n * (n + 1) // 2


def sym2_index(n: int, p: int, q: int) -> int:
    """Flat index of the monomial x_p x_q, p <= q, in row-major upper order."""
    if p > q:
        p, q = q, p
    return p * (2 * n - p - 1) // 2 + q


def sym2_unrank(n: int, k: int) -> tuple[int, int]:
    """Inverse of sym2_index."""
    p = 0
    width = n
    while k >= width:
        k -= width
        p += 1
        width -= 1
    return p, p + k


def sym2_pairs(n: int) -> Iterator[tuple[int, int]]:
    """Every pair p <= q, lazily, in sym2_index order."""
    return combinations_with_replacement(range(n), 2)


class WeightBlocks:
    """A square integer matrix on Sym^2 g, stored as dense diagonal blocks.

    blocks[b] is a pair (monos, data): monos lists the monomials of one
    torus weight in ascending order, and data holds the block's s * s
    entries column by column, s = len(monos), so the entry on row
    monos[i] of column monos[j] is data[j * s + i].  Every entry outside
    the blocks is zero.  nnz is the number of nonzero entries, counted
    as the blocks were filled: the owner may release blocks once it is
    done with them, as degree2_ideal does, and nnz keeps the count.
    """

    __slots__ = ("nrows", "nnz", "blocks", "_block", "_local")

    def __init__(self, nrows: int, monos_by_block: list[list[int]]):
        self.nrows = nrows
        self.nnz = 0
        self.blocks = [(monos, [0] * len(monos) ** 2) for monos in monos_by_block]
        self._block = block = [0] * nrows
        self._local = local = [0] * nrows
        for b, monos in enumerate(monos_by_block):
            for i, k in enumerate(monos):
                block[k] = b
                local[k] = i

    @property
    def ncols(self) -> int:
        return self.nrows

    def column(self, j: int) -> SparseVec:
        """Column j over the global monomial indices, as a fresh dict that the caller owns."""
        monos, data = self.blocks[self._block[j]]
        s = len(monos)
        start = self._local[j] * s
        return {monos[i]: x for i, x in enumerate(data[start : start + s]) if x}


class SplitCasimir:
    """Split Casimir acting on the symmetric square, assembled on demand.

    The operator is built one row of monomials at a time: ``_row(p)``
    gives the images of x_p x_q for every q >= p, in monomial order.
    ``column(p, q)`` reads one image off that row, and ``matrix()``
    writes every row straight into the dense weight blocks as it is
    built, so the operator never exists as one dict per column.
    """

    def __init__(self, L: LieAlgebra):
        self.L = L
        self.sym_dim = sym2_dim(L.dim)
        # A weight paired with a root is a dot product.
        self._weight_root = list(zip(L.weights_fw, L.signed_roots))
        # Bracket index, built once: _ad[p] maps each root vector x with
        # [x, x_p] != 0 to that bracket, and _inv[x] lists a triple
        # (q, j, c) for every term c x_j of every nonzero [dual(x), x_q],
        # sorted by q.  The root part of column (p, q) sums
        # [x, x_p] [dual(x), x_q] over the x keyed in _ad[p] whose list
        # holds q, so a row visits only nonzero products.
        m = L.npos
        nn = L.dim
        dual = list(range(m, 2 * m)) + list(range(m))
        self._ad = [{x: u for x in range(2 * m) if (u := L.bracket(x, p))} for p in range(nn)]
        self._inv = [[] for _ in range(2 * m)]
        for q, ad in enumerate(self._ad):
            for x, u in ad.items():
                self._inv[dual[x]].extend((q, j, c) for j, c in u)
        # sym2_index(nn, i, j) == _offset[i] + j for i <= j.
        self._offset = [i * (2 * nn - i - 1) // 2 for i in range(nn)]

    def weight_pairing(self, p: int, q: int) -> int:
        """(wt(x_p), wt(x_q)): the scalar the Cartan part of the operator contributes."""
        wp = self._weight_root[p][0]
        uq = self._weight_root[q][1]
        return sum(map(mul, wp, uq))

    def _row(self, p: int) -> list[SparseVec]:
        """Images of x_p x_q for q = p, p + 1, ..., in monomial order, as sparse vectors."""
        offset = self._offset
        row = [{} for _ in range(p, self.L.dim)]
        for x, terms in self._ad[p].items():
            inv = self._inv[x]
            start = bisect_left(inv, p, key=itemgetter(0))
            for i, ci in terms:
                oi = offset[i]
                for q, j, cj in islice(inv, start, None):
                    out = row[q - p]
                    k = oi + j if i <= j else offset[j] + i
                    out[k] = out.get(k, 0) + ci * cj
        base = offset[p]
        for q, out in enumerate(row, p):
            w = self.weight_pairing(p, q)
            if w:
                out[base + q] = out.get(base + q, 0) + w
        return [{k: v for k, v in out.items() if v} if 0 in out.values() else out for out in row]

    def column(self, p: int, q: int) -> SparseVec:
        """Image of the monomial x_p x_q, as a sparse vector over monomials."""
        return self._row(min(p, q))[abs(q - p)]

    def matrix(self) -> WeightBlocks:
        """Full operator on the monomial basis, written into its torus-weight blocks as it is assembled.

        The monomial x_p x_q has weight wt(x_p) + wt(x_q), and Omega
        commutes with the torus, so the image of a monomial only involves
        monomials of the same weight.  A weight is encoded as one integer,
        its coordinates read as balanced digits in base 4 top + 1, where
        top is the largest |coordinate| of a weight of g: a coordinate of
        a sum of two weights lies in [-2 top, 2 top], so the key of
        x_p x_q, which is key[p] + key[q], determines its weight.  The
        keys are Python ints, so the encoding is exact at every rank.
        Blocks come in key order, each over its monomials in monomial
        order.  Every entry is checked to lie in its column's block: an
        entry outside is a construction bug, reported fatally, and the
        check is what makes the rank of the operator exactly the sum of
        the block ranks.
        """
        nn = self.L.dim
        weights = self.L.weights_fw
        base = 4 * max(abs(x) for w in weights for x in w) + 1
        key = [sum(x * base**i for i, x in enumerate(w)) for w in weights]
        keys = [key[p] + key[q] for p, q in sym2_pairs(nn)]
        order = sorted(range(self.sym_dim), key=keys.__getitem__)
        out = WeightBlocks(self.sym_dim, [list(g) for _, g in groupby(order, keys.__getitem__)])
        block, local, blocks = out._block, out._local, out.blocks
        nnz = 0
        for p in range(nn):
            offset = self._offset[p]
            for q, col in enumerate(self._row(p), p):
                j = offset + q
                b = block[j]
                monos, data = blocks[b]
                s = len(monos)
                # Entries are nonzero, so any entry off the block is one that the gather misses.
                dense = list(map(col.get, monos, repeat(0)))
                if s - dense.count(0) != len(col):
                    r1, r2 = sym2_unrank(nn, next(r for r in col if block[r] != b))
                    raise InvariantViolation(
                        f"the image of monomial x_{p} x_{q} has an entry on x_{r1} x_{r2}, "
                        "outside its weight block"
                    )
                at = local[j] * s
                data[at : at + s] = dense
                nnz += len(col)
        out.nnz = nnz
        return out


def casimir_top_eigenvalue(Omega: SplitCasimir) -> int:
    """Scalar by which the split Casimir acts on the square of a highest-weight vector.

    The highest root is last in the positive-root order, so E(theta) is
    basis position npos - 1.  The image must be exactly a multiple of
    the same monomial, by (theta, theta) = 2, the squared length that
    build_root_system checks on every root; anything else means the
    construction is broken.
    """
    L = Omega.L
    p = L.npos - 1
    col = Omega.column(p, p)
    k = sym2_index(L.dim, p, p)
    if set(col) != {k}:
        raise InvariantViolation(
            "split Casimir does not act as a scalar on the highest-weight square"
        )
    value = col[k]
    if value != 2:
        raise InvariantViolation(
            f"Casimir scalar {value} on the highest-weight square differs from (theta, theta) = 2"
        )
    return value
