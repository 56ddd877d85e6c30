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
simple roots; each nonzero bracket is stored once, and its reverse is
its negation.  The invariant form that matches the root normalization
(a, a) = 2 puts form(E(a), F(a)) = 1 and form(H(i), H(j)) equal to the
Cartan matrix.  Nothing here stores it: the Casimir needs only its dual
pairs (E(a), F(a)) and, on the Cartan, the weight pairing; the tests
build it as a reference for the bracket table and the Casimir.

The split Casimir is the sum over the basis of ad(x_a) tensor ad(x^a)
with x^a the form-dual basis.  On the symmetric square, realized with
monomial basis x_p x_q for p <= q, it acts column by column as

    Omega(x_p x_q) = sum_a (ad(x_a) x_p) (ad(x^a) x_q),

where the Cartan part of the sum collapses to the weight pairing
(wt(x_p), wt(x_q)) times the identity.  Every entry is an integer, and
on the square of a highest-weight vector the operator is the scalar
(theta, theta) = 2.  It commutes with the torus, so SplitCasimir
assembles it once, straight into dense blocks of one weight each.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from collections.abc import Iterator, Sequence
from itertools import accumulate, combinations_with_replacement, groupby
from operator import mul

from .linalgx import SparseVec
from .rootsys import InvariantViolation, RootSystem, root_to_weight

__all__ = [
    "LieAlgebra",
    "SplitCasimir",
    "build_chevalley",
    "casimir_top_eigenvalue",
    "sym2_dim",
    "sym2_index",
    "sym2_pairs",
]


class LieAlgebra:
    """Bracket table and weight data over a Chevalley basis.

    Basis positions are laid out as all E(alpha), then all F(alpha) in
    the positive-root order, then H(1)..H(rank).  brackets maps the int
    i * dim + j, i < j, to the terms of [x_i, x_j] and holds only the
    nonzero brackets, each once; bracket(i, j) reads it and negates
    [x_j, x_i] when i > j, so antisymmetry holds by construction.
    signed_roots[x] is the root of position x in simple-root
    coordinates: +alpha on E(alpha), -alpha on F(alpha) and zero on the
    Cartan.  Immutable in practice: nothing mutates the tables.
    """

    def __init__(self, rs, brackets, weights_fw, signed_roots):
        self.rs = rs
        self.npos = len(rs.positive_roots)
        self.dim = 2 * self.npos + rs.rank
        self.brackets = brackets
        self.weights_fw = weights_fw
        self.signed_roots = signed_roots

    def bracket(self, i: int, j: int) -> tuple:
        """[x_i, x_j] as a tuple of (position, integer coefficient), negated afresh when i > j."""
        if i <= j:
            return self.brackets.get(i * self.dim + j, ())
        terms = self.brackets.get(j * self.dim + i)
        return tuple([(k, -c) for k, c in terms]) if terms else ()


def build_chevalley(rs: RootSystem) -> LieAlgebra:
    """Assemble the bracket table and the weights over the Chevalley basis.

    Root-vector position a carries the signed root s_a, +alpha for E(alpha)
    and -alpha for F(alpha), and x_a = sigma_a e_(s_a) with sigma_a = 1 on
    E and -1 on F.  One loop over position pairs a < b, a a root vector,
    fills the table: [x_a, H(i)] = -<wt(x_a), alpha_i^vee> x_a for b =
    H(i), the coroot of s_a when b is the F partner of a, otherwise
    sigma_a sigma_b sigma_k eps(s_a, s_b) x_k when s_a + s_b is the root
    s_k, and nothing otherwise.  Each bracket is keyed once, by the int
    a * dim + b, which costs less memory than an (a, b) tuple per entry.

    The sum s_a + s_b is looked up by integer key: the balanced digits
    of each signed root in base 4 max(theta) + 1.  Theta dominates every
    root, so each coordinate of a sum of two roots lies in
    [-2 max(theta), 2 max(theta)], and the key of the sum, key[a] +
    key[b], determines the sum.  Equal term tuples are stored once.
    """
    n = rs.rank
    m = len(rs.positive_roots)
    dim = 2 * m + n
    c = rs.cartan_matrix
    signed = list(rs.positive_roots) + [tuple(-x for x in u) for u in rs.positive_roots]
    base = 4 * max(rs.positive_roots[-1]) + 1
    key = [_balanced_key(s, base) for s in signed]
    position = {k: a for a, k in enumerate(key)}
    sigma = [1] * m + [-1] * m
    # Bit i of masks[a] is s_a[i] mod 2 and of bmasks[a] is (B s_a)[i] mod 2,
    # so eps(s_a, s_b) = -1 exactly when masks[a] & bmasks[b] has odd parity.
    masks = [sum((x & 1) << i for i, x in enumerate(s)) for s in signed]
    bmasks = [
        sum(((s[i] + sum(s[j] for j in range(i) if c[i][j])) & 1) << i for i in range(n))
        for s in signed
    ]

    weights = [root_to_weight(rs, u) for u in rs.positive_roots]
    weights += [tuple(-x for x in w) for w in weights]
    weights += [(0,) * n] * n
    brackets: dict = {}
    shared: dict = {}
    for a in range(2 * m):
        sa = signed[a]
        ka = key[a]
        wa = weights[a]
        for b in range(a + 1, dim):
            if b >= 2 * m:
                if not (x := wa[b - 2 * m]):
                    continue
                terms = ((a, -x),)
            elif b == a + m:
                terms = tuple((2 * m + i, x) for i, x in enumerate(sa) if x)
            elif (k := position.get(ka + key[b])) is not None:
                sign = sigma[a] * sigma[b] * sigma[k]
                if (masks[a] & bmasks[b]).bit_count() & 1:
                    sign = -sign
                terms = ((k, sign),)
            else:
                continue
            brackets[a * dim + b] = shared.setdefault(terms, terms)
    return LieAlgebra(rs, brackets, tuple(weights), tuple(signed) + ((0,) * n,) * n)


def _balanced_key(v: Sequence[int], base: int) -> int:
    """The int tuple v as one integer, its coordinates read as balanced digits in base.

    Tuples whose coordinates all lie in [-(base - 1) / 2, (base - 1) / 2]
    get distinct keys, and the key of a sum is the sum of the keys.
    """
    return sum(x * base**i for i, x in enumerate(v))


def sym2_dim(n: int) -> int:
    return n * (n + 1) // 2


def sym2_index(n: int, p: int, q: int) -> int:
    """Flat index of the monomial x_p x_q, p <= q, in row-major upper order."""
    if p > q:
        p, q = q, p
    return p * (2 * n - p - 1) // 2 + q


def sym2_pairs(n: int) -> Iterator[tuple[int, int]]:
    """Every pair p <= q, lazily, in sym2_index order."""
    return combinations_with_replacement(range(n), 2)


class SplitCasimir:
    """The split Casimir on the symmetric square, assembled once into its torus-weight blocks.

    dim is dim g and npos the number of positive roots; nothing else of
    the Lie algebra is kept.  The blocks are stored flat, in block
    (weight key) order, in two arrays.  _monos, an array('i'), lists the
    monomials of each block in ascending order: block b is
    _monos[_mono_start[b] : _mono_start[b + 1]].  _entries, an
    array('b') of int8 entries, holds each block's s * s entries column
    by column, s its number of monomials, from _entry_start[b] on: row
    i of column j of block b is _entries[_entry_start[b] + j * s + i].
    Every entry outside the blocks is zero.  int32 holds every monomial
    index and block offset: they lie below sym2_dim(dim g), 636,756 at
    D24, the largest type cli.verify takes.  degree2_ideal takes the
    blocks through release(), which frees each once the next is asked
    for; nnz, the number of nonzero entries, keeps its count, and
    column() stops working.
    """

    def __init__(self, L: LieAlgebra):
        self.matrix(L)

    def column(self, p: int, q: int) -> SparseVec:
        """Image of the monomial x_p x_q, looked up in the blocks, as a fresh sparse vector."""
        if not self._monos:
            raise RuntimeError(
                "column() needs the weight blocks, and this operator has released them"
            )
        i = self._monos.index(sym2_index(self.dim, p, q))
        b = bisect_right(self._mono_start, i) - 1
        lo, hi = self._mono_start[b], self._mono_start[b + 1]
        start = self._entry_start[b] + (i - lo) * (hi - lo)
        entries = self._entries[start : start + hi - lo]
        return {k: x for k, x in zip(self._monos[lo:hi], entries) if x}

    def release(self) -> Iterator[tuple[array, array]]:
        """Hand the blocks over, last key first, as (monomials, entries) pairs of arrays.

        The operator is left at once with empty storage, and only dim,
        npos and nnz.  The iterator takes the storage over, and each
        time it is asked for the next block it first cuts the one it
        handed over last off the end of its arrays, so the entries shrink
        as the caller goes.
        """
        monos, entries = self._monos, self._entries
        mono_start, entry_start = self._mono_start, self._entry_start
        self._monos, self._entries = array("i"), array("b")
        self._mono_start, self._entry_start = array("i", [0]), array("l", [0])
        return _last_block_first(monos, entries, mono_start, entry_start)

    def matrix(self, L: LieAlgebra) -> SplitCasimir:
        """Assemble the operator of L on the monomial basis straight into its torus-weight blocks.

        L is read here and not kept.  The monomial x_p x_q has weight
        wt(x_p) + wt(x_q), and Omega commutes with the torus, so the image
        of a monomial only involves monomials of the same weight.  A
        weight is encoded as one integer, its coordinates read as balanced
        digits in base 4 top + 1, where top is the largest |coordinate| of
        a weight of g: a coordinate of a sum of two weights lies in
        [-2 top, 2 top], so the key of x_p x_q, which is key[p] + key[q],
        determines its weight.  The keys are Python ints, so the encoding
        is exact at every rank.  One sort by key orders the monomials
        block by block, each block in monomial order, and gives the block
        sizes.  The monomials and their block offsets are kept as int32
        arrays, and the entry array is made once, at its final size.
        block and local, each monomial's block and its place in that
        block's monomials, index the columns while they are filled and go
        when this returns.

        The root part of column (p, q) sums [x, x_p] [dual(x), x_q] over
        root vectors x.  ad[p] maps each x with [x, x_p] != 0 to that
        bracket, and the parallel int32 arrays invq[x], invj[x] and
        invc[x] hold (q, j, c) for every term c x_j of every nonzero
        [dual(x), x_q], sorted by q, so every product visited is
        nonzero.  Step p completes the columns (p, q), q >= p: each
        product is added into a short int list for its column, and the
        weight pairing (wt(x_p), wt(x_q)), the dot product of
        weights_fw[p] and signed_roots[q], onto the diagonal.  Each finished column is
        copied into its slot of the entry array.  An entry outside the
        int8 range [-128, 127] raises InvariantViolation there, naming
        its column, instead of wrapping.  The entries of every type up to
        rank 8 lie in [-60, 12], E8's range, and those of types A and D
        stay in [-8, 4] at every rank measured, up to A24 and D16.
        Before any product, one pass checks that every term of every
        stored bracket, each of which ad reads, has the key of the sum
        of its two factors' weights.  The coroot [E(a), F(a)] is among
        them, with its terms on the Cartan, of key 0, so the dual of
        every root vector has the opposite key.  A product
        [x, x_p] [dual(x), x_q] then has the weight of x_p x_q, so every
        product lands in its column's block, which makes the rank of the
        operator exactly the sum of the block ranks.  A failed check is
        a construction bug, reported fatally.
        """
        self.dim = nn = L.dim
        self.npos = m = L.npos
        base = 4 * max(abs(x) for w in L.weights_fw for x in w) + 1
        key = [_balanced_key(w, base) for w in L.weights_fw]
        dual = list(range(m, 2 * m)) + list(range(m))
        for ab, terms in L.brackets.items():
            a, b = divmod(ab, nn)
            for k, _ in terms:
                if key[k] != key[a] + key[b]:
                    raise InvariantViolation(
                        f"the bracket [x_{a}, x_{b}] has a term on x_{k}, "
                        "whose weight is not the sum of theirs"
                    )
        keys = [key[p] + key[q] for p, q in sym2_pairs(nn)]
        order = sorted(range(len(keys)), key=keys.__getitem__)
        self._monos = monos = array("i", order)
        sizes = array("l", [len(list(g)) for _, g in groupby(order, keys.__getitem__)])
        del key, keys, order
        self._mono_start = array("i", accumulate(sizes, initial=0))
        self._entry_start = entry_start = array("l", accumulate(map(mul, sizes, sizes), initial=0))
        self._entries = entries = array("b", [0]) * entry_start[-1]
        block = array("i", [0]) * sym2_dim(nn)
        local = [0] * sym2_dim(nn)
        it = iter(monos)
        for b, s in enumerate(sizes):
            # zip stops on the range before it takes from the next block.
            for i, k in zip(range(s), it):
                block[k] = b
                local[k] = i

        ad = [{x: u for x in range(2 * m) if (u := L.bracket(x, p))} for p in range(nn)]
        invq, invj, invc = ([array("i") for _ in range(2 * m)] for _ in range(3))
        for q, row in enumerate(ad):
            for x, u in row.items():
                d = dual[x]
                for j, c in u:
                    invq[d].append(q)
                    invj[d].append(j)
                    invc[d].append(c)
        # sym2_index(nn, i, j) == offset[i] + j for i <= j.
        offset = [i * (2 * nn - i - 1) // 2 for i in range(nn)]
        roots = L.signed_roots
        # Each finished column goes into its slot through buf, by fromlist, which
        # costs less than a new array per column and checks the int8 range.
        buf = array("b")

        for p in range(nn):
            # Column (p, q) is monomial op + q; its block and list are indexed by q >= p.
            op = offset[p]
            cblock = block[op : op + nn]
            cols = [None] * p + [[0] * sizes[b] for b in cblock[p:]]
            for x, terms in ad[p].items():
                qs = invq[x]
                first = bisect_left(qs, p)
                qs, js, cs = qs[first:], invj[x][first:], invc[x][first:]
                for i, ci in terms:
                    oi = offset[i]
                    for q, j, cj in zip(qs, js, cs):
                        k = oi + j if i <= j else offset[j] + i
                        cols[q][local[k]] += ci * cj
            wp = L.weights_fw[p]
            for q, col, j, b, root in zip(
                range(p, nn), cols[p:], local[op + p : op + nn], cblock[p:], roots[p:]
            ):
                w = sum(map(mul, wp, root))
                if w:
                    col[j] += w
                s = len(col)
                start = entry_start[b] + j * s
                try:
                    buf.fromlist(col)
                except OverflowError:
                    x = next(x for x in col if not -128 <= x <= 127)
                    raise InvariantViolation(
                        f"column x_{p} x_{q} has the entry {x}, outside the int8 range [-128, 127]"
                    ) from None
                entries[start : start + s] = buf
                del buf[:]

        self.nnz = len(entries) - entries.count(0)
        return self


def _last_block_first(
    monos: array, entries: array, mono_start: array, entry_start: array
) -> Iterator[tuple[array, array]]:
    """Yield each block of the flat storage, last first, then cut it off the arrays."""
    for b in reversed(range(len(mono_start) - 1)):
        yield monos[mono_start[b] :], entries[entry_start[b] :]
        del monos[mono_start[b] :], entries[entry_start[b] :]


def casimir_top_eigenvalue(Omega: SplitCasimir) -> int:
    """Scalar by which the split Casimir acts on the square of a highest-weight vector.

    The highest root is last in the positive-root order, so E(theta) is
    basis position npos - 1.  E(theta)^2 is the only monomial of weight
    2 theta, and matrix() keeps every product inside its column's weight
    block, so the column holds no other entry.  Its diagonal entry must
    be (theta, theta) = 2, the squared length that build_root_system
    checks on every root; anything else, 0 included, means the
    construction is broken.
    """
    p = Omega.npos - 1
    value = Omega.column(p, p).get(sym2_index(Omega.dim, p, p), 0)
    if value != 2:
        raise InvariantViolation(
            f"Casimir scalar {value} on the highest-weight square differs from (theta, theta) = 2"
        )
    return value
