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

The Chevalley involution, E(a) -> -F(a), F(a) -> -E(a), H(i) -> -H(i),
is an automorphism of g that preserves the form, so it commutes with
the operator.  On Sym^2 g it sends each monomial to a monomial of the
opposite weight, with sign +1.  So the block of weight -mu is the block
of mu with its monomials relabelled: SplitCasimir stores the two side
by side, the monomials of one listed as the images of the other's, and
the ideal stage compares them byte for byte and eliminates the pair
once.  The involution is written once, as a list of basis positions,
and the weight check, the duals and the partner layout all read it.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from collections.abc import Iterator, Sequence
from itertools import accumulate, combinations_with_replacement, groupby, islice, pairwise
from operator import mul

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
    """A root system and the bracket table over its Chevalley basis.

    Basis positions are laid out as all E(alpha), then all F(alpha) in
    the positive-root order, then H(1)..H(rank).  brackets maps the int
    i * dim + j, i < j, to the terms of [x_i, x_j] and holds only the
    nonzero brackets, each once; bracket(i, j) reads it and negates
    [x_j, x_i] when i > j, so antisymmetry holds by construction.  The
    per-position tables are derived from rs here, in one place:
    signed_roots[x] is the root of position x in simple-root
    coordinates, +alpha on E(alpha), -alpha on F(alpha) and zero on the
    Cartan, and weights_fw[x] is its weight.  build_chevalley reads
    them and fills brackets in place.
    """

    def __init__(self, rs: RootSystem, brackets: dict):
        self.rs = rs
        self.npos = len(rs.positive_roots)
        self.dim = rs.dim_g
        self.brackets = brackets
        negated = tuple(tuple(-x for x in u) for u in rs.positive_roots)
        self.signed_roots = rs.positive_roots + negated + ((0,) * rs.rank,) * rs.rank
        self.weights_fw = tuple(root_to_weight(rs, s) for s in self.signed_roots)

    def bracket(self, i: int, j: int) -> tuple:
        """[x_i, x_j] as a tuple of (position, integer coefficient), negated afresh when i > j."""
        if i <= j:
            return self.brackets.get(i * self.dim + j, ())
        terms = self.brackets.get(j * self.dim + i)
        return tuple([(k, -c) for k, c in terms]) if terms else ()


def build_chevalley(rs: RootSystem) -> LieAlgebra:
    """The Lie algebra of rs: its derived tables, and the bracket table filled in.

    Root-vector position a carries the signed root s_a, +alpha for E(alpha)
    and -alpha for F(alpha), and x_a = sigma_a e_(s_a) with sigma_a = 1 on
    E and -1 on F.  L = LieAlgebra(rs, {}) derives the signed roots and
    the weights; one loop over position pairs a < b, a a root vector,
    fills L.brackets: [x_a, H(i)] = -<wt(x_a), alpha_i^vee> x_a for b =
    H(i), the coroot of s_a when b is the F partner of a, otherwise
    sigma_a sigma_b sigma_k eps(s_a, s_b) x_k when s_a + s_b is the root
    s_k, and nothing otherwise.  Each bracket is keyed once, by the int
    a * dim + b, which costs less memory than an (a, b) tuple per entry.

    The sum s_a + s_b is looked up by the _weight_keys of the weights:
    the key of the sum of two weights, key[a] + key[b], determines that
    sum, and a root is determined by its weight, so it names the root
    s_a + s_b when there is one.  Equal term tuples are stored once.
    """
    L = LieAlgebra(rs, {})
    n, m, dim = rs.rank, L.npos, L.dim
    c = rs.cartan_matrix
    signed, weights, brackets = L.signed_roots, L.weights_fw, L.brackets
    sigma = [1] * m + [-1] * m
    # Bit i of masks[a] is s_a[i] mod 2 and of bmasks[a] is (B s_a)[i] mod 2,
    # so eps(s_a, s_b) = -1 exactly when masks[a] & bmasks[b] has odd parity.
    masks = [sum((x & 1) << i for i, x in enumerate(s)) for s in signed]
    bmasks = [
        sum(((s[i] + sum(s[j] for j in range(i) if c[i][j])) & 1) << i for i in range(n))
        for s in signed
    ]
    key = _weight_keys(weights)
    position = {k: a for a, k in enumerate(key[: 2 * m])}
    shared: dict = {}
    for a, (sa, ka, wa) in enumerate(zip(signed[: 2 * m], key, weights)):
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
    return L


def _weight_keys(weights: Sequence[Sequence[int]]) -> list[int]:
    """Each weight as one integer, its coordinates read as balanced digits in base 4 top + 1.

    top is the largest |coordinate| of the given weights, so each
    coordinate of a sum of two of them lies in [-2 top, 2 top]: the key
    of such a sum is the sum of the two keys, and equal keys mean equal
    sums.  The keys are Python ints, exact at every rank.
    """
    base = 4 * max(abs(x) for w in weights for x in w) + 1
    return [sum(x * base**i for i, x in enumerate(w)) for w in weights]


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
    the Lie algebra is kept.  The blocks are stored flat, in two arrays:
    the zero-weight block first, then each pair of blocks of weight keys
    -k and k side by side, the partner of key -k first, by ascending
    |k|.  _monos, an array('i'), lists the monomials of each block:
    block b is _monos[_mono_start[b] : _mono_start[b + 1]].  The
    zero-weight block and each block of key k > 0 list theirs in
    ascending order; the partner of key -k lists the Chevalley images of
    its block's monomials, in the same order, read through the position
    list that matrix() checks to negate every weight, so on a correct
    construction the two blocks of a pair hold the same entries.
    _entries, an array('b') of int8 entries, holds each block's s * s
    entries column by column, s its number of monomials, in the same
    order: block b starts at the sum of the squared sizes of the blocks
    before it, and row i of its column j lies j * s + i past that start.
    Every entry outside the blocks is zero.  int32 holds every monomial
    index and block offset: they lie below sym2_dim(dim g), 636,756 at
    D24, the largest type cli.verify takes.  degree2_ideal takes the
    blocks through release(), which checks each pair and frees it once
    the next is asked for; nnz, the number of nonzero entries, keeps its
    count, and column() stops working.
    """

    def __init__(self, L: LieAlgebra):
        self.matrix(L)

    def column(self, p: int, q: int) -> dict:
        """Image of the monomial x_p x_q, looked up in the blocks, as a fresh sparse vector.

        A position outside [0, dim) raises IndexError: sym2_index would
        read it as some other monomial.
        """
        if not self._monos:
            raise RuntimeError(
                "column() needs the weight blocks, and this operator has released them"
            )
        for x in (p, q):
            if not 0 <= x < self.dim:
                raise IndexError(f"position {x} is outside [0, {self.dim})")
        i = self._monos.index(sym2_index(self.dim, p, q))
        ms = self._mono_start
        b = bisect_right(ms, i) - 1
        lo, hi = ms[b], ms[b + 1]
        # Block b and the blocks after it fill the end of the entries: count back.
        start = len(self._entries) - sum((y - x) ** 2 for x, y in pairwise(ms[b:]))
        start += (i - lo) * (hi - lo)
        entries = self._entries[start : start + hi - lo]
        return {k: x for k, x in zip(self._monos[lo:hi], entries) if x}

    def release(self) -> Iterator[tuple[tuple[array, ...], array]]:
        """Hand over the zero-weight block, then each pair of blocks, as (monomial lists, entries).

        The zero-weight block comes with its one monomial list.  Then each
        pair of blocks of keys k and -k, from the last pair to the first,
        comes as the entries of the block of key k and two monomial lists:
        its own and its partner's, the Chevalley images of its monomials
        in the same order.  Before a pair is handed over, its two int8
        runs are compared byte for byte, and a difference, a construction
        bug, raises InvariantViolation naming a column of each block.  The
        operator is left at once with empty storage, and only dim, npos
        and nnz.  The iterator takes the storage over, and each time it is
        asked for the next pair it first cuts the one it handed over last
        off the end of its arrays, so the entries shrink as the caller goes
        and the pair it checks next is always the last 2 s * s entries
        left, s the size of its blocks.
        """
        monos, entries, mono_start = self._monos, self._entries, self._mono_start
        self._monos, self._entries, self._mono_start = array("i"), array("b"), array("i", [0])
        return _blocks_by_pair(self.dim, monos, entries, mono_start)

    def matrix(self, L: LieAlgebra) -> SplitCasimir:
        """Assemble the operator of L on the monomial basis straight into its torus-weight blocks.

        L is read here and not kept.  The monomial x_p x_q has weight
        wt(x_p) + wt(x_q), and Omega commutes with the torus, so the image
        of a monomial only involves monomials of the same weight.  The
        _weight_keys of the weights of g, the keys that build_chevalley
        finds root sums by, check the brackets, and the key of x_p x_q,
        key[p] + key[q], determines its weight.  One sort by key orders
        the monomials block by block, each block in monomial order, and
        gives the block sizes; its upper half is the zero-weight block,
        then the blocks of key k > 0.  The layout appends that zero-weight
        block and then, for each block of key k > 0, its partner of key -k,
        the Chevalley images of the block's monomials in the same order,
        followed by the block itself; the images are read from a table
        built one row at a time from omega, the images of the basis
        positions: x_p x_q maps to x_omega(p) x_omega(q).  The monomials
        and their block offsets are kept as int32 arrays, and the entry
        array is made once, at its final size.  block and local, int32
        arrays of each monomial's block and its place in that block's
        monomials, and entry_start, where each block's entries start,
        index the columns while they are filled and go when this returns;
        block reuses the image table's storage.

        The root part of column (p, q) sums [x, x_p] [dual(x), x_q] over
        root vectors x.  ad[p] maps each x with [x, x_p] != 0 to that
        bracket.  One pass over the stored keys fills it, reading a bracket
        once for each end of its key that is a root vector: 14,592 reads on
        E8.  The parallel int32 arrays invq[x], invj[x] and invc[x] hold
        (q, j, c) for every term c x_j of every nonzero [dual(x), x_q],
        sorted by q, so every product visited is nonzero.  Step p completes
        the columns (p, q), q >= p: each product is added into a short int
        list for its column, and the weight pairing (wt(x_p), wt(x_q)),
        the dot product of weights_fw[p] and signed_roots[q], onto the
        diagonal.  Each finished column is copied into its slot of the
        entry array.  An entry outside the int8 range [-128, 127] raises
        InvariantViolation there, naming its column, instead of wrapping.
        The entries of every type up to rank 8 lie in [-60, 12], E8's
        range, and those of types A and D stay in [-8, 4] at every rank
        measured, up to A24 and D16.
        Before any product, the pass over the stored keys that fills ad
        checks that every term of every stored bracket has the key of the
        sum of its two factors' weights.  Right after it, before the
        inverted index, a second check reads omega: the Chevalley image of
        every position must have the opposite key, F(a) that of E(a), and
        H(i), its own image, key 0.  The inverted bracket index and the
        image table of the layout both read omega, so this check covers
        both.  On a root vector the image is the dual, so a product [x,
        x_p] [dual(x), x_q] has the weight of x_p x_q, and every product
        lands in its column's block, which makes the rank of the operator
        exactly the sum of the block ranks.  The images of the monomials
        of key k are then exactly those of key -k, so the blocks pair up.
        A failed check is a construction bug, reported fatally.
        """
        self.dim = nn = L.dim
        self.npos = m = L.npos
        key = _weight_keys(L.weights_fw)
        # omega[x] is the position of the Chevalley image of basis vector x: F(a)
        # for E(a), E(a) for F(a), H(i) for H(i).  On a root vector it is the dual.
        omega = list(range(m, 2 * m)) + list(range(m)) + list(range(2 * m, nn))
        keys = [key[p] + key[q] for p, q in sym2_pairs(nn)]
        order = sorted(range(len(keys)), key=keys.__getitem__)
        half = [len(list(g)) for _, g in groupby(order, keys.__getitem__)]
        half = half[len(half) // 2 :]
        own = array("i", order[len(order) - sum(half) :])
        del keys, order
        # sym2_index(nn, i, j) == offset[i] + j for i <= j.
        offset = [sym2_index(nn, i, i) - i for i in range(nn)]
        # image[k] is the Chevalley image of monomial k.  block takes the table's
        # storage over once the images are read.
        block = image = array("i")
        for p, a in enumerate(omega):
            image.extend([offset[a] + b if a <= b else offset[b] + a for b in omega[p:]])
        self._monos = monos = own[: half[0]]
        sizes = half[:1]
        for lo, hi in pairwise(accumulate(half)):
            monos.extend([image[k] for k in own[lo:hi]])
            monos.extend(own[lo:hi])
            sizes += [hi - lo] * 2
        del half, own
        self._mono_start = array("i", accumulate(sizes, initial=0))
        entry_start = array("l", accumulate(map(mul, sizes, sizes), initial=0))
        self._entries = entries = array("b", [0]) * entry_start[-1]
        local = array("i", [0]) * sym2_dim(nn)
        it = iter(monos)
        for b, s in enumerate(sizes):
            # zip stops on the range before it takes from the next block.
            for i, k in zip(range(s), it):
                block[k] = b
                local[k] = i

        ad = [{} for _ in range(nn)]
        for ab, terms in L.brackets.items():
            a, b = divmod(ab, nn)
            for k, _ in terms:
                if key[k] != key[a] + key[b]:
                    raise InvariantViolation(
                        f"the bracket [x_{a}, x_{b}] has a term on x_{k}, "
                        "whose weight is not the sum of theirs"
                    )
            if a < 2 * m:
                ad[b][a] = L.bracket(a, b)
            if b < 2 * m:
                ad[a][b] = L.bracket(b, a)
        for x, y in enumerate(omega):
            if key[y] != -key[x]:
                raise InvariantViolation(
                    f"x_{x} and its Chevalley image x_{y} do not have opposite weights"
                )
        del key
        invq, invj, invc = ([array("i") for _ in range(2 * m)] for _ in range(3))
        for q, row in enumerate(ad):
            for x, u in row.items():
                d = omega[x]
                for j, c in u:
                    invq[d].append(q)
                    invj[d].append(j)
                    invc[d].append(c)
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


def _blocks_by_pair(
    nn: int, monos: array, entries: array, mono_start: array
) -> Iterator[tuple[tuple[array, ...], array]]:
    """Yield the zero-weight block, then each checked pair, last first, cutting each off the end."""
    s = mono_start[1]
    yield (monos[:s],), entries[: s * s]
    for b in reversed(range(2, len(mono_start) - 1, 2)):
        s = mono_start[b + 1] - mono_start[b]
        mid = len(entries) - s * s
        lo = mid - s * s
        own, partner = entries[mid:], entries[lo:mid]
        if own != partner:
            j = next(i for i, (x, y) in enumerate(zip(own, partner)) if x != y) // s
            p, q = next(islice(sym2_pairs(nn), monos[mono_start[b] + j], None))
            r, t = next(islice(sym2_pairs(nn), monos[mono_start[b - 1] + j], None))
            raise InvariantViolation(
                f"column x_{p} x_{q} differs from column x_{r} x_{t}, its Chevalley image"
            )
        yield (monos[mono_start[b] :], monos[mono_start[b - 1] : mono_start[b]]), own
        del monos[mono_start[b - 1] :], entries[lo:]


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
