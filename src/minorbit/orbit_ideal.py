"""Quadratic part of the minimal-nilpotent-orbit ideal and its Cartan image.

The degree-2 component of the orbit ideal is the image of (Omega - c)
on the symmetric square of g, where Omega is the split Casimir and c
its scalar on the square of a highest-weight vector: the operator acts
by distinct scalars on the irreducible summands, the top summand is the
kernel of the shift, and everything else is the ideal.  The dimension
of the image is checked against the Weyl dimension formula at every
construction.

Restriction to the Cartan subalgebra sends E and F coordinates to zero
and H(i) to the polynomial variable h_i; quotienting Sym[h] by the span
of the restricted quadrics yields the graded dimensions the verifier
compares against the resolution cohomology.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement
from typing import Iterable, Mapping, Sequence

from .chevalley import LieAlgebra, SplitCasimir, sym2_dim, sym2_index, sym2_unrank
from .linalgx import EchelonBasis, SparseMatrix, append_and_rank, image_basis
from .rootsys import InvariantViolation, root_to_weight, weyl_dim

__all__ = [
    "CartanPolynomial",
    "IdealDegree2",
    "degree2_ideal",
    "restrict_to_cartan",
    "projected_span",
    "span_in_sym2h",
    "cartan_pair_generators",
    "quotient_hilbert",
    "hilbert_from_quadrics",
    "monomial_exponents",
]


@dataclass
class CartanPolynomial:
    """Homogeneous polynomial on the Cartan subalgebra, as an exponent-vector map."""

    coeffs: dict
    degree: int
    nvars: int

    def __post_init__(self) -> None:
        clean: dict = {}
        for exp, c in self.coeffs.items():
            c = Fraction(c)
            if not c:
                continue
            if len(exp) != self.nvars:
                raise ValueError(f"exponent vector {exp} has wrong length")
            if sum(exp) != self.degree:
                raise ValueError(f"monomial {exp} is not of degree {self.degree}")
            clean[tuple(exp)] = c
        self.coeffs = clean

    def is_zero(self) -> bool:
        return not self.coeffs


@dataclass
class IdealDegree2:
    """Echelon basis of the degree-2 ideal component inside Sym^2 g."""

    basis: EchelonBasis

    @property
    def dim(self) -> int:
        return len(self.basis)


def degree2_ideal(L: LieAlgebra, Omega: SplitCasimir, c) -> IdealDegree2:
    """Image basis of (Omega - c) on Sym^2 g, with its dimension verified.

    A mismatch against dim Sym^2 g minus the Weyl dimension of the
    doubled highest weight is a construction bug, reported fatally.
    """
    mat = Omega.matrix()
    shifted = SparseMatrix(mat.nrows, mat.ncols, mat.entries)
    for d in range(mat.ncols):
        shifted[d, d] = mat[d, d] - c
    basis = image_basis(shifted)
    rs = L.rs
    theta2 = root_to_weight(rs, rs.highest_root).scaled(2)
    expected = sym2_dim(L.dim) - weyl_dim(rs, theta2)
    if len(basis) != expected:
        raise InvariantViolation(
            f"{rs.simple_type}: degree-2 ideal has dimension {len(basis)}, "
            f"expected {expected}"
        )
    return IdealDegree2(basis)


def restrict_to_cartan(L: LieAlgebra, v: Mapping[int, object]) -> CartanPolynomial:
    """Project a Sym^2 g vector to Sym^2 h: root-vector coordinates die."""
    n = L.rs.rank
    base = 2 * L.npos
    coeffs: dict = {}
    for k, c in v.items():
        p, q = sym2_unrank(L.dim, k)
        if p >= base and q >= base:
            exp = [0] * n
            exp[p - base] += 1
            exp[q - base] += 1
            key = tuple(exp)
            coeffs[key] = coeffs.get(key, 0) + c
    return CartanPolynomial(coeffs, 2, n)


def span_in_sym2h(n: int, polys: Iterable[CartanPolynomial]) -> tuple[int, EchelonBasis]:
    """Span of degree-2 Cartan polynomials inside Sym^2 h."""
    exps = monomial_exponents(n, 2)
    pos = {e: i for i, e in enumerate(exps)}
    basis = EchelonBasis(len(exps))
    for poly in polys:
        if poly.degree != 2 or poly.nvars != n:
            raise ValueError("polynomials must be quadratic in the Cartan variables")
        vec = {pos[e]: c for e, c in poly.coeffs.items()}
        append_and_rank(basis, vec)
    return len(basis), basis


def projected_span(L: LieAlgebra, I2: IdealDegree2) -> tuple[int, EchelonBasis]:
    """Restrict every ideal basis vector to the Cartan and span inside Sym^2 h.

    The expected rank is rank(rank+1)/2; falling short is a verification
    failure for the caller to report, not an error here.
    """
    polys = [restrict_to_cartan(L, vec) for vec in I2.basis.vectors]
    return span_in_sym2h(L.rs.rank, polys)


def cartan_pair_generators(L: LieAlgebra, Omega: SplitCasimir, c) -> list[CartanPolynomial]:
    """Cartan restriction of (Omega - c) applied to each monomial H(i) H(j), i <= j.

    Only the diagonal term survives the projection, so each output is
    -c h_i h_j; the root contributions land on E(a) F(a) monomials and
    are killed.  This route needs one operator column per Cartan pair
    and never assembles the full matrix.
    """
    n = L.rs.rank
    nn = L.dim
    out = []
    for i in range(n):
        for j in range(i, n):
            p, q = L.h_index(i), L.h_index(j)
            col = dict(Omega.column(p, q))
            k = sym2_index(nn, p, q)
            val = col.get(k, 0) - c
            if val:
                col[k] = val
            else:
                col.pop(k, None)
            out.append(restrict_to_cartan(L, col))
    return out


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
    n: int, quadrics: Sequence[CartanPolynomial], max_degree: int
) -> list[int]:
    """Hilbert function of Sym[h] modulo the ideal generated by the quadrics.

    In each degree d the ideal piece is spanned by the quadrics times
    all degree d-2 monomials; its rank is accumulated incrementally and
    the loop stops early once the whole degree is filled.  Once a degree
    is wholly in the ideal, so is every higher one (Sym^(d+1) = h Sym^d),
    and the remaining degrees are zero without being computed.
    """
    if max_degree < 2:
        raise ValueError(f"max_degree must be at least 2, got {max_degree}")
    dims = [1, n]
    gens = [g for g in quadrics if not g.is_zero()]
    for d in range(2, max_degree + 1):
        monos = monomial_exponents(n, d)
        pos = {e: i for i, e in enumerate(monos)}
        extras = monomial_exponents(n, d - 2)
        basis = EchelonBasis(len(monos))
        full = False
        for g in gens:
            for extra in extras:
                vec = {}
                for e, c in g.coeffs.items():
                    key = tuple(a + b for a, b in zip(e, extra))
                    vec[pos[key]] = c
                append_and_rank(basis, vec)
                if len(basis) == len(monos):
                    full = True
                    break
            if full:
                break
        dims.append(len(monos) - len(basis))
        if dims[-1] == 0:
            break
    return dims + [0] * (max_degree + 1 - len(dims))


def quotient_hilbert(
    L: LieAlgebra, projected: EchelonBasis, max_degree: int
) -> list[int]:
    """Graded dimensions of Sym[h] modulo the projected degree-2 ideal."""
    n = L.rs.rank
    exps = monomial_exponents(n, 2)
    quadrics = [
        CartanPolynomial({exps[i]: c for i, c in vec.items()}, 2, n)
        for vec in projected.vectors
    ]
    return hilbert_from_quadrics(n, quadrics, max_degree)
