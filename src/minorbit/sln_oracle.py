"""Matrix-model oracle for type A.

An n x n matrix lies in the minimal nilpotent orbit closure exactly
when it has rank at most 1 and squares to zero, so the orbit ideal
contains every 2 x 2 minor together with every entry of the matrix
square.  Restricting those generators to diagonal traceless matrices
gives quadrics in the diagonal coordinates, as integer vectors over
Sym^2 of the traceless coordinates in the same order as the abstract
route; the quotient they cut out is computed here independently of the
Casimir construction and must agree with the abstract type A_(n-1)
answer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .linalgx import EchelonBasis, SparseVec, append_and_rank
from .orbit_ideal import hilbert_from_quadrics, monomial_exponents

__all__ = [
    "MatrixPolynomial",
    "minor_generators",
    "square_generators",
    "restrict_to_diagonal",
    "oracle_quotient_dims",
]


@dataclass
class MatrixPolynomial:
    """Polynomial in the entries a[i][j] of an n x n matrix.

    Monomials are sorted tuples of variable pairs (i, j); all
    generators produced in this module are homogeneous quadrics with
    integer coefficients.
    """

    n: int
    coeffs: dict

    def __post_init__(self) -> None:
        clean: dict = {}
        degree = None
        for mono, c in self.coeffs.items():
            if not c:
                continue
            mono = tuple(sorted(mono))
            for i, j in mono:
                if not (0 <= i < self.n and 0 <= j < self.n):
                    raise ValueError(f"variable a[{i}][{j}] out of range for n={self.n}")
            if degree is None:
                degree = len(mono)
            elif len(mono) != degree:
                raise ValueError("polynomial is not homogeneous")
            clean[mono] = clean.get(mono, 0) + c
        self.coeffs = {m: c for m, c in clean.items() if c}


def _check_n(n: int) -> None:
    if n < 2:
        raise ValueError(f"matrix size must be at least 2, got {n}")


def minor_generators(n: int) -> list[MatrixPolynomial]:
    """All 2 x 2 minors a_ij a_kl - a_il a_kj for i < k, j < l."""
    _check_n(n)
    out = []
    for i in range(n):
        for k in range(i + 1, n):
            for j in range(n):
                for l in range(j + 1, n):
                    out.append(
                        MatrixPolynomial(
                            n,
                            {
                                ((i, j), (k, l)): 1,
                                ((i, l), (k, j)): -1,
                            },
                        )
                    )
    return out


def square_generators(n: int) -> list[MatrixPolynomial]:
    """The n^2 entries of A^2 as quadrics: sum_k a_ik a_kj."""
    _check_n(n)
    out = []
    for i in range(n):
        for j in range(n):
            coeffs: dict = {}
            for k in range(n):
                mono = tuple(sorted(((i, k), (k, j))))
                coeffs[mono] = coeffs.get(mono, 0) + 1
            out.append(MatrixPolynomial(n, coeffs))
    return out


def restrict_to_diagonal(polys: Iterable[MatrixPolynomial], n: int) -> list[SparseVec]:
    """Set off-diagonal entries to zero, then eliminate the last diagonal entry.

    Traceless coordinates are the first n-1 diagonal entries, with
    a_(n-1)(n-1) replaced by minus their sum, so the result is a list of
    quadrics in n-1 variables (possibly zero), each an index vector over
    monomial_exponents(n-1, 2) with no zero entries.
    """
    _check_n(n)
    nv = n - 1
    pos = {e: k for k, e in enumerate(monomial_exponents(nv, 2))}

    def linear_form(i: int) -> list:
        if i < nv:
            return [(i, 1)]
        return [(j, -1) for j in range(nv)]

    out = []
    for poly in polys:
        if poly.n != n:
            raise ValueError("polynomial size does not match n")
        vec: dict = {}
        for mono, c in poly.coeffs.items():
            if len(mono) != 2:
                raise ValueError("only quadrics can be restricted here")
            (i1, j1), (i2, j2) = mono
            if i1 != j1 or i2 != j2:
                continue
            for v1, c1 in linear_form(i1):
                for v2, c2 in linear_form(i2):
                    exp = [0] * nv
                    exp[v1] += 1
                    exp[v2] += 1
                    k = pos[tuple(exp)]
                    vec[k] = vec.get(k, 0) + c * c1 * c2
        out.append({k: x for k, x in vec.items() if x})
    return out


def oracle_quotient_dims(n: int, max_degree: int) -> list:
    """Graded dimensions of the diagonal restriction quotient.

    Spans the restricted minor and square generators inside Sym^2 of
    the n-1 traceless coordinates, then factors the polynomial ring by
    the ideal they generate, exactly as the abstract route does.
    """
    _check_n(n)
    if max_degree < 2:
        raise ValueError(f"max_degree must be at least 2, got {max_degree}")
    nv = n - 1
    span = EchelonBasis(nv * (nv + 1) // 2)
    for vec in restrict_to_diagonal(minor_generators(n) + square_generators(n), n):
        if vec:
            append_and_rank(span, vec)
    return hilbert_from_quadrics(nv, span.vectors, max_degree)
