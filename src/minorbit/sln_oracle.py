"""Matrix-model oracle for type A.

An n x n matrix lies in the minimal nilpotent orbit closure exactly
when it has rank at most 1 and squares to zero, so the orbit ideal
contains every 2 x 2 minor together with every entry of the matrix
square.  Restricting those generators to diagonal traceless matrices
gives quadrics in the diagonal coordinates; the quotient they cut out
is computed here independently of the Casimir construction and must
agree with the abstract type A_(n-1) answer.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping

from .orbit_ideal import (
    CartanPolynomial,
    echelon_quadrics,
    hilbert_from_quadrics,
    span_in_sym2h,
)

__all__ = [
    "MatrixPolynomial",
    "minor_generators",
    "square_generators",
    "restrict_to_diagonal",
    "oracle_quotient_dims",
]

Var = tuple


@dataclass
class MatrixPolynomial:
    """Polynomial in the entries a[i][j] of an n x n matrix.

    Monomials are sorted tuples of variable pairs (i, j); all
    generators produced in this module are homogeneous quadrics.
    """

    n: int
    coeffs: dict

    def __post_init__(self) -> None:
        clean: dict = {}
        degree = None
        for mono, c in self.coeffs.items():
            c = Fraction(c)
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

    def evaluate(self, values: Mapping[Var, object]) -> Fraction:
        """Value at a point, with unspecified entries treated as zero."""
        total = Fraction(0)
        for mono, c in self.coeffs.items():
            prod = Fraction(c)
            for var in mono:
                prod *= Fraction(values.get(var, 0))
                if not prod:
                    break
            total += prod
        return total


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


def restrict_to_diagonal(
    polys: Iterable[MatrixPolynomial], n: int
) -> list[CartanPolynomial]:
    """Set off-diagonal entries to zero, then eliminate the last diagonal entry.

    Traceless coordinates are the first n-1 diagonal entries, with
    a_(n-1)(n-1) replaced by minus their sum, so the result is a list of
    quadrics in n-1 variables (possibly zero).
    """
    _check_n(n)
    nv = n - 1

    def linear_form(i: int) -> list:
        if i < nv:
            return [(i, 1)]
        return [(j, -1) for j in range(nv)]

    out = []
    for poly in polys:
        if poly.n != n:
            raise ValueError("polynomial size does not match n")
        coeffs: dict = {}
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
                    key = tuple(exp)
                    coeffs[key] = coeffs.get(key, 0) + c * c1 * c2
        out.append(CartanPolynomial(coeffs, 2, nv))
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
    gens = minor_generators(n) + square_generators(n)
    restricted = restrict_to_diagonal(gens, n)
    _, span = span_in_sym2h(n - 1, [g for g in restricted if not g.is_zero()])
    return hilbert_from_quadrics(n - 1, echelon_quadrics(n - 1, span), max_degree)
