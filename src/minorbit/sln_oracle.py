"""Matrix-model oracle for type A.

An n x n matrix lies in the minimal nilpotent orbit closure exactly
when it has rank at most 1 and squares to zero, so the orbit ideal
contains every 2 x 2 minor and every entry of the matrix square.
Restricted to traceless diagonal matrices, these quadrics cut out a
quotient of Sym[h] that is computed here without the Casimir
construction and must match the abstract type A_(n-1) answer.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from itertools import chain

from .orbit_ideal import hilbert_from_quadrics, monomial_exponents

__all__ = ["matrix_quadrics", "restrict_to_diagonal", "oracle_quotient_dims"]


def matrix_quadrics(n: int) -> Iterator[dict]:
    """Every 2 x 2 minor a_ij a_kl - a_il a_kj (i < k, j < l), then every entry of A^2, lazily.

    A quadric is a dict from a sorted pair of matrix entries (i, j) to
    its integer coefficient; entry (i, j) of A^2 is sum_k a_ik a_kj.
    n is checked at the call, before the first quadric is asked for.
    """
    if n < 2:
        raise ValueError(f"matrix size must be at least 2, got {n}")
    minors = (
        {((i, j), (k, l)): 1, ((i, l), (k, j)): -1}
        for i in range(n) for k in range(i + 1, n) for j in range(n) for l in range(j + 1, n)
    )
    squares = (
        {tuple(sorted(((i, k), (k, j)))): 1 for k in range(n)} for i in range(n) for j in range(n)
    )
    return chain(minors, squares)


def restrict_to_diagonal(quadrics: Iterable[dict], n: int) -> list[dict]:
    """Set off-diagonal entries to zero, then eliminate the last diagonal entry.

    Traceless coordinates are the first n-1 diagonal entries, with
    a_(n-1)(n-1) replaced by minus their sum, so the result is a list of
    quadrics in n-1 variables (possibly zero), each an index vector over
    monomial_exponents(n-1, 2) with no zero entries.
    """
    nv = n - 1
    pos = {e: k for k, e in enumerate(monomial_exponents(nv, 2))}
    forms = [[(i, 1)] for i in range(nv)] + [[(j, -1) for j in range(nv)]]
    out = []
    for quadric in quadrics:
        vec: dict = {}
        for ((i1, j1), (i2, j2)), c in quadric.items():
            if i1 != j1 or i2 != j2:
                continue
            for v1, c1 in forms[i1]:
                for v2, c2 in forms[i2]:
                    k = pos[tuple((v == v1) + (v == v2) for v in range(nv))]
                    vec[k] = vec.get(k, 0) + c * c1 * c2
        out.append({k: x for k, x in vec.items() if x})
    return out


def oracle_quotient_dims(n: int, max_degree: int) -> list:
    """Graded dimensions of Sym[h] of the traceless diagonal modulo the restricted quadrics."""
    return hilbert_from_quadrics(n - 1, restrict_to_diagonal(matrix_quadrics(n), n), max_degree)
