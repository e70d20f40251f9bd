"""Exact linear algebra over the rationals.

Matrices are lists (or tuples) of rows of rationals (Fractions or ints).
Every routine first clears each row to integers and eliminates on integers,
building Fractions only for its result: ``det`` by Bareiss's fraction-free
elimination (``int_det``, which takes integer rows as they are and builds no
Fraction), ``adjugate`` (and ``inverse`` through it) by its Gauss-Jordan
form, ``rref`` and the solvers by Gauss-Jordan elimination on integer
rows, each updated row divided by the gcd of its entries.  The reduced row
echelon form is unique, so these give exactly the Fractions that elimination
on Fractions gives.  Sizes here are tiny (degree of the field, or a handful
of cone generators).
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from fractions import Fraction

from .errors import DegreeMismatch

Row = tuple[Fraction, ...]
Matrix = list[Row]

_ZERO = Fraction(0)
_ONE = Fraction(1)


def to_matrix(rows: Iterable[Sequence]) -> Matrix:
    return [tuple(Fraction(v) for v in row) for row in rows]


def identity(n: int) -> Matrix:
    return [tuple(_ONE if i == j else _ZERO for j in range(n)) for i in range(n)]


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    cols = list(zip(*b))
    return [tuple(sum(x * y for x, y in zip(row, col)) for col in cols) for row in a]


def mat_vec(a: Matrix, v: Sequence[Fraction]) -> Row:
    return tuple(sum(x * y for x, y in zip(row, v)) for row in a)


def cleared(row: Iterable) -> tuple[list[int], int]:
    """(integer numerators, d): the row times d, its least common denominator."""
    row = [v if isinstance(v, (int, Fraction)) else Fraction(v) for v in row]
    d = math.lcm(*(v.denominator for v in row))
    return [v.numerator * (d // v.denominator) for v in row], d


def _eliminate(m: list[list[int]]) -> list[int]:
    """Gauss-Jordan elimination in place on integer rows; returns the pivot
    columns.  Afterwards the first len(pivots) rows are nonzero multiples of
    the rows of the reduced row echelon form."""
    pivots: list[int] = []
    r = 0
    for c in range(len(m[0]) if m else 0):
        pivot = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        prow = m[r]
        p = prow[c]
        for i, row in enumerate(m):
            f = row[c]
            if i != r and f:
                new = [p * x - f * y for x, y in zip(row, prow)]
                g = math.gcd(*new)
                m[i] = [x // g for x in new] if g > 1 else new
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return pivots


def rref(rows: Iterable[Sequence]) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form and the list of pivot columns."""
    m = [cleared(row)[0] for row in rows]
    pivots = _eliminate(m)
    return [tuple(Fraction(x, row[p]) for x in row) for row, p in zip(m, pivots)], pivots


def rank(rows: Iterable[Sequence]) -> int:
    return len(_eliminate([cleared(row)[0] for row in rows]))


def det(rows: Iterable[Sequence]) -> Fraction:
    """Determinant: int_det of the cleared rows over their denominators."""
    m, scale = [], 1
    for row in rows:
        ints, d = cleared(row)
        m.append(ints)
        scale *= d
    return Fraction(int_det(m), scale)


def int_det(rows: Sequence[Sequence[int]]) -> int:
    """Determinant of integer rows by Bareiss elimination: after step k every
    entry below and right of the pivots is a minor of order k + 1, so each
    division by the previous pivot is exact."""
    m = list(rows)  # rows are replaced, never changed in place
    n = len(m)
    if any(len(row) != n for row in m):
        raise DegreeMismatch("determinant needs a square matrix")
    sign, prev = 1, 1
    for k in range(n):
        if not m[k][k]:
            pivot = next((i for i in range(k + 1, n) if m[i][k]), None)
            if pivot is None:
                return 0
            m[k], m[pivot] = m[pivot], m[k]
            sign = -sign
        prow = m[k]
        p = prow[k]
        for i in range(k + 1, n):
            f = m[i][k]
            m[i] = [(p * x - f * y) // prev for x, y in zip(m[i], prow)]
        prev = p
    return sign * prev


def solve(a: Iterable[Sequence], b: Sequence) -> Row | None:
    """One exact solution of A x = b, or None if inconsistent.

    If the system is underdetermined the free variables are set to zero.
    """
    arows = [list(row) for row in a]
    aug = [cleared(row + [bv])[0] for row, bv in zip(arows, b)]
    pivots = _eliminate(aug)
    ncols = len(arows[0]) if arows else 0
    if ncols in pivots:
        return None  # pivot in the augmented column
    x = [_ZERO] * ncols
    for row, p in zip(aug, pivots):
        x[p] = Fraction(row[-1], row[p])
    return tuple(x)


def kernel(rows: Iterable[Sequence]) -> Matrix:
    """Basis of the right null space of A, one row per basis vector: the
    standard basis when A is zero."""
    m = [cleared(row)[0] for row in rows]
    if not m:
        return []
    pivots = _eliminate(m)
    ncols = len(m[0])
    free = [c for c in range(ncols) if c not in pivots]
    basis: Matrix = []
    for fc in free:
        v = [_ZERO] * ncols
        v[fc] = _ONE
        for row, p in zip(m, pivots):
            v[p] = Fraction(-row[fc], row[p])
        basis.append(tuple(v))
    return basis


def inverse(rows: Iterable[Sequence]) -> Matrix:
    """A^-1 = M^-1 diag(d) for the rows of A cleared to M_i over d_i."""
    m = [cleared(row) for row in rows]
    adj, det = adjugate([ints for ints, _ in m])
    return [tuple(Fraction(x * d, det) for x, (_, d) in zip(row, m)) for row in adj]


def adjugate(rows: Sequence[Sequence[int]]) -> tuple[list[list[int]], int]:
    """(adj(A), det(A)) of a nonsingular integer matrix, by fraction-free
    Gauss-Jordan elimination of [A | I]: every entry stays an integer minor,
    so each division by the previous pivot is exact, and [A | I] ends as
    +-[det(A) I | adj(A)], the sign that of the row swaps."""
    n, prev, sign = len(rows), 1, 1
    if any(len(row) != n for row in rows):
        raise DegreeMismatch("adjugate needs a square matrix")
    m = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(rows)]
    for k in range(n):
        p = next((i for i in range(k, n) if m[i][k]), None)
        if p is None:
            raise ZeroDivisionError("matrix is singular")
        if p != k:
            m[k], m[p], sign = m[p], m[k], -sign
        prow, pivot = m[k], m[k][k]
        for i, row in enumerate(m):
            if i != k:
                f = row[k]
                m[i] = [(pivot * x - f * y) // prev for x, y in zip(row, prow)]
        prev = pivot
    return [[sign * x for x in row[n:]] for row in m], sign * prev


def solve_unique(a: Iterable[Sequence], b: Sequence) -> Row:
    """Solution of a square nonsingular system."""
    aug = [cleared(list(row) + [bv])[0] for row, bv in zip(a, b)]
    pivots = _eliminate(aug)
    if pivots != list(range(len(aug))):
        raise ZeroDivisionError("matrix is singular")
    return tuple(Fraction(row[-1], row[i]) for i, row in enumerate(aug))
