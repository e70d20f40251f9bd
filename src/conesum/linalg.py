"""Exact linear algebra over the rationals.

Matrices are lists (or tuples) of rows of Fractions.  Sizes here are tiny
(degree of the field, or a handful of cone generators), so plain Gaussian
elimination with exact pivots is the right tool.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

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


def rref(rows: Iterable[Sequence]) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form and the list of pivot columns."""
    m = [list(Fraction(v) for v in row) for row in rows]
    if not m:
        return [], []
    ncols = len(m[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = _ONE / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return [tuple(row) for row in m[:r]], pivots


def rank(rows: Iterable[Sequence]) -> int:
    return len(rref(rows)[0])


def det(rows: Iterable[Sequence]) -> Fraction:
    m = [list(Fraction(v) for v in row) for row in rows]
    n = len(m)
    assert all(len(row) == n for row in m), "determinant needs a square matrix"
    sign = 1
    result = _ONE
    for c in range(n):
        pivot = next((i for i in range(c, n) if m[i][c] != 0), None)
        if pivot is None:
            return _ZERO
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            sign = -sign
        result *= m[c][c]
        inv = _ONE / m[c][c]
        for i in range(c + 1, n):
            if m[i][c] != 0:
                f = m[i][c] * inv
                m[i] = [x - f * y for x, y in zip(m[i], m[c])]
    return result * sign


def solve(a: Iterable[Sequence], b: Sequence) -> Row | None:
    """One exact solution of A x = b, or None if inconsistent.

    If the system is underdetermined the free variables are set to zero.
    """
    arows = [list(Fraction(v) for v in row) for row in a]
    bvec = [Fraction(v) for v in b]
    aug = [row + [bv] for row, bv in zip(arows, bvec)]
    red, pivots = rref(aug)
    ncols = len(arows[0]) if arows else 0
    if ncols in pivots:
        return None  # pivot in the augmented column
    x = [_ZERO] * ncols
    for row, p in zip(red, pivots):
        x[p] = row[-1]
    return tuple(x)


def kernel(rows: Iterable[Sequence]) -> Matrix:
    """Basis of the right null space of A, one row per basis vector."""
    red, pivots = rref(rows)
    if not red:
        return []
    ncols = len(red[0])
    free = [c for c in range(ncols) if c not in pivots]
    basis: Matrix = []
    for fc in free:
        v = [_ZERO] * ncols
        v[fc] = _ONE
        for row, p in zip(red, pivots):
            v[p] = -row[fc]
        basis.append(tuple(v))
    return basis


def inverse(rows: Iterable[Sequence]) -> Matrix:
    m = [list(Fraction(v) for v in row) for row in rows]
    n = len(m)
    aug = [m[i] + [(_ONE if i == j else _ZERO) for j in range(n)] for i in range(n)]
    red, pivots = rref(aug)
    if pivots != list(range(n)):
        raise ZeroDivisionError("matrix is singular")
    return [tuple(row[n:]) for row in red]


def solve_unique(a: Iterable[Sequence], b: Sequence) -> Row:
    """Solution of a square nonsingular system."""
    inv = inverse(a)
    return mat_vec(inv, [Fraction(v) for v in b])
