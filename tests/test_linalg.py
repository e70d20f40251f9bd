"""linalg against a reference Gauss-Jordan elimination on Fractions, on
random rational matrices up to 5x6 with zero, repeated and dependent rows."""

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conesum import linalg
from conesum.errors import DegreeMismatch

fracs = st.fractions(min_value=-12, max_value=12, max_denominator=7)


@st.composite
def matrices(draw, square=False, max_rows=5, max_cols=6):
    """A rational matrix; some rows are replaced by zero rows, copies or
    rational combinations of earlier rows, so singular matrices are common."""
    nrows = draw(st.integers(1, max_rows))
    ncols = nrows if square else draw(st.integers(1, max_cols))
    rows = []
    for _ in range(nrows):
        kind = draw(st.sampled_from(["free", "free", "zero", "combination"]))
        if kind == "zero":
            rows.append([Fraction(0)] * ncols)
        elif kind == "combination" and rows:
            a, b = draw(fracs), draw(fracs)
            i = draw(st.integers(0, len(rows) - 1))
            j = draw(st.integers(0, len(rows) - 1))
            rows.append([a * x + b * y for x, y in zip(rows[i], rows[j])])
        else:
            rows.append(draw(st.lists(fracs, min_size=ncols, max_size=ncols)))
    return rows


def reference_rref(rows):
    """Gauss-Jordan on Fractions: each pivot row scaled to 1, then cleared
    from every other row."""
    m = [[Fraction(v) for v in row] for row in rows]
    pivots, r = [], 0
    for c in range(len(m[0]) if m else 0):
        pivot = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        m[r] = [x / m[r][c] for x in m[r]]
        for i in range(len(m)):
            if i != r:
                m[i] = [x - m[i][c] * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return [tuple(row) for row in m[:r]], pivots


def reference_det(rows):
    """Leibniz expansion over all permutations."""
    n = len(rows)
    total = Fraction(0)
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        total += (-1) ** inversions * math.prod(
            (Fraction(rows[i][perm[i]]) for i in range(n)), start=Fraction(1)
        )
    return total


def reference_kernel(rows):
    """One basis vector per free column of the reference RREF; a matrix of
    rank 0 gives the standard basis."""
    red, pivots = reference_rref(rows)
    ncols = len(rows[0])
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for row, p in zip(red, pivots):
            v[p] = -row[fc]
        basis.append(tuple(v))
    return basis


@given(m=matrices())
@settings(max_examples=200, deadline=None)
def test_rref_matches_reference(m):
    assert linalg.rref(m) == reference_rref(m)
    assert linalg.rank(m) == len(reference_rref(m)[1])


@given(m=matrices(square=True))
@settings(max_examples=200, deadline=None)
def test_det_matches_leibniz(m):
    d = linalg.det(m)
    assert isinstance(d, Fraction)
    assert d == reference_det(m)


@given(m=matrices())
@settings(max_examples=200, deadline=None)
def test_kernel_matches_reference(m):
    ker = linalg.kernel(m)
    assert ker == reference_kernel(m)
    for v in ker:
        assert all(sum(a * x for a, x in zip(row, v)) == 0 for row in m)


@given(m=matrices(), data=st.data())
@settings(max_examples=200, deadline=None)
def test_solve_matches_reference(m, data):
    b = data.draw(st.lists(fracs, min_size=len(m), max_size=len(m)))
    red, pivots = reference_rref([row + [v] for row, v in zip(m, b)])
    ncols = len(m[0])
    x = linalg.solve(m, b)
    if ncols in pivots:
        assert x is None
        return
    expected = [Fraction(0)] * ncols
    for row, p in zip(red, pivots):
        expected[p] = row[-1]
    assert x == tuple(expected)
    assert [sum(a * v for a, v in zip(row, x)) for row in m] == b


@given(m=matrices(square=True), data=st.data())
@settings(max_examples=200, deadline=None)
def test_inverse_and_solve_unique_match_reference(m, data):
    n = len(m)
    b = data.draw(st.lists(fracs, min_size=n, max_size=n))
    if reference_det(m) == 0:
        with pytest.raises(ZeroDivisionError):
            linalg.inverse(m)
        with pytest.raises(ZeroDivisionError):
            linalg.solve_unique(m, b)
        return
    identity = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    red, _ = reference_rref([row + e for row, e in zip(m, identity)])
    inv = [row[n:] for row in red]
    assert linalg.inverse(m) == inv
    assert linalg.solve_unique(m, b) == tuple(
        sum(a * v for a, v in zip(row, b)) for row in inv
    )


@given(m=matrices(square=True))
@settings(max_examples=200, deadline=None)
def test_adjugate_is_det_times_inverse(m):
    # integer matrices: the numerators of the rows over their common
    # denominator, singular ones included; the inverse by the reference
    den = math.lcm(*(v.denominator for row in m for v in row))
    ints = [[int(v * den) for v in row] for row in m]
    d = reference_det(ints)
    if d == 0:
        with pytest.raises(ZeroDivisionError):
            linalg.adjugate(ints)
        return
    adj, det = linalg.adjugate(ints)
    assert det == d and all(type(v) is int for row in adj for v in row)
    n = len(ints)
    red, _ = reference_rref([row + [int(i == j) for j in range(n)] for i, row in enumerate(ints)])
    assert adj == [[v * d for v in row[n:]] for row in red]


@given(m=matrices(square=True))
@settings(max_examples=200, deadline=None)
def test_integer_det_matches_leibniz(m):
    # the integer rows of the adjugate test, taken as they are
    den = math.lcm(*(v.denominator for row in m for v in row))
    ints = [[int(v * den) for v in row] for row in m]
    d = linalg.int_det(ints)
    assert type(d) is int and d == reference_det(ints)
    assert ints == [[int(v * den) for v in row] for row in m]  # left as it was


def test_adjugate_of_a_non_square_matrix_is_a_typed_error():
    with pytest.raises(DegreeMismatch):
        linalg.adjugate([[1, 2]])


def test_integer_and_mixed_entries():
    m = [[2, Fraction(1, 3), 0], [4, 1, Fraction(-5, 2)], [0, 7, 1]]
    assert linalg.det(m) == reference_det(m)
    assert linalg.rref(m) == reference_rref(m)
    assert linalg.det([]) == 1
    assert linalg.rref([]) == ([], [])


def test_det_of_a_non_square_matrix_is_a_typed_error():
    # a plain check, so it also holds under python -O
    with pytest.raises(DegreeMismatch):
        linalg.det([[1, 2]])
    with pytest.raises(DegreeMismatch):
        linalg.det([[1, 2], [3]])
    with pytest.raises(DegreeMismatch):
        linalg.int_det([[1, 2]])


def test_kernel_of_a_zero_matrix_is_everything():
    assert linalg.kernel([(0,)]) == [(1,)]
    assert linalg.kernel([(0, 0), (0, 0)]) == [(1, 0), (0, 1)]
    assert linalg.kernel([]) == []
