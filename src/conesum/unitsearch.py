"""Admissible unit sets and the convex exhaustion of the positive chamber.

All log-space quantities are certified intervals over a precision schedule,
walked by one decider (_refined): the search's region conditions, and the
bound conditions, limit pairs and minors of a found set, are integer sums
over a log matrix, kept per precision; only a tie (_refined's docstring) goes
to one exact test, and what stays open raises PrecisionExhausted.  A hull
chart checks its points against the boundary surface by sums over the log
matrix, and its vertex separations by integer sums over its points' bounds,
only what those leave open by intervals.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections.abc import Iterable, Sequence
from fractions import Fraction
from functools import cache, lru_cache, reduce

from .errors import (
    DegreeMismatch,
    DegreeTooSmall,
    InvalidBounds,
    NegativeIndex,
    PrecisionExhausted,
    SingularMatrix,
    WindowTooSmall,
)
from .fan import ConditionReport, ValidationReport
from .field import (
    ExponentTable,
    FieldElement,
    UnitGroupData,
    UnitPowers,
    _excess_bits,
    _extreme_places,
    is_totally_positive,
    root_indices,
)
from .interval import GUARD_BITS, Interval, _iv_sign
from .record import FrozenRecord, Record

PREC_SCHEDULE = (64, 128, 256, 512, 1024)


def _embedding_iv_positive(x: FieldElement, place: int, prec: int) -> Interval:
    """Interval for a positive embedding at the least depth of relative
    width <= 2^-prec.

    Needed wherever logs or quotients of values with a huge dynamic range
    are taken (high unit powers)."""
    if x.is_zero():
        raise PrecisionExhausted("expected a positive embedding, got 0")

    def decided(lo, hi, s):  # narrow enough, or certified negative
        return (hi - lo) << prec <= lo if lo > 0 else hi < 0

    def excess(lo, hi, s):  # the goal is the midpoint over 2^prec
        return _excess_bits((hi - lo) << (prec + 1), abs(lo + hi))

    lo, hi, s = x.field._refine(x, place, decided, excess, least=True)
    if hi < 0:
        raise PrecisionExhausted("expected a positive embedding")
    return Interval.scaled(lo, hi, s, prec + GUARD_BITS)


class LogLattice:
    """Log-embedding image of a finite-index totally positive unit group.

    Exponent vectors are exact.  The generators' embedding intervals and log
    matrix are certified once per precision, the logs kept as integer bounds
    over one common power of two, so a log vector is an exact integer sum of
    certified bounds, walked in one table per precision.  Hull charts are
    kept by (index set, window).  Lattices of equal unit groups are equal."""

    def __init__(self, units: UnitGroupData):
        self.units = units
        self.field = units.field
        self._certified: dict[int, tuple[list, int, list]] = {}
        self._log_tables: dict[int, ExponentTable] = {}
        self._charts: dict[tuple, HullChart] = {}

    def __eq__(self, other):
        return isinstance(other, LogLattice) and self.units == other.units

    def __hash__(self):
        return hash(self.units)

    def __repr__(self):
        return f"LogLattice({self.units!r})"

    def _certify(self, prec: int) -> tuple[list[list[Interval]], int, list]:
        if prec not in self._certified:
            gens, n = self.units.generators, self.field.degree
            ivs = [[_embedding_iv_positive(g, p, prec) for g in gens] for p in range(n)]
            logs = [[iv.log() for iv in row] for row in ivs]
            self._certified[prec] = ivs, *_on_common_scale(logs)
        return self._certified[prec]

    def embeddings(self, prec: int) -> list[list[Interval]]:
        """E[p][q], the interval of u_q^(p) of relative width <= 2^-prec."""
        return self._certify(prec)[0]

    def log_matrix(self, prec: int) -> tuple[int, list[list[tuple[int, int]]]]:
        """(exp, M) with M[p][q] = (lo, hi) and lo 2^exp <= log u_q^(p) <= hi 2^exp."""
        return self._certify(prec)[1:]

    def log_intervals(self, prec: int) -> list[list[Interval]]:
        """log_matrix(prec) as Intervals L[p][q] of log u_q^(p)."""
        exp, M = self.log_matrix(prec)
        return [[Interval(lo, hi, exp, prec + GUARD_BITS) for lo, hi in row] for row in M]

    def log_bounds(self, exponents: Sequence[int], prec: int) -> tuple[tuple[int, int], ...]:
        """Bounds over 2^exp on log eps^(p) = sum_q e_q log u_q^(p) at each place.
        A step up in e_q adds the bounds (lo, hi) of log u_q^(p), a step down
        (-hi, -lo); a walk never crosses 0 in a coordinate, so every path
        gives the same integers."""
        if prec not in self._log_tables:
            _, M = self.log_matrix(prec)
            steps = [(tuple((-hi, -lo) for lo, hi in col), col) for col in zip(*M)]
            self._log_tables[prec] = ExponentTable(
                len(steps), ((0, 0),) * len(M), lambda x, q, up: tuple(
                    (lo + a, hi + b) for (lo, hi), (a, b) in zip(x, steps[q][up])))
        return self._log_tables[prec](exponents)

    def rational_log(self, x: Fraction, prec: int) -> tuple[int, int]:
        """Bounds over the 2^exp of log_matrix(prec) on log x for a rational x > 0."""
        scale, _ = self.log_matrix(prec)
        return _on_scale(_rational_log(x, prec), scale)

    def regulator_nonzero(self, indices: Iterable[int] | None = None) -> bool:
        """Certify that the log vectors of the generators at indices (all of
        them by default) are linearly independent: the minor of the log
        matrix on those columns and the first places is nonzero at some
        precision of the schedule."""
        cols = list(range(self.units.rank) if indices is None else indices)

        def nonzero(prec):
            L = self.log_intervals(prec)
            rows = [[L[p][q] for p in range(len(cols))] for q in cols]
            return True if _iv_sign(_iv_det(rows)) is not None else None

        def exhausted():
            raise PrecisionExhausted("cannot certify a nonzero regulator")

        return _refined(nonzero, exhausted)


@lru_cache
def _rational_log(x: Fraction, prec: int) -> Interval:
    """log x for a rational x > 0, taken once per (x, prec) for every lattice."""
    return Interval.of(x, x, prec + GUARD_BITS).log()


def _on_scale(iv: Interval, exp: int) -> tuple[int, int]:
    """Integer bounds on iv over 2^exp, rounded outward."""
    s = iv.exp - exp
    return (iv.lo << s, iv.hi << s) if s >= 0 else (iv.lo >> -s, -(-iv.hi >> -s))


def _on_common_scale(rows) -> tuple[int, list[list[tuple[int, int]]]]:
    """(exp, the exact integer bounds over 2^exp of the intervals of rows),
    for the least exp of theirs."""
    exp = min(iv.exp for row in rows for iv in row)
    return exp, [[_on_scale(iv, exp) for iv in row] for row in rows]


def _iv_det(rows) -> Interval:
    """Cofactor expansion; Interval sums start from their first term, not 0."""
    if len(rows) == 1:
        return rows[0][0]
    terms = [rows[0][j] * _iv_det([r[:j] + r[j + 1 :] for r in rows[1:]]) for j in range(len(rows))]
    return reduce(operator.add, (-t if j % 2 else t for j, t in enumerate(terms)))


# ---------------------------------------------------------------------------
# admissibility


class AdmissibleCandidate(FrozenRecord):
    """Units indexed by place, as the generators of the log lattice they are
    certified on, with the ratio bounds they were searched for."""

    __slots__ = ("lattice", "a", "b")

    def __init__(self, lattice: LogLattice, a: Fraction, b: Fraction):
        self._fill(lattice, a, b)

    @property
    def units(self) -> tuple[FieldElement, ...]:
        return self.lattice.units.generators


def compare_places(x: FieldElement, p: int, q: int) -> int:
    """Exact comparison of two real embeddings of the same element.

    Equal embeddings correspond to a common root of the minimal polynomial,
    so the tie case is decided exactly rather than numerically.  A reference
    for the tests: the library decides orders by _refined."""
    if p == q:
        return 0
    rp, rq = root_indices(x, (p, q))
    return (rp > rq) - (rp < rq)


def _ratio_vs_rational(x: FieldElement, p: int, q: int, bound: Fraction) -> int:
    """Certified sign of x^(p) / x^(q) - bound for a totally positive x."""
    def exhausted():
        raise PrecisionExhausted(f"ratio of places {p+1}/{q+1} is indistinguishable from {bound}")

    embed = x.field.embed_at
    return _refined(lambda prec: _iv_sign(embed(x, p, prec) - embed(x, q, prec) * bound), exhausted)


def unit_region_conditions(
    eps: FieldElement, i: int, a: Fraction, b: Fraction, short_circuit: bool = False
) -> tuple[bool, bool, bool, bool]:
    """The four bound conditions placing a unit in the i-th search region
    (places are 0-indexed here), each decided on eps alone: a reference for
    the tests, as the library decides them by _refined."""
    field, n = eps.field, eps.field.degree
    others = [(i + k) % n for k in range(1, n)]
    tests = (
        lambda: (field.sign_at(eps - field.one, i) < 0
                 and all(field.sign_at(eps - field.one, j) > 0 for j in others)),
        lambda: all(compare_places(eps, j, k) > 0 for j, k in zip(others, others[1:])),
        lambda: all(_ratio_vs_rational(eps, j, k, a) < 0
                    for j, k in itertools.permutations(others, 2)),
        lambda: all(_ratio_vs_rational(eps, j, i, b) > 0 for j in others),
    )
    answers = []
    for test in tests:
        answers.append(test())
        if short_circuit and not answers[-1]:
            break
    return tuple(answers) + (False,) * (len(tests) - len(answers))


def _refined(question, exact):
    """question(prec) at each precision of PREC_SCHEDULE until it answers
    (None leaves it open), else exact().  Every condition on a unit eps is a
    strict inequality, so refinement decides it unless it ties: c1 (eps^(i)
    < 1 < eps^(j)) only at eps = 1; c3 and c4 never, as a ratio of
    conjugates of a unit is a unit and no rational unit is a or b; the
    chain, distinct coordinates and the limit pairs only where eps^(j) =
    eps^(k) for j != k, which puts eps in a proper subfield.  So one exact
    test is enough: an order goes to root_indices (one minimal polynomial,
    one root isolation), whose indices decide it and, repeated, are its
    ties; c1 is False at eps = 1; what is still open raises
    PrecisionExhausted."""
    for prec in PREC_SCHEDULE:
        answer = question(prec)
        if answer is not None:
            return answer
    return exact()


def _region_quantities(logs, i: int, log_a, log_b):
    """The region conditions of eps in region i, in order (c1, chain, c3,
    c4), each as the lazy bounds (lo, hi) of the quantities that must all
    be positive, from integer bounds on log eps^(p), log a and log b."""
    others = [(i + k) % len(logs) for k in range(1, len(logs))]

    def diff(j, k):  # log eps^(j) - log eps^(k)
        return logs[j][0] - logs[k][1], logs[j][1] - logs[k][0]

    return (
        itertools.chain([(-logs[i][1], -logs[i][0])],  # c1: eps^(i) < 1 < eps^(j)
                        (logs[j] for j in others)),
        (diff(j, k) for j, k in zip(others, others[1:])),  # the chain
        ((log_a[0] - hi, log_a[1] - lo)  # c3: each ratio eps^(j) / eps^(k) < a
         for lo, hi in itertools.starmap(diff, itertools.permutations(others, 2))),
        ((lo - log_b[1], hi - log_b[0]) for lo, hi in (diff(j, i) for j in others)),  # c4: > b
    )


def _decide(quantities) -> bool | None:
    """Whether every quantity is positive: None when an interval leaves one
    open and none is certified nonpositive."""
    decided = True
    for lo, hi in quantities:
        if hi <= 0:
            return False
        if lo <= 0:
            decided = None
    return decided


def _region_conditions(logs, i: int, log_a, log_b) -> tuple[bool, ...] | None:
    """The four region conditions, None when an interval leaves one open."""
    answers = tuple(map(_decide, _region_quantities(logs, i, log_a, log_b)))
    return None if None in answers else answers


def _region_decision(logs, i: int, log_a, log_b) -> bool | None:
    """Whether all four region conditions hold, None when one is left open."""
    return _decide(itertools.chain.from_iterable(_region_quantities(logs, i, log_a, log_b)))


def _regions(lattice: LogLattice, a: Fraction, b: Fraction):
    """(exponents, i) -> (prec -> the arguments of _region_decision for the
    unit with these exponents in region i), log a and log b taken once a prec."""
    bounds = cache(lambda prec: (lattice.rational_log(a, prec), lattice.rational_log(b, prec)))
    return lambda exponents, i: lambda prec: (lattice.log_bounds(exponents, prec), i, *bounds(prec))


def _settled(eps: FieldElement, i: int, region) -> tuple[bool, ...]:
    """The region conditions of eps, those the schedule leaves open settled
    as _refined says: c1 False at eps = 1, the chain by root_indices."""
    c1, chain, c3, c4 = map(_decide, _region_quantities(*region(PREC_SCHEDULE[-1])))
    if c1 is None and eps == eps.field.one:
        c1 = False
    if None in (c1, c3, c4):
        raise PrecisionExhausted(f"region {i+1} of {eps} is open at {PREC_SCHEDULE[-1]} bits")
    if chain is None:
        n = eps.field.degree
        indices = root_indices(eps, [(i + k) % n for k in range(1, n)])
        chain = all(p > q for p, q in zip(indices, indices[1:]))
    return c1, chain, c3, c4


def check_admissible_bounds(cand: AdmissibleCandidate) -> ValidationReport:
    """Per-unit verification of the sufficient ratio-bound conditions,
    decided by _refined on the candidate's log matrix."""
    names = ("below-above-one", "chain", "ratios-within-a", "ratio-exceeds-b")
    details = ("", "", f"a={cand.a}", f"b={cand.b}")
    conditions, regions = [], _regions(cand.lattice, cand.a, cand.b)
    for idx, eps in enumerate(cand.units):
        region = regions([int(q == idx) for q in range(len(cand.units))], idx)
        answers = _refined(lambda prec: _region_conditions(*region(prec)),
                           lambda: _settled(eps, idx, region))
        conditions += [ConditionReport(f"unit{idx+1}-{name}", ok, detail)
                       for name, ok, detail in zip(names, answers, details)]
    return ValidationReport(conditions)


def check_admissible(cand: AdmissibleCandidate) -> ValidationReport:
    """Direct verification of the limit-pair admissibility conditions.

    Distinct embeddings and the limit pairs of the units and their ratios
    (exponents e_i - e_j) are read off the order of their places, decided by
    _refined on disjoint log intervals of the candidate's log matrix; a
    ratio is built only at the exact end, and one equal to 1 fails as "equal
    units".  The independence minors come from the same matrix."""
    units, lattice, field = cand.units, cand.lattice, cand.lattice.field
    n, rank = field.degree, len(units)
    if n < 3:
        raise DegreeTooSmall("admissibility requires degree at least 3")

    def order(i, j=None):  # the rank of each place's embedding of eps_i / eps_j, None at 1
        def ranks(prec):
            logs = lattice.log_bounds([int(q == i) - int(q == j) for q in range(rank)], prec)
            places = sorted(range(n), key=logs.__getitem__)
            disjoint = all(logs[p][1] < logs[q][0] for p, q in zip(places, places[1:]))
            return [places.index(p) for p in range(n)] if disjoint else None

        def exact():
            x = units[i] if j is None else units[i] * units[j].inverse()
            return None if j is not None and x == field.one else root_indices(x, range(n))

        return _refined(ranks, exact)

    orders = [order(i) for i in range(rank)]
    conditions = [ConditionReport(f"unit{i+1}-distinct-coordinates", len(set(o)) == n)
                  for i, o in enumerate(orders)]
    limits = [(f"unit{i+1}", o, i, (i + 1) % n) for i, o in enumerate(orders)]
    limits += [(f"ratio-{i+1}-{j+1}", order(i, j), i, j)
               for i, j in itertools.permutations(range(rank), 2)]
    for name, o, lo, hi in limits:
        if o is None:
            conditions.append(ConditionReport(f"{name}-limit-pair", False, "equal units"))
            continue
        mins, maxs = _extreme_places(o)
        conditions.append(ConditionReport(
            f"{name}-limit-pair", (mins, maxs) == (frozenset({lo + 1}), frozenset({hi + 1})),
            f"got ({sorted(mins)},{sorted(maxs)})"))

    for subset in itertools.combinations(range(rank), n - 1):
        try:
            ok = lattice.regulator_nonzero(subset)
        except PrecisionExhausted:
            ok = False
        conditions.append(ConditionReport("independence-" + "".join(str(i + 1) for i in subset), ok))
    return ValidationReport(conditions)


def search_admissible(
    V: UnitGroupData, a: Fraction, b: Fraction, radius: int
) -> AdmissibleCandidate | None:
    """Enumerate exponent boxes of the unit lattice by growing max-norm and
    return one unit per search region, or None when the radius is too small.
    Each (candidate, region) is decided by _refined on the generators' log
    matrix, skipped where it stays open; only those the schedule leaves open
    and the units found are built exactly."""
    field = V.field
    n = field.degree
    if n < 3:
        raise DegreeTooSmall("the search requires degree at least 3")
    a, b = Fraction(a), Fraction(b)
    if not b > a > 1:
        raise InvalidBounds(f"bounds must satisfy b > a > 1, got a={a}, b={b}")
    if radius < 0:
        raise NegativeIndex(f"radius {radius} is negative")

    found: dict[int, FieldElement] = {}
    powers = UnitPowers(field, V.generators)
    lattice = LogLattice(V)
    regions = _regions(lattice, a, b)
    exponents = sorted(
        itertools.product(range(-radius, radius + 1), repeat=V.rank),
        key=lambda e: (max(abs(v) for v in e) if e else 0, e),
    )
    for exp in exponents:
        if not any(exp):
            continue
        if len(found) == n:
            break
        logs = lattice.log_bounds(exp, PREC_SCHEDULE[0])
        nonpositive = {p for p, (_, hi) in enumerate(logs) if hi <= 0}
        for i in range(n):
            # c1 needs log eps^(i) < 0 < log eps^(j) for j != i: where the
            # first bounds already fail that, _region_decision is False
            if i in found or logs[i][0] >= 0 or nonpositive - {i}:
                continue
            region = regions(exp, i)
            try:
                ok = _refined(lambda prec: _region_decision(*region(prec)),
                              lambda: all(_settled(powers(exp), i, region)))
            except PrecisionExhausted:
                continue
            if ok:
                found[i] = powers(exp)
                break
    if len(found) < n:
        return None
    units = UnitGroupData._checked(tuple(found[i] for i in range(n)))  # products of checked units
    return AdmissibleCandidate(LogLattice(units), a, b)


# ---------------------------------------------------------------------------
# hull charts of the exhaustion sets


class HullChart(Record):
    """Chart of the projected unit sublattice with exponent-sum zero.

    The chart drops the omitted place j and keeps the places of index_set
    (0-indexed); the boundary surface through the charted points is
    prod z_i^(a_i) = 1 with certified-positive exponents, each a_i enclosed by
    the Interval a_vec[i], whose exact endpoints are exponents[i].  points
    maps exponent vectors to coordinates.
    """

    __slots__ = ("index_set", "omitted", "a_vec", "window", "points", "prec")

    def __init__(
        self, index_set: tuple[int, ...], omitted: int, a_vec: tuple[Interval, ...],
        window: int, points: dict[tuple[int, ...], tuple[Interval, ...]], prec: int,
    ):
        self._fill(index_set, omitted, a_vec, window, points, prec)

    @property
    def exponents(self) -> tuple[tuple[Fraction, Fraction], ...]:
        return tuple(ai.endpoints() for ai in self.a_vec)


def _chart_point(x: FieldElement, omitted: int, prec: int) -> tuple[Interval, ...]:
    denom = _embedding_iv_positive(x, omitted, prec)
    places = (p for p in range(x.field.degree) if p != omitted)
    return tuple(_embedding_iv_positive(x, p, prec) / denom for p in places)


def _chart_monomials(lattice: LogLattice, I: Sequence[int], omitted: int,
                     prec: int) -> ExponentTable:
    """Chart points of the products prod_{q in I} u_q^(e_q) of the lattice's
    generators by exponent vector e, as interval monomials
    prod_q (u_q^(p) / u_q^(omitted))^(e_q) over the places p other than the
    omitted one: _chart_point without the exact product."""
    E = lattice.embeddings(prec)
    steps = []
    for q in I:
        ivs = [row[q] for row in E]
        others = ivs[:omitted] + ivs[omitted + 1 :]
        steps.append((tuple(ivs[omitted] / z for z in others),
                      tuple(z / ivs[omitted] for z in others)))
    one = Interval.of(1, 1, prec + GUARD_BITS)
    return ExponentTable(len(steps), (one,) * (len(E) - 1),
                         lambda z, i, up: tuple(x * y for x, y in zip(z, steps[i][up])))


def _iv_solve(rows, rhs):
    """Interval Gaussian elimination; raises on a pivot containing zero."""
    m = [list(r) + [v] for r, v in zip(rows, rhs)]
    size = len(m)
    for c in range(size):
        pivot = next((i for i in range(c, size) if _iv_sign(m[i][c]) is not None), None)
        if pivot is None:
            raise SingularMatrix("interval pivot contains zero")
        m[c], m[pivot] = m[pivot], m[c]
        for i in range(size):
            if i != c:
                f = m[i][c] / m[c][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[c])]
    return [m[i][size] / m[i][i] for i in range(size)]


def hull_chart(cand: AdmissibleCandidate, index_set: Iterable[int], window: int) -> HullChart:
    """Chart the exponent-sum-zero sublattice for the given (n-1)-subset of
    unit indices (0-indexed), omitting the complementary place.  The chart
    is read off the candidate's lattice and kept there."""
    lattice = cand.lattice
    n = lattice.field.degree
    if window < 0:
        raise NegativeIndex(f"window {window} is negative")
    I = tuple(sorted(index_set))
    omitted = set(range(n)) - set(I)
    if len(I) != n - 1 or len(omitted) != 1:
        raise DegreeMismatch(f"{I} is not n-1 = {n - 1} distinct places of {n}")
    if (I, window) in lattice._charts:
        return lattice._charts[I, window]
    (j,) = omitted
    exponent_vectors = _zero_sum_exponents(len(I), window)

    errors = []

    def chart_at(prec):
        try:
            # row q, column p: log of the chart coordinate p of eps_q; the
            # positive normalization of the boundary exponents needs the
            # omitted-place log first in the difference
            L = lattice.log_intervals(prec)
            rows = [[L[j][q] - L[p][q] for p in range(n) if p != j] for q in I]
            # the exponents solve sum_p a_p rows[q][p] = 1 for every q
            a_vec = _iv_solve(rows, [1] * (n - 1))
            if not all(_iv_sign(ai) == 1 for ai in a_vec):
                raise PrecisionExhausted("exponents not certified positive")
            _check_on_boundary(lattice, I, j, a_vec, prec, exponent_vectors)
            monomials = _chart_monomials(lattice, I, j, prec)
            points = {exp: monomials(exp) for exp in exponent_vectors}
            return HullChart(I, j, tuple(a_vec), window, points, prec)
        except (PrecisionExhausted, SingularMatrix) as exc:
            errors.append(exc)
            return None

    def exhausted():
        if isinstance(errors[-1], SingularMatrix):
            raise errors[-1]
        raise PrecisionExhausted(f"hull chart failed at all precisions: {errors[-1]}")

    chart = lattice._charts[I, window] = _refined(chart_at, exhausted)
    return chart


def _check_on_boundary(lattice: LogLattice, I: Sequence[int], j: int, a_vec,
                       prec: int, exponent_vectors) -> None:
    """PrecisionExhausted unless every chart point with exponents e may lie
    on sum_p a_p log z_p = 0, with no log taken: z_p = prod_q (u_q^(p) /
    u_q^(j))^(e_q), so the form is -sum_q e_q (row_q . a) for row_q[p] =
    log u_q^(j) - log u_q^(p), one signed integer sum over e of bounds on
    each row_q . a.  The exact a solves row_q . a = 1, so the exact form is
    -sum_q e_q = 0."""
    _, L = lattice.log_matrix(prec)
    _, (a,) = _on_common_scale([a_vec])
    dots = []
    for q in I:  # row_q's bounds times a's: the four-product min and max
        row = [(L[j][q][0] - L[p][q][1], L[j][q][1] - L[p][q][0]) for p in range(len(L)) if p != j]
        products = [[r * x for r in r_p for x in a_p] for r_p, a_p in zip(row, a)]
        dots.append((sum(map(min, products)), sum(map(max, products))))
    for exp in exponent_vectors:
        if (sum(e * d[e > 0] for e, d in zip(exp, dots)) < 0
                or sum(e * d[e < 0] for e, d in zip(exp, dots)) > 0):  # 0 is outside -sum
            raise PrecisionExhausted(f"charted point {exp} is off the boundary surface")


def _log_form(a_vec, z) -> Interval:
    """sum a_i log z_i, the boundary surface's defining form, at a point z
    that is not a chart point."""
    return reduce(operator.add, (ai * zi.log() for ai, zi in zip(a_vec, z)))


def _zero_sum_exponents(r: int, window: int):
    """Exponent vectors with entries in [-window, window] summing to zero."""
    box = itertools.product(range(-window, window + 1), repeat=r)
    return sorted(exp for exp in box if sum(exp) == 0)


def verify_vertices(chart: HullChart) -> bool:
    """Certify that every charted point is a vertex of the convex hull of
    the charted points, via an explicit separating functional.

    The functional at P is the gradient a_i / P_i of sum a_i log z_i, and Q
    lies on its far side when sum_i (a_i / P_i)(Q_i - P_i) > 0.  Times the
    positive prod_r P_r, that is sum_i a_i (Q_i - P_i) prod_{r != i} P_r,
    which _integer_separations bounds with no division; a pair its bounds
    leave open is tested in intervals, and PrecisionExhausted is raised when
    those leave it open too.
    """
    for key, other, s in _integer_separations(chart):
        if s is None:
            P, Q = chart.points[key], chart.points[other]
            s = _iv_sign(reduce(operator.add, (
                ai / pi * (qi - pi) for ai, qi, pi in zip(chart.a_vec, Q, P))))
            if s is None:
                raise PrecisionExhausted(
                    f"cannot certify separation of {key} from {other}"
                )
        if s < 0:
            return False
    return True


def _integer_separations(chart: HullChart):
    """(key of P, key of Q, sign) for every ordered pair of distinct charted
    points, in sorted key order: the sign of sum_i a_i (Q_i - P_i) prod_{r != i} P_r,
    summed exactly on integer bounds of the points over one power of two and
    of a over another, or None when the bounds leave it open or do not
    certify a and P positive."""
    keys = sorted(chart.points)
    _, pts = _on_common_scale([chart.points[k] for k in keys])
    _, (a,) = _on_common_scale([chart.a_vec])
    for key, P in zip(keys, pts):
        # bounds on the weights a_i prod_{r != i} P_r, all positive
        weights = None
        if all(lo > 0 for lo, _ in a + P):
            weights = [(alo * math.prod(lo for lo, _ in P[:i] + P[i + 1:]),
                        ahi * math.prod(hi for _, hi in P[:i] + P[i + 1:]))
                       for i, (alo, ahi) in enumerate(a)]
        for other, Q in zip(keys, pts):
            if other == key:
                continue
            if weights is None:
                yield key, other, None
                continue
            lo = hi = 0
            for (wlo, whi), (plo, phi), (qlo, qhi) in zip(weights, P, Q):
                dlo, dhi = qlo - phi, qhi - plo
                lo += (wlo if dlo >= 0 else whi) * dlo
                hi += (whi if dhi >= 0 else wlo) * dhi
            yield key, other, 1 if lo > 0 else -1 if hi < 0 else None


# ---------------------------------------------------------------------------
# membership in the exhaustion sets


def exhaustion_contains(
    cand: AdmissibleCandidate, N: int, x: FieldElement, window: int = 4
) -> bool:
    """Certified membership of x in the N-th convex exhaustion set: for each
    omitted place j, the chart of eps_j^N * x must lie in the hull region of
    the corresponding unit sublattice."""
    n = x.field.degree
    if x.is_zero() or not is_totally_positive(x):
        return False
    for j in range(n):
        I = tuple(p for p in range(n) if p != j)
        chart = hull_chart(cand, I, window)
        y = x * cand.units[j] ** N
        inside = _chart_region_contains(chart, y)
        if inside is False:
            return False
        if inside is None:
            raise WindowTooSmall(
                f"hull description at window {window} cannot decide place {j+1}"
            )
    return True


def _chart_region_contains(chart: HullChart, y: FieldElement) -> bool | None:
    """True/False when certified, None when the window cannot decide.

    The hull region is upward closed (its recession cone is the nonnegative
    orthant of the chart), so membership certificates are: domination of a
    charted point, or — in the two-dimensional chart — lying weakly above
    the bracketing edge of the boundary polyline.  Lying strictly below the
    smooth boundary surface, or below a bracketing edge, certifies False.
    """
    z = _chart_point(y, chart.omitted, chart.prec)
    keys = sorted(chart.points)
    pts = [chart.points[k] for k in keys]
    d = len(z)

    # outside the smooth region that contains the hull: certified False
    if _iv_sign(_log_form(chart.a_vec, z)) == -1:
        return False

    # domination of a charted point
    for P in pts:
        if all(_iv_sign(zi - pi) == 1 for zi, pi in zip(z, P)):
            return True

    if d != 2:
        # simplex certificates only; enough for interior points near the window
        for simplex in itertools.combinations(range(len(pts)), d + 1):
            if _certify_in_simplex([pts[i] for i in simplex], z):
                return True
        return None

    # two-dimensional chart: consecutive charted points are consecutive
    # lattice points, so the windowed polyline edges are true hull edges
    order = sorted(range(len(pts)), key=lambda i: sum(pts[i][0].endpoints()))
    pts = [pts[i] for i in order]
    for P, Q in zip(pts, pts[1:]):
        left = _iv_sign(z[0] - P[0])
        right = _iv_sign(Q[0] - z[0])
        if left is None or right is None:
            return None
        if left < 0 or right < 0:
            continue  # not bracketed by this edge
        cross = (Q[0] - P[0]) * (z[1] - P[1]) - (Q[1] - P[1]) * (z[0] - P[0])
        s = _iv_sign(cross)
        if s is None:
            return None
        return s > 0  # above the edge: inside; below: outside
    return None


def _certify_in_simplex(vertices, z) -> bool:
    """Interval barycentric test: all signed volumes share the sign of the
    reference volume."""
    d = len(z)
    base = vertices[0]
    ref_rows = [
        [vertices[i + 1][k] - base[k] for k in range(d)] for i in range(d)
    ]
    ref = _iv_det(ref_rows)
    if _iv_sign(ref) is None:
        return False
    for i in range(d + 1):
        rows = []
        for m in range(d + 1):
            if m == i:
                continue
            corner = vertices[m]
            rows.append([corner[k] - z[k] for k in range(d)])
        vol = _iv_det(rows)
        s = _iv_sign(vol * ref)
        if s is None or ((-1) ** i) * s < 0:
            return False
    return True

