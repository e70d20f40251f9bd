"""Unit-periodic cone decompositions of the totally positive chamber.

An infinite fan is never materialized: a description holds orbit data (for
real quadratic fields, the boundary polyline of the convex hull of totally
positive lattice points; otherwise explicit orbit representatives), and
finite face-closed truncations are enumerated on demand.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from collections.abc import Sequence
from functools import cached_property

from . import linalg
from .errors import (
    NegativeIndex,
    NotAUnit,
    NotFullRank,
    NotSimplicial,
    NotTotallyPositive,
    RayOnExistingFace,
    UnitDoesNotPreserveM,
    UnsupportedFanKind,
    ZeroInput,
)
from .field import (
    ExponentTable,
    FieldElement,
    TotallyRealField,
    UnitPowers,
    coord_det,
    is_totally_positive,
    minus_continued_fraction,
)
from .geometry import Cone, coordinate_rows, cut, integer_rays, walls
from .record import FrozenRecord, Record


# ---------------------------------------------------------------------------
# quadratic hull boundary


class VertexSequence(FrozenRecord):
    """Periodic boundary points A_k of the hull of totally positive lattice
    points, with unit translation A_{k+m} = eps * A_k and the integer
    relations A_{k-1} + A_{k+1} = b_k A_k."""

    __slots__ = ("module_basis", "unit", "period", "base_points", "b_cycle")

    def __init__(
        self, module_basis: tuple[FieldElement, ...], unit: FieldElement, period: int,
        base_points: tuple[FieldElement, ...], b_cycle: tuple[int, ...],
    ):
        self._fill(module_basis, unit, period, base_points, b_cycle)

    def point(self, k: int) -> FieldElement:
        q, r = divmod(k, self.period)
        return self.base_points[r] * self.unit**q

    def b(self, k: int) -> int:
        return self.b_cycle[k % self.period]


def build_quadratic_fan(
    module_basis: Sequence[FieldElement], unit: FieldElement
) -> tuple["FanDescription", VertexSequence]:
    """Good fan for a real quadratic field from the hull boundary of the
    totally positive points of the lattice spanned by module_basis."""
    F = module_basis[0].field
    if F.degree != 2:
        raise UnitDoesNotPreserveM("hull construction applies to quadratic fields only")
    frame = LatticeFrame(module_basis, (unit,))  # a TP unit of M, or the loop never ends

    # walk in the direction of increasing place-2 embedding
    eps_up = unit if F.sign_at(unit - F.one, 1) > 0 else unit.inverse()
    if eps_up == F.one:
        raise UnitDoesNotPreserveM("unit acts trivially")

    points, b_period, eps0 = minus_continued_fraction(module_basis)
    p = len(points)
    powers = UnitPowers(F, (eps0,))

    def point(k: int) -> FieldElement:  # each power of eps0 is built once
        q, r = divmod(k, p)
        return points[r] * powers((q,))

    m = p  # eps_up, which preserves M, is a power of the generator eps0
    while powers((m // p,)) != eps_up:
        m += p

    def trace(k: int):
        return point(k).trace()

    # start at a trace-minimal point, ties broken by coordinates: the trace
    # is convex along the boundary (b_k >= 2), so descend to the first
    # minimal index and scan the plateau of ties after it
    k = 0
    while trace(k - 1) <= trace(k):
        k -= 1
    while trace(k + 1) < trace(k):
        k += 1
    ties = [k]
    while trace(ties[-1] + 1) == trace(k):
        ties.append(ties[-1] + 1)
    start = min(ties, key=lambda i: point(i).coords)
    seq = [point(start + i) for i in range(m)]
    bs = [b_period[(start + i) % p] for i in range(m)]

    # canonical rotation: lexicographically smallest b-cycle, ties broken by
    # the starting point's coordinates
    best = min(
        range(m), key=lambda r: (tuple(bs[r:] + bs[:r]), seq[r].coords)
    )
    seq = seq[best:] + [p * eps_up for p in seq[:best]]
    bs = bs[best:] + bs[:best]

    vs = VertexSequence(
        module_basis=tuple(module_basis),
        unit=eps_up,
        period=m,
        base_points=tuple(seq),
        b_cycle=tuple(bs),
    )
    desc = FanDescription("quadratic-auto", tuple(module_basis), (eps_up,), vs)
    if eps_up is not unit:  # the checked pair (U, adj U) of unit, as eps_up's
        frame.units = [(inv, U) for U, inv in frame.units]
    object.__setattr__(desc, "_frame", frame._hold(desc.orbit_cones))
    return desc, vs


# ---------------------------------------------------------------------------
# fan descriptions and truncations


class _FrameSlot(FrozenRecord):
    __slots__ = ("_frame",)  # not a field: a record's fields are its own class's __slots__


class FanDescription(_FrameSlot):
    """V-periodic fan, given either by the quadratic hull data (kind
    "quadratic-auto") or by explicit cone orbit representatives (kind
    "explicit"); a quadratic description derives its representatives from
    the hull data.  Its frame, built once, is kept outside the fields."""

    __slots__ = ("kind", "module_basis", "units", "vertex_sequence", "orbit_cones")

    def __init__(
        self, kind: str, module_basis: tuple[FieldElement, ...], units: tuple[FieldElement, ...],
        vertex_sequence: VertexSequence | None = None, orbit_cones: tuple[Cone, ...] = (),
    ):
        # a quadratic fan's orbit representatives: A_r A_{r+1} over one period
        if kind == "quadratic-auto" and not orbit_cones:
            vs, field = vertex_sequence, module_basis[0].field
            ring = vs.base_points + (vs.base_points[0] * vs.unit,)
            orbit_cones = tuple(Cone(field, ring[r : r + 2]) for r in range(vs.period))
        self._fill(kind, module_basis, units, vertex_sequence, orbit_cones)

    @property
    def field(self) -> TotallyRealField:
        return self.module_basis[0].field

    @property
    def frame(self) -> "LatticeFrame":
        if not hasattr(self, "_frame"):
            frame = LatticeFrame(self.module_basis, self.units)._hold(self.orbit_cones)
            object.__setattr__(self, "_frame", frame)
        return self._frame


class TruncatedFan:
    """Finite face-closed window of a fan: the translates u^e t_r of its
    orbit representatives t_r, as (exponent vector e, representative index
    r) pairs in top order.  The top cones are built when first read."""

    def __init__(self, description: FanDescription, pairs: Sequence[tuple], window: int):
        self.description = description
        self.field = description.field
        self.pairs = tuple(pairs)
        self.window = window

    @cached_property
    def top_cones(self) -> tuple[Cone, ...]:
        powers = UnitPowers(self.field, self.description.units)
        reps = self.description.orbit_cones
        return tuple(reps[r].mul_unit(powers(e)) for e, r in self.pairs)

    @cached_property
    def labels(self) -> dict:
        """On a quadratic fan, e*len(reps) + r by the key of each top u^e t_r
        (the vertex index k of A_k A_{k+1} only on an unrefined fan)."""
        if self.description.kind != "quadratic-auto":
            return {}
        m = len(self.description.orbit_cones)
        return {t.key(): e * m + r for t, ((e,), r) in zip(self.top_cones, self.pairs)}

    def group_singular_terms(self, x0: FieldElement) -> list["TermGroup"]:
        """The top cones in the stars of summation.star_groups, one per
        singular cone of x0 and in its order, then the regular tops as
        singletons in top order.  ZeroInput for x0 = 0, NotSimplicial for a
        representative that is not a full-dimensional simplicial cone."""
        from .summation import WindowSum, star_groups  # summation imports fan

        if x0.is_zero():
            raise ZeroInput("the zero point lies on every face")
        terms = WindowSum(self.description, x0)
        tops, moves = dict(zip(self.pairs, self.top_cones)), terms.frame.moves
        singular = {moves[r](e): tops.pop((e, r)) for e, r in terms.add(self.pairs)}
        return [
            TermGroup(sigma=Cone._canonical(self.field, tuple(map(self.field.element, keys))),
                      cones=tuple(singular[cols] for cols, _ in members))
            for keys, members in star_groups(terms.stars.values(), terms.frame)
        ] + [TermGroup(sigma=None, cones=(t,)) for t in tops.values()]


class TermGroup(FrozenRecord):
    __slots__ = ("sigma", "cones")

    def __init__(self, sigma: Cone | None, cones: tuple[Cone, ...]):
        self._fill(sigma, cones)

    @property
    def is_singleton(self) -> bool:
        return self.sigma is None


class LatticeFrame:
    """Integer coordinates x = B Y / d in the module with basis B, and each
    unit u as the pair (U, U^-1) of integer matrices of x -> u x.  Only
    totally positive units are taken, so det U = N(u) is 1: U^-1 = adj U,
    u^-e x keeps the d of x, and moved columns stay primitive and keep the
    sign of det C.  u M in M makes u integral, so this checks a whole unit."""

    def __init__(self, module_basis: Sequence[FieldElement], units: Sequence[FieldElement] = ()):
        self.basis, self.field = tuple(module_basis), module_basis[0].field
        self.det = coord_det(self.basis)
        if not self.det:
            raise NotFullRank("module basis elements are linearly dependent")
        self._rows, self._den = coordinate_rows(self.basis)
        self.units = []
        for u in units:
            if u.is_zero():
                raise NotAUnit(f"{u} is not a unit")
            if not is_totally_positive(u):  # first, and det 1 is not enough: -eps on Q(sqrt 3)
                raise NotTotallyPositive(f"{u} is not totally positive")
            images = [self.coordinates(u * b) for b in self.basis]
            if any(d != 1 for _, d in images):
                raise UnitDoesNotPreserveM(f"{u} does not preserve the lattice")
            U = list(zip(*(y for y, _ in images)))
            inv, det = linalg.adjugate(U)
            if abs(det) != 1:
                raise NotAUnit(f"{u} is not a unit")
            self.units.append((U, inv))

    def _hold(self, cones: Sequence[Cone]) -> "LatticeFrame":
        """Keeps a fan's representatives' columns, oriented if all are simplicial, and moves."""
        self.reps = [self.columns(t) for t in cones]
        self._simplicial = all(map(self._orient, self.reps))
        self.moves = [self.moved(cols) for cols in self.reps]
        return self

    @cached_property
    def forms(self) -> list:
        """The representatives' TermForms; NotSimplicial unless all are simplicial."""
        from .summation import TermForm  # summation imports fan
        if not self._simplicial:
            raise NotSimplicial("cone term needs a simplicial top cone")
        return [TermForm.in_basis(cols, self.det, self.field) for cols in self.reps]

    def coordinates(self, x: FieldElement) -> tuple[tuple[int, ...], int]:
        """(Y, d) in lowest terms."""
        Y, d = linalg.mat_vec(self._rows, x.num), self._den * x.den
        g = math.gcd(d, *Y)
        return tuple(v // g for v in Y), d // g

    def point(self, y: Sequence[int]) -> FieldElement:
        return sum((b * c for b, c in zip(self.basis, y)), self.field.zero)

    def columns(self, t: Cone) -> list[tuple[int, ...]]:
        """Primitive module vectors of a cone's rays, its generators if degree-many."""
        rays = t.generators if len(t.generators) == self.field.degree else t.extreme_rays
        return [_primitive(linalg.mat_vec(self._rows, g.num)) for g in rays]

    def ray_keys(self, cols: Sequence[Sequence[int]]) -> tuple:
        """The sorted ray keys of the points B c of the columns c."""
        return tuple(sorted(self.point(c).ray_key() for c in cols))

    def oriented(self, t: Cone) -> list[tuple[int, ...]]:
        """The primitive module vectors C of a simplicial top cone's rays,
        ordered so that det C has the sign of det B; NotSimplicial unless
        they are degree-many and independent."""
        cols = self.columns(t)
        if not self._orient(cols):
            raise NotSimplicial("cone term needs a simplicial top cone")
        return cols

    def _orient(self, cols: list[tuple[int, ...]]) -> bool:  # simplicial: then as in oriented
        det = linalg.int_det(cols) if len(cols) == self.field.degree else 0
        if det and (det > 0) != (self.det > 0):
            cols[0], cols[1] = cols[1], cols[0]
        return bool(det)

    def walk(self, Y: Sequence[int]) -> ExponentTable:
        """The module coordinates of u^-e x over exponent vectors e, for x =
        B Y / d; each keeps the d of x."""
        return ExponentTable(len(self.units), tuple(Y),
                             lambda y, i, up: linalg.mat_vec(self.units[i][up], y))

    def moved(self, cols: Sequence[Sequence[int]]) -> ExponentTable:
        """The module columns of u^e c for the columns c, over exponent vectors e."""
        return ExponentTable(len(self.units), tuple(cols), lambda cs, i, up: tuple(
            linalg.mat_vec(self.units[i][not up], c) for c in cs))


def _primitive(v: Sequence[int]) -> tuple[int, ...]:
    g = math.gcd(*v)
    return tuple(c // g for c in v)


def window_exponents(description: FanDescription, window: int) -> list[tuple[int, ...]]:
    """The unit exponents e whose translates u^e t of the orbit
    representatives t make up window N, in increasing order: e in [-N, N)
    on a quadratic fan, whose window N is then A_k A_{k+1} for k in
    [-Nm, Nm) (window 0 holds the representatives, e = 0), and [-N, N] in
    each unit on an explicit fan."""
    if window < 0:
        raise NegativeIndex(f"window {window} is negative")
    if description.kind == "quadratic-auto":
        return [(e,) for e in range(-window, max(window, 1))]
    box = range(-window, window + 1)
    return list(itertools.product(box, repeat=len(description.units)))


def truncate(description: FanDescription, window: int) -> TruncatedFan:
    """The translates u^e t_r of the orbit representatives by the unit
    powers of window_exponents, closed under faces, as (e, r) pairs: in (e,
    r) order on a quadratic fan; on an explicit fan each translate once, by
    its primitive module columns, in the order of its sorted ray keys."""
    seen: dict[frozenset, tuple] = {}
    pairs = new_pairs(description, window_exponents(description, window), seen)
    if description.kind != "quadratic-auto":
        pairs = [seen[k] for k in sorted(seen, key=description.frame.ray_keys)]
    return TruncatedFan(description, pairs, window)


def new_pairs(description: FanDescription, exponents, seen: dict) -> list:
    """The pairs (e, r) over the exponent vectors e and representatives r; on
    an explicit fan the first of each translate, keyed by its moved columns
    in the description's frame, that seen lacks, and seen gains it."""
    pairs = [(e, r) for e in exponents for r in range(len(description.orbit_cones))]
    if description.kind == "quadratic-auto":
        return pairs
    moves, known = description.frame.moves, len(seen)
    for e, r in pairs:
        seen.setdefault(frozenset(moves[r](e)), (e, r))
    return list(seen.values())[known:]


# ---------------------------------------------------------------------------
# validation


class ConditionReport(Record):
    __slots__ = ("name", "passed", "detail")

    def __init__(self, name: str, passed: bool, detail: str = ""):
        self._fill(name, passed, detail)


class ValidationReport(Record):
    __slots__ = ("conditions",)

    def __init__(self, conditions: list[ConditionReport] | None = None):
        self._fill([] if conditions is None else conditions)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.conditions)

    def add(self, name: str, passed: bool, detail: str = ""):
        self.conditions.append(ConditionReport(name, passed, detail))

    def as_dict(self):
        return {
            "passed": self.passed,
            "conditions": [
                {"name": c.name, "pass": c.passed, "detail": c.detail}
                for c in self.conditions
            ],
        }


def validate_good_fan(tf: TruncatedFan) -> ValidationReport:
    """Window-local checks of the good-fan conditions; global statements are
    only certified on the truncation.  A top is the primitive module columns
    of its extreme rays in the description's frame, and two cones meet in
    the cone of the extreme rays of their stacked rows (geometry.cut)."""
    report = ValidationReport()
    frame, n = tf.description.frame, tf.field.degree
    tops, cuts = [], {}  # each top's columns, and its (normals, rows) by them
    for e, r in tf.pairs:
        normals, rows = cut(frame.moves[r](e), n)
        tops.append(frozenset(integer_rays(rows, n)))
        cuts[tops[-1]] = normals, rows

    report.add(
        "locally-finite",
        len(cuts) == len(tops),
        f"{len(tops)} top cones in window, {len(cuts)} distinct",
    )
    simplicial = all(len(t) == n and linalg.int_det(list(t)) for t in tops)
    report.add("simplicial", simplicial, "all top cones simplicial and full-dimensional")
    # every column is a lattice point, so every ray is spanned by a field point
    report.add("F-rational", True, "generators are field points")
    positive = all(is_totally_positive(frame.point(c)) for c in set().union(*tops))
    report.add("positive-chamber", positive, "all generating rays totally positive")

    proper, bad = True, ""
    for i, a in enumerate(tops):
        for b in tops[i + 1 :]:
            meet = frozenset(integer_rays(cuts[a][1] + cuts[b][1], n))
            if meet != a & b:
                proper = False
                bad = "intersection is not a common face" if meet else "disjoint cones share rays"
    report.add("common-faces", proper, bad or "pairwise intersections are common faces")

    invariant, detail = True, "unit translates stay consistent"
    for U, _ in frame.units:
        for t in tops:
            moved = [linalg.mat_vec(U, c) for c in t]
            if frozenset(moved) in cuts:
                continue
            # translate leaves the window: it must not overlap any retained cone
            rows = cut(moved, n)[1]
            if any(linalg.rank(integer_rays(rows + other, n)) == n for _, other in cuts.values()):
                invariant, detail = False, "unit translate overlaps the window improperly"
    report.add("unit-action", invariant, detail)

    # local coverage: internal walls shared exactly twice; a ray has none
    over = sum(v > 2 for v in Counter(w for t in tops for w in walls(t, cuts[t][0])).values())
    report.add(
        "window-coverage",
        not over,
        "each wall shared by at most two cones"
        if not over
        else f"{over} walls shared more than twice",
    )
    return report


# ---------------------------------------------------------------------------
# refinement by ray insertion (quadratic fans)


def _strict_host(cones: Sequence[Cone], ray: FieldElement) -> int:
    """Index of the first cone whose relative interior holds the ray."""
    for i, c in enumerate(cones):
        if c.contains_strictly(ray):
            return i
    raise RayOnExistingFace(f"{ray} spans a fan ray or is interior to no cone")


def refine(description: FanDescription, ray: FieldElement) -> FanDescription:
    """The quadratic fan whose orbit representative A B holding the ray
    strictly is replaced, in place, by A ray and ray B (A before B)."""
    d = description
    if d.kind != "quadratic-auto":
        raise UnsupportedFanKind("ray insertion is supported on quadratic fans")
    reps, i = d.orbit_cones, _strict_host(d.orbit_cones, ray)
    a, b = reps[i].generators
    if coord_det([a, b]) < 0:  # generators come in ray-key order, not boundary order
        a, b = b, a
    halves = (Cone(d.field, [a, ray]), Cone(d.field, [ray, b]))
    return FanDescription(
        d.kind, d.module_basis, d.units, d.vertex_sequence, reps[:i] + halves + reps[i + 1 :]
    )


def refine_insert_ray(tf: TruncatedFan, ray: FieldElement) -> TruncatedFan:
    """The window of the fan refined by the ray, moved into its orbit
    representative: the top holding it and its translates split in two."""
    desc = tf.description
    if desc.kind != "quadratic-auto":
        raise UnsupportedFanKind("ray insertion is supported on quadratic fans")
    (e,), _ = tf.pairs[_strict_host(tf.top_cones, ray)]
    moved = ray * UnitPowers(tf.field, desc.units)((-e,))
    return truncate(refine(desc, moved), tf.window)
