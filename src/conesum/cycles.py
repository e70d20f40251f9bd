"""Formal chains and cycles on projective space, and their duality.

A degree-g chain is stored fully expanded: a finite map from flags
(L1 < L2 < ... < Lg of linear subspaces, by canonical key) to integer-weighted
point sets of total weight zero sitting inside L1.  Sums of chains merge leaf
by leaf, so equality of cycles is literal dictionary equality — no quotient
is ever needed.

Degrees follow the chain complex: a projective k-polyhedron has a boundary
cycle of degree k-1; the top degree on P^(n-1) is n-2.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from fractions import Fraction

from . import linalg
from .errors import DegreeMismatch, DependentTuple, MixedExponents, NotACycle, NotTopDegree
from .field import FieldElement, TotallyRealField
from .geometry import Cone, LinearSubspace, ProjPolyhedron, trace_duals
from .record import FrozenRecord

PointKey = tuple[Fraction, ...]
Flag = tuple  # tuple of LinearSubspace keys, increasing dimension
Leaf = dict[PointKey, int]


def _point_key(p) -> PointKey:
    if isinstance(p, FieldElement):
        return p.proj_key()
    return tuple(Fraction(v) for v in p)


def _merge(out: dict[Flag, Leaf], flag: Flag, leaf: Leaf, sign: int = 1) -> None:
    """Add sign * leaf into out[flag], point by point."""
    tgt = out.setdefault(flag, {})
    for p, w in leaf.items():
        tgt[p] = tgt.get(p, 0) + sign * w


def _segment(a: PointKey, b: PointKey, sign: int = 1) -> dict[Flag, Leaf]:
    """The degree-0 chain sign * ([a] - [b])."""
    out = {(): {a: sign}}
    _merge(out, (), {b: -sign})
    return out


class Cycle:
    """Flag-expanded formal chain; immutable once built."""

    __slots__ = ("field", "degree", "data")

    def __init__(self, field: TotallyRealField, degree: int, data: dict[Flag, Leaf]):
        clean: dict[Flag, Leaf] = {}
        for flag, leaf in data.items():
            pruned = {p: w for p, w in leaf.items() if w != 0}
            if pruned:
                clean[flag] = pruned
        self.field = field
        self.degree = degree
        self.data = clean

    @classmethod
    def zero(cls, field: TotallyRealField, degree: int) -> "Cycle":
        return cls(field, degree, {})

    def is_zero(self) -> bool:
        return not self.data

    def __add__(self, other: "Cycle") -> "Cycle":
        if self.degree != other.degree:
            raise DegreeMismatch(f"cycles of degrees {self.degree} and {other.degree}")
        if not other.data or not self.data:  # immutable, so a summand serves
            return self if not other.data else other
        data: dict[Flag, Leaf] = {}
        for c in (self, other):
            for flag, leaf in c.data.items():
                _merge(data, flag, leaf)
        return Cycle(self.field, self.degree, data)

    def __neg__(self) -> "Cycle":
        return self * -1

    def __sub__(self, other: "Cycle") -> "Cycle":
        return self + (-other)

    def __mul__(self, k: int) -> "Cycle":
        return Cycle(
            self.field,
            self.degree,
            {f: {p: k * w for p, w in l.items()} for f, l in self.data.items()},
        )

    __rmul__ = __mul__

    def __eq__(self, other):
        return (
            isinstance(other, Cycle)
            and self.degree == other.degree
            and self.data == other.data
        )

    def __hash__(self):
        return hash(
            (self.degree, frozenset((f, frozenset(l.items())) for f, l in self.data.items()))
        )

    def points(self) -> set[PointKey]:
        out: set[PointKey] = set()
        for leaf in self.data.values():
            out.update(leaf)
        return out

    def __repr__(self):
        return f"Cycle(degree={self.degree}, flags={len(self.data)})"


def boundary(c: Cycle):
    """Differential: drop the top subspace of each flag and merge.

    For degree 0 returns the total weight (the augmentation).
    """
    if c.degree == 0:
        return sum(w for leaf in c.data.values() for w in leaf.values())
    data: dict[Flag, Leaf] = {}
    for flag, leaf in c.data.items():
        _merge(data, flag[:-1], leaf)
    return Cycle(c.field, c.degree - 1, data)


def is_cycle(c: Cycle) -> bool:
    b = boundary(c)
    return b == 0 if isinstance(b, int) else b.is_zero()


# ---------------------------------------------------------------------------
# simplicial cycles


class SimplexSpec(FrozenRecord):
    """Ordered tuple of projective F-points defining a simplicial cycle."""

    __slots__ = ("points",)

    def __init__(self, points: tuple[FieldElement, ...]):
        self._fill(points)

    def degree(self) -> int:
        return len(self.points) - 2


def simplex_cycle(
    field: TotallyRealField, points: "Sequence[FieldElement] | SimplexSpec"
) -> Cycle:
    """The recursive flag expansion of an oriented simplex on g+2 points.

    Reordering by a permutation multiplies the result by its sign; a linearly
    dependent point list yields the zero cycle.
    """
    if isinstance(points, SimplexSpec):
        points = points.points
    pts = [field.element(_point_key(p)) for p in points]
    g = len(pts) - 2
    if g < 0:
        raise DegreeMismatch(f"a simplex cycle needs at least 2 points, got {len(pts)}")
    if linalg.rank([p.num for p in pts]) != len(pts):
        return Cycle.zero(field, g)
    return Cycle(field, g, _simplex_expand(field, pts))


def _simplex_expand(
    field: TotallyRealField, pts: Sequence[FieldElement]
) -> dict[Flag, Leaf]:
    if len(pts) == 2:
        return _segment(pts[0].proj_key(), pts[1].proj_key())
    out: dict[Flag, Leaf] = {}
    for r in range(len(pts)):
        rest = pts[:r] + pts[r + 1 :]
        span_key = LinearSubspace.from_points(field, rest).key
        sign = 1 if r % 2 == 0 else -1
        for flag, leaf in _simplex_expand(field, rest).items():
            _merge(out, flag + (span_key,), leaf, sign)
    return out


# ---------------------------------------------------------------------------
# CPD functions and the extension to cycles


class CPDFunction(FrozenRecord):
    """A function on point tuples satisfying the cocycle, permutation and
    degeneracy properties, with values in a torsion-free abelian group."""

    __slots__ = ("arity", "evaluate", "zero", "name")

    def __init__(
        self, arity: int, evaluate: Callable[[tuple[FieldElement, ...]], object], zero: object,
        name: str = "cpd",
    ):
        self._fill(arity, evaluate, zero, name)


def decompose_cycle(z: Cycle) -> list[tuple[int, tuple[FieldElement, ...]]]:
    """Write a cycle as an integer combination of simplices.

    Components at each top subspace are decomposed recursively and coned from
    the canonical base, the lexicographically smallest canonical point of the
    cycle, so the result is deterministic.
    """
    field = z.field
    if z.is_zero():
        return []
    if z.degree == 0:
        (leaf,) = z.data.values()
        base_key = min(leaf)
        base = field.element(base_key)
        return [(w, (field.element(p), base)) for p, w in sorted(leaf.items()) if p != base_key]
    base = field.element(min(z.points()))
    terms: list[tuple[int, tuple[FieldElement, ...]]] = []
    groups: dict[tuple, dict[Flag, Leaf]] = {}
    for flag, leaf in z.data.items():
        groups.setdefault(flag[-1], {})[flag[:-1]] = leaf
    for top_key in sorted(groups):
        component = Cycle(field, z.degree - 1, groups[top_key])
        for coef, pts in decompose_cycle(component):
            terms.append((coef, (base,) + pts))
    return terms


def cpd_extend(f: CPDFunction, z: Cycle):
    """Value of the unique homomorphism extending f to cycles, summed over
    the canonical decomposition of z; a SingularAtX0 of f on one of its
    simplices propagates.  f vanishes on dependent tuples, so they need no
    test.  Cycle values are summed leaf by leaf into one accumulator."""
    if not is_cycle(z):
        raise NotACycle("cpd extension is defined on cycles only")
    if f.arity != z.degree + 2:
        raise DegreeMismatch(f"{f.name} takes {f.arity} points, not {z.degree + 2}")
    total = f.zero
    if isinstance(total, Cycle):
        data: dict[Flag, Leaf] = {}
        for coef, pts in decompose_cycle(z):
            for flag, leaf in f.evaluate(pts).data.items():
                _merge(data, flag, leaf, coef)
        return Cycle(total.field, total.degree, data)
    for coef, pts in decompose_cycle(z):
        value = f.evaluate(pts)
        total = total + (value if coef == 1 else value * coef)
    return total


def orthogonal_point(field: TotallyRealField, points: Sequence[FieldElement]) -> FieldElement:
    """The F-point spanning the trace-orthogonal complement of n-1 points:
    the kernel of their rows T num, first nonzero coordinate 1."""
    ker = linalg.kernel([linalg.mat_vec(field.trace_matrix, p.num) for p in points])
    if len(ker) != 1:
        raise DependentTuple(f"{len(points)} points with a {len(ker)}-dimensional complement")
    return field.element(field.element(ker[0]).proj_key())


def dual_point_function(field: TotallyRealField) -> CPDFunction:
    """The CPD function sending a point tuple to the simplex on the
    trace-orthogonal points of its facet spans: the trace-dual basis, whose
    B_i spans the complement of the points but the i-th."""
    n = field.degree

    def evaluate(pts: tuple[FieldElement, ...]) -> Cycle:
        try:
            duals = trace_duals(pts)
        except DependentTuple:
            return Cycle.zero(field, n - 2)
        return Cycle(field, n - 2, _simplex_expand(field, duals))

    return CPDFunction(arity=n, evaluate=evaluate, zero=Cycle.zero(field, n - 2), name="dual")


def dual_cycle(z: Cycle) -> Cycle:
    """Image of a top-degree cycle under the dual-point CPD function."""
    n = z.field.degree
    if z.degree != n - 2:
        raise NotTopDegree(f"dual cycle needs degree {n - 2}, got {z.degree}")
    return cpd_extend(dual_point_function(z.field), z)


# ---------------------------------------------------------------------------
# the boundary cycle of a projective polyhedron


def _orientation_det(span: LinearSubspace, vectors: Sequence[Sequence[Fraction]]) -> Fraction:
    return linalg.det([span.coordinates(v) for v in vectors])


def _cone_boundary(cone: Cone, span: LinearSubspace, sign: int) -> dict[Flag, Leaf]:
    """Boundary chain of a cone full-dimensional in span, oriented by the
    span's echelon basis times sign."""
    if cone.dim == 2:
        x, y = cone.extreme_rays
        d = _orientation_det(span, [x.coords, y.coords])
        return _segment(x.proj_key(), y.proj_key(), sign if d > 0 else -sign)
    out: dict[Flag, Leaf] = {}
    for _, tight in cone._facet_data:
        facet = Cone(cone.field, [cone.generators[i] for i in tight])
        # off the facet every generator pairs positively with its inner normal
        inward = sum(
            (g for i, g in enumerate(cone.generators) if i not in tight), cone.field.zero
        )
        d = _orientation_det(span, [inward.coords, *facet.span.basis])
        child = _cone_boundary(facet, facet.span, sign if d > 0 else -sign)
        for flag, leaf in child.items():
            _merge(out, flag + (facet.span.key,), leaf)
    return out


def boundary_cycle(K: ProjPolyhedron, orientation: int = 1) -> Cycle:
    """The polyhedral cycle of the oriented boundary of K.

    K must be full-dimensional in its span; the span is oriented by its
    canonical echelon basis, flipped by the global sign.
    """
    if orientation not in (1, -1):
        raise MixedExponents(f"orientation must be 1 or -1, got {orientation}")
    return Cycle(K.field, K.dim - 1, _cone_boundary(K.cone, K.cone.span, orientation))


def duality_check(K: ProjPolyhedron) -> bool:
    """Compare the boundary cycle of the dual polyhedron with the dual of the
    boundary cycle, computed along independent code paths."""
    lhs = boundary_cycle(K.dual())
    rhs = dual_cycle(boundary_cycle(K))
    return lhs == rhs
