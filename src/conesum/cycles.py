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

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

from . import linalg
from .errors import NotACycle, NotTopDegree
from .field import FieldElement, TotallyRealField, trace_pairing
from .geometry import Cone, LinearSubspace, ProjPolyhedron

PointKey = tuple[Fraction, ...]
Flag = tuple  # tuple of LinearSubspace keys, increasing dimension
Leaf = dict[PointKey, int]


def _point_key(p) -> PointKey:
    if isinstance(p, FieldElement):
        return p.proj_key()
    return tuple(Fraction(v) for v in p)


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
        assert self.degree == other.degree
        data: dict[Flag, Leaf] = {f: dict(l) for f, l in self.data.items()}
        for flag, leaf in other.data.items():
            tgt = data.setdefault(flag, {})
            for p, w in leaf.items():
                tgt[p] = tgt.get(p, 0) + w
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

    def validate_chain(self) -> bool:
        """Check the internal cycle conditions at every level below the top."""
        for leaf in self.data.values():
            if sum(leaf.values()) != 0:
                return False
        for level in range(self.degree - 1):
            merged: dict[tuple, Leaf] = {}
            for flag, leaf in self.data.items():
                gapped = flag[:level] + flag[level + 1 :]
                tgt = merged.setdefault(gapped, {})
                for p, w in leaf.items():
                    tgt[p] = tgt.get(p, 0) + w
            for leafsum in merged.values():
                if any(w != 0 for w in leafsum.values()):
                    return False
        return True

    def to_jsonable(self):
        def frac(x):
            return str(x)

        out = []
        for flag in sorted(self.data):
            leaf = self.data[flag]
            out.append(
                {
                    "flag": [[ [frac(v) for v in row] for row in key[1:]] for key in flag],
                    "leaf": {"|".join(frac(v) for v in p): w for p, w in sorted(leaf.items())},
                }
            )
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
        tgt = data.setdefault(flag[:-1], {})
        for p, w in leaf.items():
            tgt[p] = tgt.get(p, 0) + w
    return Cycle(c.field, c.degree - 1, data)


def is_cycle(c: Cycle) -> bool:
    b = boundary(c)
    return b == 0 if isinstance(b, int) else b.is_zero()


# ---------------------------------------------------------------------------
# simplicial cycles


@dataclass(frozen=True)
class SimplexSpec:
    """Ordered tuple of projective F-points defining a simplicial cycle."""

    points: tuple[FieldElement, ...]

    def degree(self) -> int:
        return len(self.points) - 2


def _independent(field: TotallyRealField, points: Sequence[FieldElement]) -> bool:
    return linalg.rank([p.num for p in points]) == len(points)


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
    assert g >= 0
    if not _independent(field, pts):
        return Cycle.zero(field, g)
    return Cycle(field, g, _simplex_expand(field, pts))


def _simplex_expand(
    field: TotallyRealField, pts: Sequence[FieldElement]
) -> dict[Flag, Leaf]:
    if len(pts) == 2:
        a, b = pts[0].proj_key(), pts[1].proj_key()
        leaf: Leaf = {a: 1}
        leaf[b] = leaf.get(b, 0) - 1
        return {(): leaf}
    out: dict[Flag, Leaf] = {}
    for r in range(len(pts)):
        rest = pts[:r] + pts[r + 1 :]
        span_key = LinearSubspace.from_points(field, rest).key
        sign = 1 if r % 2 == 0 else -1
        for flag, leaf in _simplex_expand(field, rest).items():
            tgt = out.setdefault(flag + (span_key,), {})
            for p, w in leaf.items():
                tgt[p] = tgt.get(p, 0) + sign * w
    return out


# ---------------------------------------------------------------------------
# CPD functions and the extension to cycles


@dataclass(frozen=True)
class CPDFunction:
    """A function on point tuples satisfying the cocycle, permutation and
    degeneracy properties, with values in a torsion-free abelian group."""

    arity: int
    evaluate: Callable[[tuple[FieldElement, ...]], object]
    zero: object
    name: str = "cpd"


def decompose_cycle(
    z: Cycle, base: FieldElement | None = None
) -> list[tuple[int, tuple[FieldElement, ...]]]:
    """Write a cycle as an integer combination of simplices.

    Components at each top subspace are decomposed recursively and coned from
    a base point: by default the lexicographically smallest canonical point of
    the cycle, so the result is deterministic; any other base gives a
    different decomposition of the same cycle.
    """
    field = z.field
    if z.is_zero():
        return []
    if z.degree == 0:
        (leaf,) = z.data.values()
        base_key = base.proj_key() if base is not None else min(leaf)
        base_el = field.element(base_key)
        return [
            (w, (field.element(p), base_el))
            for p, w in sorted(leaf.items())
            if p != base_key
        ]
    base_el = (
        field.element(base.proj_key())
        if base is not None
        else field.element(min(z.points()))
    )
    terms: list[tuple[int, tuple[FieldElement, ...]]] = []
    groups: dict[tuple, dict[Flag, Leaf]] = {}
    for flag, leaf in z.data.items():
        groups.setdefault(flag[-1], {})[flag[:-1]] = leaf
    for top_key in sorted(groups):
        component = Cycle(field, z.degree - 1, groups[top_key])
        for coef, pts in decompose_cycle(component):
            terms.append((coef, (base_el,) + pts))
    return terms


def cpd_extend(f: CPDFunction, z: Cycle):
    """Value of the unique homomorphism extending f to cycles."""
    if not is_cycle(z):
        raise NotACycle("cpd extension is defined on cycles only")
    assert f.arity == z.degree + 2
    total = f.zero
    for coef, pts in decompose_cycle(z):
        if not _independent(z.field, pts):
            continue  # degenerate simplices contribute zero
        value = f.evaluate(tuple(pts))
        if coef != 1:
            value = value * coef
        total = total + value
    return total


def orthogonal_point(field: TotallyRealField, points: Sequence[FieldElement]) -> FieldElement:
    """The F-point spanning the trace-orthogonal complement of n-1 points."""
    comp = LinearSubspace.from_points(field, points).orthogonal_complement()
    assert comp.dim == 1
    return field.element(comp.basis_elements()[0].ray_key())


def dual_point_function(field: TotallyRealField) -> CPDFunction:
    """The CPD function sending a point tuple to the simplex on the
    trace-orthogonal points of its facet spans."""
    n = field.degree

    def evaluate(pts: tuple[FieldElement, ...]) -> Cycle:
        if not _independent(field, pts):
            return Cycle.zero(field, n - 2)
        duals = []
        for i in range(len(pts)):
            rest = pts[:i] + pts[i + 1 :]
            duals.append(orthogonal_point(field, rest))
        return simplex_cycle(field, duals)

    return CPDFunction(arity=n, evaluate=evaluate, zero=Cycle.zero(field, n - 2), name="dual")


def dual_cycle(z: Cycle) -> Cycle:
    """Image of a top-degree cycle under the dual-point CPD function."""
    n = z.field.degree
    if z.degree != n - 2:
        raise NotTopDegree(f"dual cycle needs degree {n - 2}, got {z.degree}")
    return cpd_extend(dual_point_function(z.field), z)


# ---------------------------------------------------------------------------
# the boundary cycle of a projective polyhedron


def _solve_in_rows(rows: Sequence[tuple], vec: Sequence[Fraction]) -> tuple | None:
    cols = list(zip(*rows))
    return linalg.solve(cols, vec)


def _orientation_det(
    basis_rows: Sequence[tuple], vectors: Sequence[FieldElement]
) -> Fraction:
    coeffs = []
    for v in vectors:
        sol = _solve_in_rows(basis_rows, v.coords)
        assert sol is not None
        coeffs.append(sol)
    return linalg.det(coeffs)


def _cone_boundary(cone, basis_rows: Sequence[tuple], sign: int) -> dict[Flag, Leaf]:
    m = cone.dim
    field = cone.field
    if m == 2:
        x, y = cone.extreme_rays
        d = _orientation_det(basis_rows, [x, y])
        s = sign if d > 0 else -sign
        leaf: Leaf = {x.proj_key(): s}
        yk = y.proj_key()
        leaf[yk] = leaf.get(yk, 0) - s
        return {(): leaf}
    out: dict[Flag, Leaf] = {}
    for normal, tight in cone._facet_data:
        facet = Cone(field, [cone.generators[i] for i in tight])
        inward = field.zero
        for g in cone.extreme_rays:
            if trace_pairing(normal, g) > 0:
                inward = inward + g
        f_basis = facet.span.basis
        d = _orientation_det(basis_rows, [inward] + [field.element(r) for r in f_basis])
        child_sign = sign if d > 0 else -sign
        child = _cone_boundary(facet, f_basis, child_sign)
        span_key = facet.span.key
        for flag, leaf in child.items():
            tgt = out.setdefault(flag + (span_key,), {})
            for p, w in leaf.items():
                tgt[p] = tgt.get(p, 0) + w
    return out


def boundary_cycle(K: ProjPolyhedron, orientation: int = 1) -> Cycle:
    """The polyhedral cycle of the oriented boundary of K.

    K must be full-dimensional in its span; the span is oriented by its
    canonical echelon basis, flipped by the global sign.
    """
    assert orientation in (1, -1)
    basis = K.cone.span.basis
    data = _cone_boundary(K.cone, basis, orientation)
    return Cycle(K.field, K.dim - 1, data)


def duality_check(K: ProjPolyhedron) -> bool:
    """Compare the boundary cycle of the dual polyhedron with the dual of the
    boundary cycle, computed along independent code paths."""
    lhs = boundary_cycle(K.dual())
    rhs = dual_cycle(boundary_cycle(K))
    return lhs == rhs
