"""Rational polyhedral cones and projective convex polyhedra.

All geometry lives in R^n via the real embeddings of a totally real field F,
but every predicate is decided by exact rational linear algebra on power-basis
coordinates: the pairing of two F-points is the rational number Tr(xy), a
positive multiple of num(x) . T num(y) for the integer trace matrix T, so a
cone's facets, membership and intersections are read off one integer cut of
its generators' numerators and never touch a floating-point number.

A projective polyhedron of dimension k is represented by the salient
(k+1)-dimensional cone over it.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections.abc import Iterable, Sequence
from fractions import Fraction
from functools import cached_property

from . import linalg
from .errors import (
    DependentTuple,
    NotFullDim,
    NotSalient,
    RayNotRational,
    ZeroInput,
)
from .field import FieldElement, TotallyRealField


class LinearSubspace:
    """Q-span of F-points, canonically keyed by its reduced echelon basis.

    The F-points of a projective linear subvariety spanned by F-points are
    exactly the Q-linear combinations of those points, so Q-spans of
    coordinate vectors faithfully encode projective subspaces.
    """

    __slots__ = ("field", "basis", "pivots", "_key")

    def __init__(self, field: TotallyRealField, rows: Iterable[Sequence[Fraction]]):
        self.field = field
        red, pivots = linalg.rref(rows)
        self.basis: tuple[tuple[Fraction, ...], ...] = tuple(red)
        self.pivots: tuple[int, ...] = tuple(pivots)
        self._key = (len(self.basis),) + self.basis

    @classmethod
    def from_points(cls, field: TotallyRealField, points: Iterable[FieldElement]):
        return cls(field, [p.num for p in points])

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def key(self):
        return self._key

    def __eq__(self, other):
        return isinstance(other, LinearSubspace) and self._key == other._key

    def __hash__(self):
        return hash(self._key)

    def is_full(self) -> bool:
        return self.dim == self.field.degree

    def __repr__(self):
        return f"LinearSubspace(dim={self.dim})"


def solve_in_basis(
    basis: Sequence[FieldElement], x: FieldElement
) -> tuple[Fraction, ...] | None:
    """Coefficients of x in a list of independent F-points, or None."""
    n = x.field.degree
    # y solves on the numerators of the basis; c_j = y_j den_j / den(x)
    y = linalg.solve([tuple(b.num[i] for b in basis) for i in range(n)], x.num)
    return None if y is None else tuple(c * b.den / x.den for c, b in zip(y, basis))


def coordinate_rows(points: Sequence[FieldElement]) -> tuple[list[list[int]], int]:
    """Integer rows R and d > 0 with x = sum_i (R_i . num(x)) / (d den(x))
    points_i for n independent F-points (ZeroDivisionError if dependent):
    row i is den_i adj_i / det for the matrix of columns num_i."""
    adj, det = linalg.adjugate(list(zip(*(p.num for p in points))))
    s = 1 if det > 0 else -1
    return [[s * p.den * v for v in row] for row, p in zip(adj, points)], abs(det)


def trace_duals(points: Sequence[FieldElement]) -> list[FieldElement]:
    """The B_j with Tr(A_i B_j) = delta_ij for n independent F-points A_i
    (DependentTuple if dependent).  Tr(A_i X) = M_i . num(X) / (den_i den(X))
    for the integer rows M_i = T num_i, so B_j is column j of adj(M) times
    den_j / det(M)."""
    F = points[0].field
    try:
        adj, det = linalg.adjugate([linalg.mat_vec(F.trace_matrix, p.num) for p in points])
    except ZeroDivisionError:
        raise DependentTuple("tuple is linearly dependent") from None
    s = 1 if det > 0 else -1
    return [FieldElement._make(F, [s * p.den * row[j] for row in adj], abs(det))
            for j, p in enumerate(points)]


class Cone:
    """Salient rational polyhedral cone with F-point generators."""

    def __init__(self, field: TotallyRealField, generators: Iterable[FieldElement]):
        self.field = field
        seen: dict[tuple, FieldElement] = {}
        for g in generators:
            if g.is_zero():
                raise ZeroInput("zero vector cannot generate a ray")
            key = g.ray_key()
            if key not in seen:
                seen[key] = field.element(key)
        self.generators: tuple[FieldElement, ...] = tuple(
            seen[k] for k in sorted(seen)
        )

    @classmethod
    def _canonical(cls, field: TotallyRealField, generators: tuple[FieldElement, ...]):
        """The simplicial cone over independent canonical ray points in sorted
        order, such as a subsequence of a simplicial cone's extreme rays."""
        cone = cls.__new__(cls)
        cone.field, cone.generators = field, generators
        cone.extreme_rays = generators
        return cone

    @cached_property
    def span(self) -> LinearSubspace:
        return LinearSubspace.from_points(self.field, self.generators)

    @property
    def dim(self) -> int:
        return self.span.dim

    @cached_property
    def _cut(self) -> tuple[dict, list]:
        """cut of the generators' numerators under the trace form."""
        gens = [g.num for g in self.generators]
        return cut(gens, self.field.degree, self.field.trace_matrix)

    @cached_property
    def _facet_data(self) -> list[tuple[FieldElement, tuple[int, ...]]]:
        """Inner normals of the facets, the normals of the cut as F-points on
        their ray keys in key order, with indices of tight generators."""
        if self.dim < 2:
            return []
        F = self.field
        normals = [(FieldElement._make(F, u, abs(next(filter(None, u)))), tight)
                   for u, tight in self._cut[0].items()]
        return sorted(normals, key=lambda normal: normal[0].coords)

    def facet_normals(self) -> list[FieldElement]:
        return [normal for normal, _ in self._facet_data]

    def is_salient(self) -> bool:
        if self.dim <= 1:  # a line has two opposite generators
            return len(self.generators) <= 1
        normals = [n.num for n in self.facet_normals()]
        return linalg.rank(normals) == self.dim

    @cached_property
    def extreme_rays(self) -> tuple[FieldElement, ...]:
        gens = self.generators
        m = self.dim
        if len(gens) == m:  # independent generators are all extreme
            return gens
        if m == 1:
            return (gens[0],)
        result = []
        for i, g in enumerate(gens):
            tight_normals = [
                normal.num for normal, tight in self._facet_data if i in tight
            ]
            if linalg.rank(tight_normals) == m - 1:
                result.append(g)
        return tuple(result)

    def contains(self, x: FieldElement) -> bool:
        return self._contains(x, strict=False)

    def contains_strictly(self, x: FieldElement) -> bool:
        """Membership in the relative interior."""
        return self._contains(x, strict=True)

    def _contains(self, x: FieldElement, strict: bool) -> bool:
        """x is cut out: the rows of ann(generators) vanish on it, and those
        of the normals are all >= 0 (or all > 0)."""
        if x.is_zero():
            return not strict
        normals, rows = self._cut
        values = linalg.mat_vec(rows, x.num)
        k = len(normals)
        return not any(values[k:]) and all(v > 0 if strict else v >= 0 for v in values[:k])

    def interior_point(self) -> FieldElement:
        total = self.field.zero
        for g in self.extreme_rays:
            total = total + g
        return total

    def key(self) -> frozenset:
        return self._key

    @cached_property
    def _key(self) -> frozenset:
        return frozenset(g.ray_key() for g in self.extreme_rays)

    def __eq__(self, other):
        return isinstance(other, Cone) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def facets(self) -> list["Cone"]:
        result = []
        for _, tight in self._facet_data:
            result.append(Cone(self.field, [self.generators[i] for i in tight]))
        return result

    def proper_faces(self) -> list["Cone"]:
        """All proper nonzero faces, deduplicated: for independent generators
        the cones over their nonempty proper subsets."""
        gens = self.generators
        if len(gens) == self.dim:
            faces = [
                Cone._canonical(self.field, sub)
                for k in range(1, len(gens))
                for sub in itertools.combinations(gens, k)
            ]
        else:
            seen: dict[frozenset, Cone] = {}
            stack = self.facets()
            while stack:
                f = stack.pop()
                if f.key() in seen:
                    continue
                seen[f.key()] = f
                if f.dim >= 2:
                    stack.extend(f.facets())
            faces = list(seen.values())
        return sorted(faces, key=lambda c: (c.dim, sorted(c.key())))

    def intersection(self, other: "Cone") -> "Cone | None":
        """Exact intersection, the cone over the extreme rays of both cuts'
        stacked rows; None when it is the zero cone."""
        rays = integer_rays(self._cut[1] + other._cut[1], self.field.degree)
        return Cone(self.field, map(self.field.element, rays)) if rays else None

    def mul_unit(self, eps: FieldElement) -> "Cone":
        return Cone(self.field, [g * eps for g in self.generators])

    def __repr__(self):
        return f"Cone(dim={self.dim}, rays={len(self.extreme_rays)})"


def integer_rays(
    rows: Sequence[Sequence[int]], m: int, eqs: Sequence[Sequence[int]] = ()
) -> dict[tuple[int, ...], tuple]:
    """Extreme rays of the salient cone {u in Q^m : R u >= 0, E u = 0} of
    integer rows R and independent integer rows E, primitive, with the
    indices of the rows of R tight on each.  Each spans the kernel of E and
    some m-1-len(E) rows of R, spanned by their signed maximal minors (all
    zero when the rank is below m-1).  A lineality direction of a
    non-salient input keeps its last nonzero entry positive, as a reduced
    kernel basis does."""
    found: dict[tuple[int, ...], tuple] = {}
    eqs, k = tuple(list(a) for a in eqs), m - 1 - len(eqs)
    for free in itertools.combinations([list(row) for row in rows], k) if k >= 0 else ():
        subset = eqs + free
        minors = [(-1) ** j * linalg.int_det([row[:j] + row[j + 1:] for row in subset])
                  for j in range(m)]
        g = math.gcd(*minors)
        if not g:
            continue
        ray, values, neg, pos = tuple(v // g for v in minors), [], False, False
        for row in rows:  # until a row of each sign rules the ray out
            values.append(v := sum(map(operator.mul, row, ray)))
            neg, pos = neg or v < 0, pos or v > 0
            if neg and pos:
                break
        else:
            if neg or not pos and next(filter(None, reversed(ray))) < 0:
                ray = tuple(-r for r in ray)
            found.setdefault(ray, tuple(i for i, v in enumerate(values) if v == 0))
    return found


def cut(
    vectors: Sequence[Sequence[int]], n: int, pairing: Sequence[Sequence[int]] | None = None
) -> tuple[dict[tuple[int, ...], tuple], list]:
    """(normals, rows) of the salient cone over integer vectors V in Q^n,
    under the symmetric positive definite integer pairing P (the identity
    when None): its facet normals, the extreme rays u of {u : u.(P v) >= 0
    on V, u.a = 0 on ann(V)}, each with the indices of the vectors tight on
    it, and rows that cut it out, P u per normal and then +-a for a basis of
    ann(V).  The zero cone's ann is all of Q^n."""
    paired = vectors if pairing is None else [linalg.mat_vec(pairing, v) for v in vectors]
    square = len(vectors) == n and linalg.int_det(paired) != 0
    full = square or len(vectors) > n and linalg.rank(vectors) == n
    ann = [] if full else [linalg.cleared(a)[0] for a in linalg.kernel(vectors or [[0] * n])]
    if square:  # W adj(W) = det(W) I for W = P V: column j of adj(W), signed by
        # det(W), is tight on every vector but j; integer_rays' order is j = n-1, ..., 0
        adj, det = linalg.adjugate(paired)
        normals = {}
        for j in reversed(range(n)):
            u = [row[j] if det > 0 else -row[j] for row in adj]
            normals[tuple(v // math.gcd(*u) for v in u)] = tuple(i for i in range(n) if i != j)
    else:
        normals = integer_rays(paired, n, ann)
    rows = [u if pairing is None else linalg.mat_vec(pairing, u) for u in normals]
    return normals, rows + ann + [[-v for v in a] for a in ann]


def walls(rays: Iterable[Sequence[int]], rows: Iterable[Sequence[int]]) -> list[frozenset]:
    """For each row, the frozenset of the integer rays on which it vanishes, empty
    sets dropped: a cone's walls, from its extreme rays and its facet rows."""
    rays = list(rays)
    found = (frozenset(r for r in rays if not sum(map(operator.mul, row, r))) for row in rows)
    return [wall for wall in found if wall]


class ProjPolyhedron:
    """Convex polyhedron in P^(n-1), realized as the salient cone over it."""

    def __init__(self, cone: Cone, check: bool = True):
        if check and not cone.is_salient():
            raise NotSalient("the cone over a projective polyhedron must be salient")
        self.cone = cone
        self.field = cone.field

    @classmethod
    def from_points(cls, field: TotallyRealField, points: Iterable[FieldElement]):
        return cls(Cone(field, points))

    @property
    def dim(self) -> int:
        return self.cone.dim - 1

    def faces_by_dim(self) -> dict[int, list["ProjPolyhedron"]]:
        out: dict[int, list[ProjPolyhedron]] = {self.dim: [self]}
        for f in self.cone.proper_faces():
            out.setdefault(f.dim - 1, []).append(ProjPolyhedron(f, check=False))
        return out

    def dual(self) -> "ProjPolyhedron":
        return ProjPolyhedron(dual_cone(self.cone))

    def __eq__(self, other):
        return isinstance(other, ProjPolyhedron) and self.cone == other.cone

    def __hash__(self):
        return hash(self.cone)

    def __repr__(self):
        return f"ProjPolyhedron(dim={self.dim}, vertices={len(self.cone.extreme_rays)})"


def dual_cone(sigma: Cone) -> Cone:
    """Dual cone under the trace pairing; inner facet normals generate it."""
    if not sigma.span.is_full():
        raise NotFullDim("dual cone requires a full-dimensional cone")
    if not sigma.is_salient():
        raise NotSalient("dual of a non-salient cone is not full-dimensional")
    return Cone(sigma.field, sigma.facet_normals())


def primitive_generator(
    ray: FieldElement, module_basis: Sequence[FieldElement]
) -> FieldElement:
    """The nonzero lattice point on the ray closest to the origin."""
    if ray.is_zero():
        raise ZeroInput("zero vector spans no ray")
    coeffs = solve_in_basis(list(module_basis), ray)
    if coeffs is None:
        raise RayNotRational("ray direction is not in the span of the lattice")
    ints = linalg.cleared(coeffs)[0]
    g = math.gcd(*ints)
    if g == 0:
        raise RayNotRational("ray has no lattice point")
    ints = [v // g for v in ints]
    result = ray.field.zero
    for c, b in zip(ints, module_basis):
        result = result + b * c
    return result
