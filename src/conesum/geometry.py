"""Rational polyhedral cones and projective convex polyhedra.

All geometry lives in R^n via the real embeddings of a totally real field F,
but every predicate is decided by exact rational linear algebra on power-basis
coordinates: the pairing of two F-points is the rational number Tr(xy), so
spans, duals, faces and membership never touch a floating-point number.

A projective polyhedron of dimension k is represented by the salient
(k+1)-dimensional cone over it.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Sequence

from . import linalg
from .errors import (
    DegenerateVertex,
    NotFullDim,
    NotSalient,
    PointNotInterior,
    RayNotRational,
    ZeroInput,
)
from .field import FieldElement, TotallyRealField, trace_pairing

_ZERO = Fraction(0)
_ONE = Fraction(1)


class LinearSubspace:
    """Q-span of F-points, canonically keyed by its reduced echelon basis.

    The F-points of a projective linear subvariety spanned by F-points are
    exactly the Q-linear combinations of those points, so Q-spans of
    coordinate vectors faithfully encode projective subspaces.
    """

    __slots__ = ("field", "basis", "_key")

    def __init__(self, field: TotallyRealField, rows: Iterable[Sequence[Fraction]]):
        self.field = field
        red, _ = linalg.rref(rows)
        self.basis: tuple[tuple[Fraction, ...], ...] = tuple(red)
        self._key = (len(self.basis),) + self.basis

    @classmethod
    def from_points(cls, field: TotallyRealField, points: Iterable[FieldElement]):
        return cls(field, [p.coords for p in points])

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

    def contains(self, x: FieldElement) -> bool:
        if x.is_zero():
            return True
        stacked = list(self.basis) + [x.coords]
        return linalg.rank(stacked) == self.dim

    def contains_subspace(self, other: "LinearSubspace") -> bool:
        stacked = list(self.basis) + list(other.basis)
        return linalg.rank(stacked) == self.dim

    def basis_elements(self) -> list[FieldElement]:
        return [self.field.element(row) for row in self.basis]

    def intersection(self, other: "LinearSubspace") -> "LinearSubspace":
        # x in both spans: solve [B1^T | -B2^T] kernel
        n = self.field.degree
        rows = []
        for i in range(n):
            rows.append(
                tuple(b[i] for b in self.basis) + tuple(-b[i] for b in other.basis)
            )
        ker = linalg.kernel(rows)
        points = []
        for vec in ker:
            coeffs = vec[: self.dim]
            coords = [
                sum(c * b[i] for c, b in zip(coeffs, self.basis)) for i in range(n)
            ]
            points.append(coords)
        return LinearSubspace(self.field, points)

    def orthogonal_complement(self) -> "LinearSubspace":
        """Trace-orthogonal complement inside R^n (exact)."""
        rows = []
        T = self.field.trace_matrix
        for b in self.basis:
            # Tr(b * x) = b^T T x as a linear functional on coordinates
            rows.append(linalg.mat_vec([tuple(T[i]) for i in range(len(T))], b))
        return LinearSubspace(self.field, linalg.kernel(rows))

    def is_full(self) -> bool:
        return self.dim == self.field.degree

    def __repr__(self):
        return f"LinearSubspace(dim={self.dim})"


def solve_in_basis(
    basis: Sequence[FieldElement], x: FieldElement
) -> tuple[Fraction, ...] | None:
    """Coefficients of x in a list of independent F-points, or None."""
    n = x.field.degree
    rows = [tuple(b.coords[i] for b in basis) for i in range(n)]
    return linalg.solve(rows, x.coords)


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

    @cached_property
    def span(self) -> LinearSubspace:
        return LinearSubspace.from_points(self.field, self.generators)

    @property
    def dim(self) -> int:
        return self.span.dim

    @cached_property
    def _facet_data(self) -> list[tuple[FieldElement, tuple[int, ...]]]:
        """Inner normals of the facets, with indices of tight generators.

        Every facet of a polyhedral cone is generated by the generators lying
        on it, so scanning (m-1)-subsets finds all supporting hyperplanes.
        """
        m = self.dim
        gens = self.generators
        if m < 2:
            return []
        span_basis = self.span.basis_elements()
        found: dict[tuple, tuple[FieldElement, tuple[int, ...]]] = {}
        for subset in itertools.combinations(range(len(gens)), m - 1):
            rows = [
                tuple(trace_pairing(b, gens[i]) for b in span_basis) for i in subset
            ]
            ker = linalg.kernel(rows)
            if len(ker) != 1:
                continue
            normal = self.field.zero
            for c, b in zip(ker[0], span_basis):
                normal = normal + b * c
            values = [trace_pairing(normal, g) for g in gens]
            if all(v >= 0 for v in values):
                pass
            elif all(v <= 0 for v in values):
                normal = -normal
                values = [-v for v in values]
            else:
                continue
            tight = tuple(i for i, v in enumerate(values) if v == 0)
            found.setdefault(normal.ray_key(), (self.field.element(normal.ray_key()), tight))
        return [found[k] for k in sorted(found)]

    def facet_normals(self) -> list[FieldElement]:
        return [normal for normal, _ in self._facet_data]

    def is_salient(self) -> bool:
        if self.dim <= 1:
            return True
        normals = [n.coords for n in self.facet_normals()]
        return linalg.rank(normals) == self.dim

    @cached_property
    def extreme_rays(self) -> tuple[FieldElement, ...]:
        gens = self.generators
        m = self.dim
        if m == 1:
            return (gens[0],)
        result = []
        for i, g in enumerate(gens):
            tight_normals = [
                normal.coords for normal, tight in self._facet_data if i in tight
            ]
            if linalg.rank(tight_normals) == m - 1:
                result.append(g)
        return tuple(result)

    def is_simplicial(self) -> bool:
        return len(self.extreme_rays) == self.dim

    def contains(self, x: FieldElement) -> bool:
        if x.is_zero():
            return True
        if not self.span.contains(x):
            return False
        if self.dim == 1:
            coeffs = solve_in_basis([self.generators[0]], x)
            return coeffs is not None and coeffs[0] >= 0
        return all(trace_pairing(n, x) >= 0 for n in self.facet_normals())

    def contains_strictly(self, x: FieldElement) -> bool:
        """Membership in the relative interior."""
        if not self.span.contains(x) or x.is_zero():
            return False
        if self.dim == 1:
            coeffs = solve_in_basis([self.generators[0]], x)
            return coeffs is not None and coeffs[0] > 0
        return all(trace_pairing(n, x) > 0 for n in self.facet_normals())

    def interior_point(self) -> FieldElement:
        total = self.field.zero
        for g in self.extreme_rays:
            total = total + g
        return total

    def key(self) -> frozenset:
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
        """All proper nonzero faces, deduplicated."""
        seen: dict[frozenset, Cone] = {}
        stack = self.facets()
        while stack:
            f = stack.pop()
            if f.key() in seen:
                continue
            seen[f.key()] = f
            if f.dim >= 2:
                stack.extend(f.facets())
        return sorted(seen.values(), key=lambda c: (c.dim, sorted(c.key())))

    def intersection(self, other: "Cone") -> "Cone | None":
        """Exact intersection; None when it is the zero cone."""
        span = self.span.intersection(other.span)
        if span.dim == 0:
            return None
        basis = span.basis_elements()
        constraints = []
        for n in self.facet_normals() + other.facet_normals():
            constraints.append(tuple(trace_pairing(n, b) for b in basis))
        if self.dim == 1:
            g = self.generators[0]
            return Cone(self.field, [g]) if other.contains(g) else None
        if other.dim == 1:
            return other.intersection(self)
        rays = _enumerate_rays(constraints, span.dim)
        points = []
        for ray in rays:
            coords = [
                sum(c * b.coords[i] for c, b in zip(ray, basis))
                for i in range(self.field.degree)
            ]
            points.append(self.field.element(coords))
        if not points:
            return None
        return Cone(self.field, points)

    def mul_unit(self, eps: FieldElement) -> "Cone":
        return Cone(self.field, [g * eps for g in self.generators])

    def __repr__(self):
        return f"Cone(dim={self.dim}, rays={len(self.extreme_rays)})"


def _enumerate_rays(constraints: list[tuple[Fraction, ...]], m: int) -> list[tuple]:
    """Extreme rays of {u in R^m : C u >= 0} assuming the cone is salient.

    Brute force over (m-1)-subsets of constraints; fine at desk scale.
    """
    if m == 0:
        return []
    if not constraints:
        return []
    found: dict[tuple, tuple] = {}
    idx = range(len(constraints))
    for subset in itertools.combinations(idx, m - 1):
        rows = [constraints[i] for i in subset]
        ker = linalg.kernel(rows) if rows else linalg.kernel([tuple([_ZERO] * m)])
        if len(ker) != 1:
            continue
        ray = ker[0]
        values = [sum(c * r for c, r in zip(con, ray)) for con in constraints]
        if all(v >= 0 for v in values):
            pass
        elif all(v <= 0 for v in values):
            ray = tuple(-r for r in ray)
            values = [-v for v in values]
        else:
            continue
        tight = [constraints[i] for i, v in enumerate(values) if v == 0]
        if linalg.rank(tight) != m - 1:
            continue
        key = _ray_canonical(ray)
        found.setdefault(key, key)
    return sorted(found)


def _ray_canonical(vec: Sequence[Fraction]) -> tuple:
    for c in vec:
        if c != 0:
            return tuple(v / abs(c) for v in vec)
    raise ZeroInput("zero ray")


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

    @cached_property
    def vertices(self) -> tuple[FieldElement, ...]:
        return self.cone.extreme_rays

    def facets(self) -> list[tuple["ProjPolyhedron", LinearSubspace]]:
        """Facets with the linear subspaces they span."""
        result = []
        for f in self.cone.facets():
            result.append((ProjPolyhedron(f, check=False), f.span))
        return result

    def faces_by_dim(self) -> dict[int, list["ProjPolyhedron"]]:
        out: dict[int, list[ProjPolyhedron]] = {self.dim: [self]}
        for f in self.cone.proper_faces():
            out.setdefault(f.dim - 1, []).append(ProjPolyhedron(f, check=False))
        return out

    def dual(self) -> "ProjPolyhedron":
        if not self.cone.span.is_full():
            raise NotFullDim("dual polyhedron needs a full-dimensional cone")
        normals = self.cone.facet_normals()
        return ProjPolyhedron(Cone(self.field, normals))

    def contains(self, x: FieldElement) -> bool:
        return self.cone.contains(x)

    def __eq__(self, other):
        return isinstance(other, ProjPolyhedron) and self.cone == other.cone

    def __hash__(self):
        return hash(self.cone)

    # -- chart helpers ---------------------------------------------------------

    def _chart_functional(self) -> FieldElement:
        """An F-point c with Tr(c*v) > 0 for every vertex ray v."""
        if self.cone.dim == 1:
            return self.cone.generators[0]
        total = self.field.zero
        for n in self.cone.facet_normals():
            total = total + n
        return total

    def _chart_rep(self, v: FieldElement, c: FieldElement) -> FieldElement:
        t = trace_pairing(c, v)
        assert t > 0
        return v / t

    def neighbors(self, v: FieldElement) -> list[FieldElement]:
        """Vertices sharing an edge (2-dimensional cone face) with v."""
        vkey = v.ray_key()
        result = []
        for f in self.cone.proper_faces():
            if f.dim != 2:
                continue
            keys = [g.ray_key() for g in f.extreme_rays]
            if vkey in keys:
                for g in f.extreme_rays:
                    if g.ray_key() != vkey:
                        result.append(g)
        return result

    def vertex_hyperplane(self, v: FieldElement) -> LinearSubspace:
        """Hyperplane through the edge midpoints at v, separating v from the
        hull of the remaining vertices."""
        if not any(v.ray_key() == w.ray_key() for w in self.vertices):
            raise DegenerateVertex(f"{v} is not a vertex")
        c = self._chart_functional()
        vhat = self._chart_rep(v, c)
        nbrs = self.neighbors(v)
        if not nbrs:
            raise DegenerateVertex("vertex has no incident edges")
        midpoints = [(vhat + self._chart_rep(w, c)) / 2 for w in nbrs]
        H = LinearSubspace.from_points(self.field, midpoints)
        m = self.cone.dim
        if H.dim != m - 1 or H.contains(v):
            raise DegenerateVertex("midpoint cut is degenerate at this vertex")
        # exact separation check: v on one side, all other vertices on the other
        normal_rows = H.orthogonal_complement().intersection(self.cone.span)
        if normal_rows.dim != 1:
            raise DegenerateVertex("no separating normal inside the span")
        normal = normal_rows.basis_elements()[0]
        side_v = trace_pairing(normal, v)
        assert side_v != 0
        for w in self.vertices:
            if w.ray_key() == v.ray_key():
                continue
            side_w = trace_pairing(normal, self._chart_rep(w, c))
            if side_w * side_v > 0:
                raise DegenerateVertex("midpoint cut fails to separate")
        return H

    def cone_over_face(
        self, u: FieldElement, facet: "ProjPolyhedron"
    ) -> "ProjPolyhedron":
        """The simplicial piece c(u, F) of the stellar decomposition at u."""
        if not self.cone.contains_strictly(u):
            raise PointNotInterior(f"{u} is not interior to the polyhedron")
        return ProjPolyhedron(
            Cone(self.field, [u] + list(facet.cone.generators)), check=False
        )

    def __repr__(self):
        return f"ProjPolyhedron(dim={self.dim}, vertices={len(self.vertices)})"


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
    denom = math.lcm(*(c.denominator for c in coeffs))
    ints = [int(c * denom) for c in coeffs]
    g = math.gcd(*ints)
    if g == 0:
        raise RayNotRational("ray has no lattice point")
    ints = [v // g for v in ints]
    result = ray.field.zero
    for c, b in zip(ints, module_basis):
        result = result + b * c
    return result
