"""The cone-attached rational values and their window sums.

For a basis tuple A of field points and a field point x, the basic value is
det(A) / prod_i <x, A_i> with the trace pairing; the dual value feeds the
trace-dual basis through the same formula.  Summed over the top cones of a
good fan, the dual values converge to 1/N(x) for totally positive x, which
the convergence driver verifies window by window with exact partial sums.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import mpmath

from . import linalg
from .cycles import (
    Cycle,
    boundary_cycle,
    decompose_cycle,
    dual_cycle,
    is_cycle,
)
from .errors import (
    DependentTuple,
    NotConvexUnion,
    NotTotallyPositive,
    SingularAtX0,
)
from .fan import FanDescription, TermGroup, TruncatedFan, truncate
from .field import (
    FieldElement,
    ScaledRational,
    det_scaled,
    is_totally_positive,
    trace_pairing,
)
from .geometry import Cone, ProjPolyhedron, primitive_generator


def cocycle_value(points: Sequence[FieldElement], x0: FieldElement) -> ScaledRational:
    """det(A) / prod <x0, A_i>; zero for a dependent tuple.

    Homogeneous of degree zero in each point, so any projective
    representatives give the same value.
    """
    field = x0.field
    det = det_scaled(list(points))
    if det.is_zero():
        return ScaledRational.rational(0, field.disc_abs)
    denom = Fraction(1)
    for a in points:
        p = trace_pairing(x0, a)
        if p == 0:
            raise SingularAtX0(f"pairing with {a} vanishes at the evaluation point")
        denom *= p
    return det * (Fraction(1) / denom)


def dual_basis(points: Sequence[FieldElement]) -> list[FieldElement]:
    """B with Tr(A_i B_j) = delta_ij, solved exactly from the Gram matrix."""
    gram = [[trace_pairing(a, b) for b in points] for a in points]
    try:
        inv = linalg.inverse(gram)
    except ZeroDivisionError:
        raise DependentTuple("tuple has singular Gram matrix") from None
    field = points[0].field
    out = []
    for j in range(len(points)):
        b = field.zero
        for k, a in enumerate(points):
            b = b + a * inv[k][j]
        out.append(b)
    return out


def dual_cocycle_value(
    points: Sequence[FieldElement], x0: FieldElement
) -> ScaledRational:
    """Value of the dual tuple: 1 / (det(A) * prod Tr(x0 B_i)).

    By convention a linearly dependent tuple evaluates to zero.
    """
    field = x0.field
    det = det_scaled(list(points))
    if det.is_zero():
        return ScaledRational.rational(0, field.disc_abs)
    B = dual_basis(points)
    denom = Fraction(1)
    for b in B:
        p = trace_pairing(x0, b)
        if p == 0:
            raise SingularAtX0("evaluation point lies on a singular hyperplane")
        denom *= p
    value = (det * denom).inverse()
    return value.with_exponent(-1) if value.e == 1 else value


@dataclass(frozen=True)
class ConeTerm:
    """One top cone's contribution at x0, with its dual basis attached."""

    cone: Cone
    primitive_gens: tuple[FieldElement, ...]
    dual: tuple[FieldElement, ...]
    value: ScaledRational


def cone_term(t: Cone, module_basis: Sequence[FieldElement], x0: FieldElement) -> ConeTerm:
    """Term of a simplicial top cone from its positively ordered primitive
    generators."""
    prims = [primitive_generator(g, module_basis) for g in t.extreme_rays]
    assert len(prims) == t.field.degree, "cone term needs a simplicial top cone"
    if det_scaled(prims).q < 0:
        prims[0], prims[1] = prims[1], prims[0]
    det = det_scaled(prims)
    B = dual_basis(prims)
    for a, b in zip(prims, B):
        assert trace_pairing(a, b) == 1
    denom = Fraction(1)
    for b in B:
        p = trace_pairing(x0, b)
        if p == 0:
            raise SingularAtX0("x0 lies on a facet span of the cone")
        denom *= p
    value = (det * denom).inverse()
    if value.e == 1:
        value = value.with_exponent(-1)
    return ConeTerm(cone=t, primitive_gens=tuple(prims), dual=tuple(B), value=value)


# ---------------------------------------------------------------------------
# evaluation of cycles against the cocycle value


def evaluate_cycle(z: Cycle, x0: FieldElement) -> ScaledRational:
    """Extension of the cocycle value to a top-degree cycle.

    The simplicial decomposition is coned from the canonical base point; if
    that base makes an individual simplex singular at x0 while the total is
    finite, alternative bases from the cycle's own points are tried.
    """
    assert is_cycle(z)
    field = z.field
    zero = ScaledRational.rational(0, field.disc_abs)
    candidates = [None] + [field.element(p) for p in sorted(z.points())]
    last_error: Exception | None = None
    for base in candidates:
        try:
            total = zero
            for coef, pts in decompose_cycle(z, base=base):
                if linalg.rank([p.coords for p in pts]) != len(pts):
                    continue
                total = total + cocycle_value(pts, x0) * coef
            return total
        except SingularAtX0 as exc:
            last_error = exc
    raise last_error


# ---------------------------------------------------------------------------
# partial sums over truncations


@dataclass(frozen=True)
class ConvergenceRow:
    window: int
    value: ScaledRational
    target: Fraction
    abs_error: float

    def as_dict(self):
        return {
            "N": self.window,
            "partial_sum": self.value.exact_str(),
            "target": str(self.target),
            "abs_error": self.abs_error,
        }


def _star_group_value(
    group: TermGroup, module_basis, x0: FieldElement
) -> ScaledRational:
    """Combined finite value of a star of cones around a singular cone: the
    internal singular walls cancel in the summed dual boundary cycle."""
    field = x0.field
    total_cycle = None
    for t in group.cones:
        z = boundary_cycle(ProjPolyhedron(t, check=False))
        total_cycle = z if total_cycle is None else total_cycle + z
    return evaluate_cycle(dual_cycle(total_cycle), x0)


def partial_sum(tf: TruncatedFan, x0: FieldElement) -> ConvergenceRow:
    """Exact sum of all term groups of the truncation at x0."""
    if not is_totally_positive(x0):
        raise NotTotallyPositive("partial sums are evaluated at totally positive x0")
    field = x0.field
    total = ScaledRational.rational(0, field.disc_abs)
    for group in tf.group_singular_terms(x0):
        if group.is_singleton:
            total = total + cone_term(group.cones[0], tf.module_basis, x0).value
        else:
            total = total + _star_group_value(group, tf.module_basis, x0)
    if total.e == 1:  # present window sums uniformly as q/sqrt(D)
        total = total.with_exponent(-1)
    target = Fraction(1) / x0.norm()
    return ConvergenceRow(
        window=tf.window,
        value=total,
        target=target,
        abs_error=_abs_error(total, target),
    )


def _abs_error(value: ScaledRational, target: Fraction, prec_bits: int = 128) -> float:
    with mpmath.workprec(prec_bits):
        v = value.to_mpf(prec_bits)
        t = mpmath.mpf(target.numerator) / target.denominator
        return float(abs(v - t))


def sum_via_dual_cycle(
    cones: Sequence[Cone], x0: FieldElement
) -> ScaledRational:
    """Window sum computed through the boundary cycle of the convex union.

    Requires the cones to tile a convex cone; the value must agree exactly
    with the direct term-by-term sum.
    """
    field = x0.field
    union = Cone(field, [g for t in cones for g in t.generators])
    _check_tiling(cones, union)
    K = ProjPolyhedron(union)
    return evaluate_cycle(dual_cycle(boundary_cycle(K)), x0)


def _check_tiling(cones: Sequence[Cone], union: Cone) -> None:
    wall_count: dict[frozenset, Cone] = {}
    counts: dict[frozenset, int] = {}
    for t in cones:
        if t.dim != union.dim:
            raise NotConvexUnion("pieces must be full-dimensional in the union")
        for f in t.facets():
            counts[f.key()] = counts.get(f.key(), 0) + 1
            wall_count[f.key()] = f
    union_facets = union.facets()
    for key, cnt in counts.items():
        if cnt == 2:
            continue
        if cnt > 2:
            raise NotConvexUnion("a wall is shared by more than two cones")
        f = wall_count[key]
        on_boundary = any(
            uf.span.contains_subspace(f.span)
            and all(uf.contains(g) for g in f.extreme_rays)
            for uf in union_facets
        )
        if not on_boundary:
            raise NotConvexUnion("unmatched interior wall: union is not tiled")


# ---------------------------------------------------------------------------
# geometric area oracle


def hurwitz_area(
    points: Sequence[FieldElement],
    x0: FieldElement,
    samples: int = 200_000,
    seed: int = 0,
) -> float:
    """Numerical projective area of the region spanned by the points on the
    positive side of x0, in the affine chart {<x0, y> = 1}.

    Up to the chart orientation this reproduces the cocycle value; the
    quadrature is independent of the exact code path.
    """
    field = x0.field
    n = field.degree
    signs = []
    pairings = []
    for a in points:
        p = trace_pairing(x0, a)
        if p == 0:
            raise SingularAtX0("region touches the polar hyperplane of x0")
        signs.append(1 if p > 0 else -1)
        pairings.append(abs(p))
    det = det_scaled([a * s for a, s in zip(points, signs)])
    if det.is_zero():
        raise DependentTuple("area region needs independent points")
    det_f = float(det.to_mpf(80))
    c = [float(p) for p in pairings]

    if n == 2:
        k = max(samples, 8)
        total = 0.0
        h = 1.0 / k
        for i in range(k):
            lam = (i + 0.5) * h
            denom = lam * c[0] + (1 - lam) * c[1]
            total += h / (denom * denom)
        return det_f * total

    if n == 3:
        import math

        k = max(int(math.isqrt(samples)), 8)
        total = 0.0
        cell = 1.0 / (k * k)
        for i in range(k):
            for j in range(k - i):
                l1 = (i + 1.0 / 3.0) / k
                l2 = (j + 1.0 / 3.0) / k
                denom = l1 * c[0] + l2 * c[1] + (1 - l1 - l2) * c[2]
                total += (cell / 2) / (denom**3)
                if i + j < k - 1:
                    l1 = (i + 2.0 / 3.0) / k
                    l2 = (j + 2.0 / 3.0) / k
                    denom = l1 * c[0] + l2 * c[1] + (1 - l1 - l2) * c[2]
                    total += (cell / 2) / (denom**3)
        return 2.0 * det_f * total

    # higher degree: seeded Monte Carlo over the simplex; the simplex volume
    # 1/(n-1)! cancels the form's (n-1)! prefactor
    import numpy as np

    rng = np.random.default_rng(seed)
    lam = rng.dirichlet(np.ones(n), size=samples)
    denom = lam @ np.array(c)
    mean = float(np.mean(denom ** (-n)))
    return det_f * mean


# ---------------------------------------------------------------------------
# the convergence driver


def converge(
    description: FanDescription,
    x0: FieldElement,
    n_max: int,
    tol: float,
) -> list[ConvergenceRow]:
    """Exact partial sums over growing windows, stopping early once the
    absolute error against 1/N(x0) drops below tol."""
    rows = []
    for window in range(1, n_max + 1):
        tf = truncate(description, window)
        row = partial_sum(tf, x0)
        rows.append(row)
        if row.abs_error < tol:
            break
    return rows
