"""The cone-attached rational values and their window sums.

For a basis tuple A of field points and a field point x, the basic value is
det(A) / prod_i <x, A_i> with the trace pairing; the dual value feeds the
trace-dual basis through the same formula.  Summed over the top cones of a
good fan, the dual values converge to 1/N(x) for totally positive x, which
the convergence driver verifies window by window with exact partial sums.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from fractions import Fraction

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
    NotACycle,
    NotConvexUnion,
    NotSimplicial,
    NotTotallyPositive,
    SingularAtX0,
)
from .fan import FanDescription, TermGroup, TruncatedFan, window_exponents
from .field import (
    FieldElement,
    ScaledRational,
    UnitPowers,
    det_scaled,
    is_totally_positive,
    surd_float,
    trace_pairing,
)
from .geometry import Cone, ProjPolyhedron, primitive_generator
from .record import FrozenRecord


def cocycle_value(points: Sequence[FieldElement], x0: FieldElement) -> ScaledRational:
    """det(A) / prod <x0, A_i>; zero for a dependent tuple.

    Homogeneous of degree zero in each point, so any projective
    representatives give the same value.
    """
    try:
        form = TermForm.primal(points)
    except DependentTuple:
        return ScaledRational.rational(0, x0.field.disc_abs)
    c = form.coefficient(x0.num, x0.den)
    if c is None:
        a = next(a for a in points if trace_pairing(x0, a) == 0)
        raise SingularAtX0(f"pairing with {a} vanishes at the evaluation point")
    return ScaledRational(c, form.e, form.disc)


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


class TermForm:
    """The dual value h*(A)(x) = 1 / (det(A) * prod_i Tr(x B_i)) of one
    independent tuple A, prepared for evaluation at many points x; or, from
    TermForm.primal, the value h(A)(x) = det(A) / prod_i <x, A_i>.

    Tr(x B_i) is the i-th coordinate of x in the basis A, because the B_i
    are trace-dual to the A_i.  So the pairings are the rows of the inverse
    of the coordinate matrix (the A_i as its columns) applied to x, and no
    dual basis, Gram matrix or field product is needed.  With det(A) =
    q*sqrt(D), the rows cleared to integers over a denominator den, and
    x = X/dx, the value is den^n dx^n / (q * prod_i (row_i . X)) / sqrt(D).
    The primal value is homogeneous of degree zero in each A_i, so it is
    computed on the integer numerators num_i of A_i = num_i/den_i.  The
    pairing <x, num_i> is x . (T num_i) for the trace matrix T, so its rows
    are the integers T num_i and its value det(num) dx^n / prod_i
    (row_i . X) * sqrt(D).
    """

    __slots__ = ("rows", "scale", "e", "disc")

    def __init__(self, points: Sequence[FieldElement]):
        q = _tuple_det(points) / math.prod(p.den for p in points)
        # the coordinate matrix is (num_i / den_i)_i as columns, so row i of
        # its inverse is den_i times row i of the inverse of (num_i)_i
        inv = linalg.inverse(list(zip(*(p.num for p in points))))
        rows = [[c * p.den for c in row] for row, p in zip(inv, points)]
        self._clear(rows, 1 / q, -1, points[0].field)

    @classmethod
    def primal(cls, points: Sequence[FieldElement]) -> "TermForm":
        T = points[0].field.trace_matrix
        rows = [[sum(t * v for t, v in zip(row, a.num)) for row in T] for a in points]
        form = cls.__new__(cls)
        form._clear(rows, _tuple_det(points), 1, points[0].field)
        return form

    def _clear(self, rows, factor: Fraction, e: int, field) -> None:
        den = math.lcm(*(c.denominator for row in rows for c in row))
        self.rows = tuple(tuple(int(c * den) for c in row) for row in rows)
        self.scale = factor * den ** len(rows)
        self.e = e
        self.disc = field.disc_abs

    def coefficient(self, num: Sequence[int], den: int = 1) -> Fraction | None:
        """Rational c with value c * sqrt(D)^e at the point x = X/dx with
        integer power-basis coordinates X = num over dx = den, or None when x
        lies on a facet span of A (dual) or pairs to zero with some A_i
        (primal)."""
        prod = 1
        for row in self.rows:
            p = sum(w * v for w, v in zip(row, num))
            if p == 0:
                return None
            prod *= p
        scale = self.scale
        return Fraction(scale.numerator * den ** len(num), scale.denominator * prod)

    def value(self, x: FieldElement) -> ScaledRational:
        c = self.coefficient(x.num, x.den)
        if c is None:
            raise SingularAtX0("evaluation point lies on a facet span of the tuple")
        return ScaledRational(c, self.e, self.disc)


def _tuple_det(points: Sequence[FieldElement]) -> Fraction:
    """Determinant of the numerator rows num_i; DependentTuple when 0."""
    q = linalg.det([p.num for p in points])
    if q == 0:
        raise DependentTuple("tuple is linearly dependent")
    return q


def dual_cocycle_value(
    points: Sequence[FieldElement], x0: FieldElement
) -> ScaledRational:
    """Value of the dual tuple: 1 / (det(A) * prod Tr(x0 B_i)).

    By convention a linearly dependent tuple evaluates to zero.
    """
    try:
        form = TermForm(points)
    except DependentTuple:
        return ScaledRational.rational(0, x0.field.disc_abs)
    return form.value(x0)


class ConeTerm(FrozenRecord):
    """One top cone's contribution at x0, with its primitive generators."""

    __slots__ = ("cone", "primitive_gens", "value")

    def __init__(
        self, cone: Cone, primitive_gens: tuple[FieldElement, ...], value: ScaledRational
    ):
        self._fill(cone, primitive_gens, value)


def _oriented_generators(t: Cone, module_basis: Sequence[FieldElement]) -> list[FieldElement]:
    """Primitive generators of a simplicial top cone, positively ordered."""
    prims = [primitive_generator(g, module_basis) for g in t.extreme_rays]
    if len(prims) != t.field.degree:
        raise NotSimplicial("cone term needs a simplicial top cone")
    if det_scaled(prims).q < 0:
        prims[0], prims[1] = prims[1], prims[0]
    return prims


def cone_term(t: Cone, module_basis: Sequence[FieldElement], x0: FieldElement) -> ConeTerm:
    """Term of a simplicial top cone from its positively ordered primitive
    generators."""
    prims = _oriented_generators(t, module_basis)
    value = TermForm(prims).value(x0)
    return ConeTerm(cone=t, primitive_gens=tuple(prims), value=value)


# ---------------------------------------------------------------------------
# evaluation of cycles against the cocycle value


def evaluate_cycle(z: Cycle, x0: FieldElement) -> ScaledRational:
    """Extension of the cocycle value to a top-degree cycle.

    The simplicial decomposition is coned from the canonical base point; if
    that base makes an individual simplex singular at x0 while the total is
    finite, alternative bases from the cycle's own points are tried.
    """
    if not is_cycle(z):
        raise NotACycle("the cocycle value extends to cycles only")
    field = z.field
    zero = ScaledRational.rational(0, field.disc_abs)
    candidates = [None] + [field.element(p) for p in sorted(z.points())]
    last_error: Exception | None = None
    for base in candidates:
        try:
            total = zero
            for coef, pts in decompose_cycle(z, base=base):
                total = total + cocycle_value(pts, x0) * coef
            return total
        except SingularAtX0 as exc:
            last_error = exc
    raise last_error


# ---------------------------------------------------------------------------
# partial sums over truncations


class ConvergenceRow(FrozenRecord):
    __slots__ = ("window", "value", "target", "abs_error")

    def __init__(self, window: int, value: ScaledRational, target: Fraction, abs_error: float):
        self._fill(window, value, target, abs_error)

    def as_dict(self):
        return {
            "N": self.window,
            "partial_sum": self.value.exact_str(),
            "target": str(self.target),
            "abs_error": self.abs_error,
        }


def _star_group_value(group: TermGroup, x0: FieldElement) -> ScaledRational:
    """Combined finite value of a star of cones around a singular cone: the
    internal singular walls cancel in the summed dual boundary cycle."""
    total_cycle = None
    for t in group.cones:
        z = boundary_cycle(ProjPolyhedron(t, check=False))
        total_cycle = z if total_cycle is None else total_cycle + z
    return evaluate_cycle(dual_cycle(total_cycle), x0)


def partial_sum(tf: TruncatedFan, x0: FieldElement) -> ConvergenceRow:
    """Exact sum of all term groups of the truncation at x0."""
    if not is_totally_positive(x0):
        raise NotTotallyPositive("partial sums are evaluated at totally positive x0")
    total = _groups_value(tf.group_singular_terms(x0), tf.module_basis, x0)
    return _row(tf.window, total, 1 / x0.norm())


def _groups_value(groups, module_basis, x0: FieldElement) -> ScaledRational:
    total = ScaledRational.rational(0, x0.field.disc_abs)
    for group in groups:
        if group.is_singleton:
            total = total + cone_term(group.cones[0], module_basis, x0).value
        else:
            total = total + _star_group_value(group, x0)
    return total


def _row(window: int, total: ScaledRational, target: Fraction) -> ConvergenceRow:
    if total.e == 1:  # present window sums uniformly as q/sqrt(D)
        total = total.with_exponent(-1)
    return ConvergenceRow(
        window=window,
        value=total,
        target=target,
        abs_error=_abs_error(total, target),
    )


def _abs_error(value: ScaledRational, target: Fraction) -> float:
    """|value - target|, correctly rounded."""
    rational, coef = value.parts()
    return abs(surd_float(rational - target, coef, value.disc))


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


MAX_NODES_PER_AXIS = 64  # node generation costs grow as k^3


def hurwitz_area(
    points: Sequence[FieldElement],
    x0: FieldElement,
    samples: int = 200_000,
) -> float:
    """Numerical projective area of the region spanned by the points on the
    positive side of x0, in the affine chart {<x0, y> = 1}.

    Up to the chart orientation this reproduces the cocycle value; the
    quadrature is independent of the exact code path.  With the pairings
    c_i = |<x0, A_i>|, the area is det(A) (n-1)! times the integral of
    (sum_i lam_i c_i)^-n over the simplex {lam >= 0, sum lam = 1}.  The rule
    is deterministic for every degree n: a tensor Gauss-Legendre rule on the
    unit cube pulled back by the collapsed (Duffy) coordinates lam_1 = u_1,
    lam_k = u_k prod_{j<k} (1 - u_j), lam_n = prod_j (1 - u_j), whose
    Jacobian is prod_{j <= n-2} (1 - u_j)^(n-1-j).  Each axis gets about
    samples^(1/(n-1)) nodes, at least 2 and at most MAX_NODES_PER_AXIS.
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
    det_f = float(det)
    c = [float(p) for p in pairings]

    import numpy as np

    k = min(max(round(samples ** (1 / (n - 1))), 2), MAX_NODES_PER_AXIS)
    u, w = np.polynomial.legendre.leggauss(k)
    u, w = (u + 1) / 2, w / 2
    # flattened tensor grid, one axis u_j at a time: the partial sum of
    # lam_i c_i, the weight with its Jacobian factor, and prod (1 - u_j)
    denom, weight, rest = np.zeros(1), np.ones(1), np.ones(1)
    for j in range(n - 1):
        denom = (denom[:, None] + c[j] * np.outer(rest, u)).ravel()
        weight = np.outer(weight, w * (1 - u) ** (n - 2 - j)).ravel()
        rest = np.outer(rest, 1 - u).ravel()
    denom += c[n - 1] * rest
    return det_f * math.factorial(n - 1) * float(np.dot(weight, denom ** -n))


# ---------------------------------------------------------------------------
# the convergence driver


def converge(
    description: FanDescription,
    x0: FieldElement,
    n_max: int,
    tol: float,
) -> list[ConvergenceRow]:
    """Exact partial sums over growing windows, stopping early once the
    absolute error against 1/N(x0) drops below tol.

    Row N equals partial_sum(truncate(description, N), x0), but each window
    only adds the terms of the translates by the window_exponents that the
    windows before it lack.  The fan is
    periodic: a translate u*t of an orbit representative t has the term
    h*(u t)(x0) = h*(t)(u^-1 x0) / |N(u)|, since the value is homogeneous of
    degree zero in each generator.  So one TermForm per representative
    serves every translate, and one UnitPowers walk builds both u and u^-1,
    one multiplication each per new exponent vector.  The top cones whose
    form vanishes at x0 are the only ones in star groups (a star of a
    singular cone holds singular tops only), so their grouped value is
    recomputed whenever that set grows.
    """
    if not is_totally_positive(x0):
        raise NotTotallyPositive("partial sums are evaluated at totally positive x0")
    forms = [
        (rep, TermForm(_oriented_generators(rep, description.module_basis)))
        for rep in description.orbit_cones
    ]
    powers = UnitPowers(x0.field, description.units)
    norms = [abs(u.norm()) for u in description.units]
    dedupe = description.kind == "explicit"  # quadratic cones never repeat
    seen: set[frozenset] = set()
    regular = Fraction(0)  # the non-singular terms, as c with value c/sqrt(D)
    singular_tops: list[Cone] = []
    star = ScaledRational.rational(0, x0.field.disc_abs)
    target = 1 / x0.norm()
    walked: set[tuple[int, ...]] = set()
    rows = []
    for window in range(1, n_max + 1):
        grew = False
        for exponents in window_exponents(description, window):
            if exponents in walked:
                continue
            walked.add(exponents)
            translator = powers(exponents)
            x = x0 * powers(-a for a in exponents)
            norm = Fraction(1)
            for u_norm, a in zip(norms, exponents):
                norm *= u_norm**a
            for rep, form in forms:
                if dedupe:
                    key = frozenset((g * translator).ray_key() for g in rep.extreme_rays)
                    if key in seen:
                        continue
                    seen.add(key)
                q = form.coefficient(x.num, x.den)
                if q is None:
                    singular_tops.append(rep.mul_unit(translator))
                    grew = True
                else:
                    regular += q if norm == 1 else q / norm
        if grew:
            tf = TruncatedFan(description, singular_tops, window)
            star = _groups_value(tf.group_singular_terms(x0), tf.module_basis, x0)
        total = ScaledRational(regular, -1, x0.field.disc_abs) + star
        rows.append(_row(window, total, target))
        if rows[-1].abs_error < tol:
            break
    return rows
