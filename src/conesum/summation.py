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
from functools import lru_cache
from operator import mul

from . import linalg
from .cycles import CPDFunction, Cycle, boundary_cycle, cpd_extend, dual_cycle, orthogonal_point
from .errors import (
    DependentTuple,
    NotConvexUnion,
    NotTotallyPositive,
    SingularAtX0,
)
from .fan import FanDescription, LatticeFrame, TruncatedFan, new_pairs, window_exponents
from .field import (
    FieldElement,
    ScaledRational,
    det_scaled,
    is_totally_positive,
    surd_float,
    trace_pairing,
)
from .geometry import Cone, ProjPolyhedron, trace_duals, walls
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
        raise _vanishing_pairing(next(a for a in points if trace_pairing(x0, a) == 0))
    return ScaledRational(c, form.e, form.disc)


def _vanishing_pairing(a: FieldElement) -> SingularAtX0:
    return SingularAtX0(f"pairing with {a} vanishes at the evaluation point")


def dual_basis(points: Sequence[FieldElement]) -> list[FieldElement]:
    """B with Tr(A_i B_j) = delta_ij: geometry.trace_duals."""
    return trace_duals(points)


class TermForm:
    """The dual value h*(A)(x) = 1 / (det(A) * prod_i Tr(x B_i)) of one
    independent tuple A, prepared for evaluation at many points x; or, from
    TermForm.primal, the value h(A)(x) = det(A) / prod_i <x, A_i>.

    Tr(x B_i) is the i-th coordinate of x in the basis A, because the B_i
    are trace-dual to the A_i.  So the pairings are the rows of the inverse
    of the coordinate matrix (the A_i as its columns) applied to x, and no
    dual basis, Gram matrix or field product is needed.  Both values are
    homogeneous of degree zero in each A_i, so they are computed on the
    integer numerators num_i of A_i = num_i/den_i.  With N the matrix of
    columns num_i and x = X/dx, the pairings are adj(N)_i . X / (det(N) dx)
    and the dual value is det(N)^(n-1) dx^n / prod_i (adj(N)_i . X) /
    sqrt(D).  The pairing <x, num_i> is x . (T num_i) for the trace matrix
    T, so the primal rows are the integers T num_i and its value det(N)
    dx^n / prod_i (row_i . X) * sqrt(D).
    """

    __slots__ = ("rows", "scale", "e", "disc")

    def __init__(self, points: Sequence[FieldElement]):
        # degree zero in each point: their numerators serve, in the power basis
        form = TermForm.in_basis([p.num for p in points], 1, points[0].field)
        self.rows, self.scale, self.e, self.disc = form.rows, form.scale, form.e, form.disc

    @classmethod
    def in_basis(cls, columns: Sequence[Sequence[int]], basis_det: Fraction, field) -> "TermForm":
        """The dual form of the points B C_i for integer columns C_i in a
        basis B of coordinate determinant basis_det, for coefficient(Y, dy) at
        x = B Y / dy: det(C)^(n-1) dy^n / (basis_det prod_i adj(C)_i . Y)."""
        try:
            adj, det = linalg.adjugate(list(zip(*columns)))
        except ZeroDivisionError:
            raise DependentTuple("tuple is linearly dependent") from None
        form = cls.__new__(cls)
        form._clear(adj, Fraction(det ** (len(adj) - 1)) / basis_det, -1, field)
        return form

    @classmethod
    def primal(cls, points: Sequence[FieldElement]) -> "TermForm":
        det = linalg.int_det([p.num for p in points])
        if det == 0:
            raise DependentTuple("tuple is linearly dependent")
        T = points[0].field.trace_matrix
        rows = [[sum(t * v for t, v in zip(row, a.num)) for row in T] for a in points]
        form = cls.__new__(cls)
        form._clear(rows, Fraction(det), 1, points[0].field)
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
            p = _dot(row, num)
            if p == 0:
                return None
            prod *= p
        scale = self.scale
        return Fraction(scale.numerator * den ** len(num), scale.denominator * prod)

    def value(self, x: FieldElement) -> ScaledRational:
        return self.value_at(x.num, x.den)

    def value_at(self, num: Sequence[int], den: int = 1) -> ScaledRational:
        c = self.coefficient(num, den)
        if c is None:
            raise SingularAtX0("evaluation point lies on a facet span of the tuple")
        return ScaledRational(c, self.e, self.disc)


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


def cone_term(t: Cone, module_basis: Sequence[FieldElement], x0: FieldElement) -> ConeTerm:
    """Term of a simplicial top cone from its positively ordered primitive
    generators."""
    frame = LatticeFrame(module_basis)
    cols = frame.oriented(t)
    value = TermForm.in_basis(cols, frame.det, frame.field).value_at(*frame.coordinates(x0))
    return ConeTerm(cone=t, primitive_gens=tuple(map(frame.point, cols)), value=value)


# ---------------------------------------------------------------------------
# evaluation of cycles against the cocycle value


def evaluate_cycle(z: Cycle, x0: FieldElement) -> ScaledRational:
    """Extension of the cocycle value at x0 to a top-degree cycle."""
    zero = ScaledRational.rational(0, x0.field.disc_abs)
    value = CPDFunction(x0.field.degree, lambda pts: cocycle_value(pts, x0), zero, "cocycle")
    return cpd_extend(value, z)


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


def carrier(cols: Sequence[tuple[int, ...]], form: TermForm, Y: Sequence[int]) -> tuple:
    """The columns of a top (row i of its form is a nonzero multiple of the
    i-th coordinate in its rays) at which x = B Y / d has a nonzero
    coordinate: the rays of the smallest face whose span holds x."""
    return tuple(c for row, c in zip(form.rows, cols) if _dot(row, Y))


def _dot(row: Sequence[int], v: Sequence[int]) -> int:
    return sum(map(mul, row, v))


def star_groups(singular, frame: LatticeFrame) -> list[tuple[tuple, list]]:
    """The (carrier, columns, form) triples of singular tops grouped into
    the stars of their carriers, as (sorted ray keys of the carrier, member
    (columns, form) pairs): stars by carrier size, then by those keys,
    members by the sorted ray keys of their rays.  Two singular faces of a
    top both contain its carrier, so by minimality a top lies in one star
    only."""
    keys = frame.ray_keys
    return sorted(((keys(sigma), sorted(tops, key=lambda top: keys(top[0])))
                   for sigma, tops in _by_carrier(singular)),
                  key=lambda star: (len(star[0]), star[0]))


def _by_carrier(singular):
    """The (carrier, member (columns, form) pairs) of each star, in
    first-seen order."""
    stars: dict[frozenset, list] = {}
    for sigma, cols, form in singular:
        stars.setdefault(frozenset(sigma), []).append((cols, form))
    return stars.items()


def stars_value(singular, frame: LatticeFrame, x0: FieldElement) -> Fraction:
    """The summed value c/sqrt(D), as c, of the stars of the singular tops,
    as (carrier, columns, form) triples: each star is the ε⁰ coefficient of
    the Laurent expansion of Σ_t h*(t)(x0 + εv) over its tops t, on integers.

    The identity.  Let z be a star's summed dual cycle, the sum of its tops'
    dual simplices.  For x off every wall, Σ_t h*(t)(x) = evaluate_cycle(z,
    x) (criterion 3).  Each simplex term of z's canonical decomposition is
    a rational function of x; if every one is finite at x0, their sum is
    regular at x0, and so is its restriction to the line x0 + εv, whose
    value at ε = 0 is evaluate_cycle(z, x0).  For a direction v on which no
    pairing that vanishes at x0 vanishes, Σ_t h*(t)(x0 + εv) is that same
    rational function of ε near 0, a finite sum of Laurent series.  So its ε⁰
    coefficient is the cycle value and no negative power survives.
    Conversely, a surviving negative power means that some simplex term is
    singular at x0: the star is open, and the cycle value raises.  (That a
    star with no surviving negative power has a finite cycle value is
    checked, not proved: it holds on every ray and wall star of the test
    fans.)

    On integers.  With x0 = B Y / d and v = B V / d, a top's term is
    scale d^n / prod_i (a_i + b_i ε), a_i = adj(C)_i . Y and b_i = adj(C)_i
    . V, for its TermForm on the module columns C.  The rows with a_i = 0
    are those off the carrier, m = n - |carrier| of them, the same m for
    every top of a star, and each contributes 1 / (b_i ε).  Each other
    factor is a geometric series a^(m+1) / (a + b ε) = Σ_k (-b)^k a^(m-k)
    ε^k + O(ε^(m+1)), truncated at order m: the terms of Σ_t from ε^-m to
    ε^0.  v is the first (1, k, ..., k^(n-1)), k = 1, 2, ..., on which every
    vanishing row is nonzero; a row is nonzero, so it vanishes at no more
    than n - 1 of them, and the value does not depend on v.

    An open star raises SingularAtX0, worded by _open_star."""
    Y, d = frame.coordinates(x0)
    stars = [[form for _, form in tops] for _, tops in _by_carrier(singular)]
    V = _direction([row for forms in stars for form in forms for row in form.rows
                    if not _dot(row, Y)], len(Y))
    values = [star_constant_term(forms, Y, d, V) for forms in stars]
    if None in values:
        raise _open_star(singular, frame, Y, d, V)
    return sum(values, Fraction(0))


def _open_star(singular, frame: LatticeFrame, Y, d: int, V) -> SingularAtX0:
    """The SingularAtX0 of the first open star of star_groups: of its first
    top's rays off the carrier, take the first c in ray-key order; x0 pairs
    to zero with the trace-dual point opposite c, which it names."""
    for _, tops in star_groups(singular, frame):
        if star_constant_term([form for _, form in tops], Y, d, V) is None:
            cols, form = tops[0]
            off = [c for row, c in zip(form.rows, cols) if not _dot(row, Y)]
            ray = min(off, key=lambda c: frame.point(c).ray_key())
            a = orthogonal_point(frame.field, [frame.point(c) for c in cols if c != ray])
            return _vanishing_pairing(frame.field.element(a.proj_key()))


def _direction(rows, n: int) -> tuple[int, ...]:
    k = 1
    while True:
        V = tuple(k**i for i in range(n))
        if all(_dot(row, V) for row in rows):
            return V
        k += 1


def star_constant_term(forms, Y: Sequence[int], d: int, V: Sequence[int]) -> Fraction | None:
    """The ε⁰ coefficient c (value c/sqrt(D)) of the summed terms of the
    forms of one star's tops at x0 + εv, x0 = B Y / d and v = B V / d, or
    None when a negative power of ε survives: see stars_value."""
    m = sum(not _dot(row, Y) for row in forms[0].rows)
    num, den = [0] * (m + 1), 1  # the coefficients of ε^-m .. ε^0 over den
    for form in forms:
        series, q = [form.scale.numerator] + [0] * m, form.scale.denominator
        for row in form.rows:
            a, b = _dot(row, Y), _dot(row, V)
            if a == 0:
                q *= b
                continue
            geo = [(-b) ** k * a ** (m - k) for k in range(m + 1)]
            series = [sum(series[j] * geo[k - j] for j in range(k + 1)) for k in range(m + 1)]
            q *= a ** (m + 1)
        num = [x * q + y * den for x, y in zip(num, series)]
        den *= q
    if any(num[:m]):
        return None
    return Fraction(num[m] * d ** len(Y), den)


class WindowSum:
    """The terms at x0 of a fan's translates u^e t_r, as (exponent vector e,
    representative index r) pairs: partial_sum adds its truncation's pairs,
    and row N of converge the pairs that window N adds, so row N equals
    partial_sum(truncate(description, N), x0).  The term of u t is h*(t)(u^-1
    x0) (degree zero in each generator), so one TermForm per representative,
    kept on the description's frame with its moved columns, serves every
    translate, on u^-e x0 walked in integer module coordinates; units of
    determinant 1 keep the columns positively ordered.  Only a singular top,
    whose form vanishes at x0, gets a TermForm of its own, for its star."""

    def __init__(self, description: FanDescription, x0: FieldElement):
        self.frame = description.frame
        Y, self.d = self.frame.coordinates(x0)
        self.points = self.frame.walk(Y)
        self.regular = Fraction(0)  # the non-singular terms, as c with value c/sqrt(D)
        self.singular: list[tuple[tuple, tuple, TermForm]] = []

    def add(self, pairs) -> list[tuple[tuple[int, ...], int]]:
        """Adds the pairs' terms, walking u^-e x0 once per run of equal e, and
        returns the singular pairs in the order of self.singular."""
        found, last, d, frame, forms = [], None, self.d, self.frame, self.frame.forms
        for e, r in pairs:
            if e != last:
                Y, last = self.points(e), e
            form = forms[r]
            q = form.coefficient(Y, d)
            if q is None:  # u^e t at x0 is t at u^-e x0, so its carrier pairs with Y
                cols = frame.moves[r](e)
                self.singular.append((carrier(cols, form, Y), cols,
                                      TermForm.in_basis(cols, frame.det, frame.field)))
                found.append((e, r))
            else:
                self.regular += q
        return found


def partial_sum(tf: TruncatedFan, x0: FieldElement) -> ConvergenceRow:
    """Exact sum of the regular terms and the stars of the truncation at x0."""
    if not is_totally_positive(x0):
        raise NotTotallyPositive("partial sums are evaluated at totally positive x0")
    terms = WindowSum(tf.description, x0)
    terms.add(sorted(tf.pairs))
    total = terms.regular + stars_value(terms.singular, terms.frame, x0)
    return _row(tf.window, total, 1 / x0.norm(), x0.field.disc_abs)


def _row(window: int, c: Fraction, target: Fraction, disc: int) -> ConvergenceRow:
    value = ScaledRational(c, -1, disc)  # the window sum c/sqrt(D)
    return ConvergenceRow(
        window=window,
        value=value,
        target=target,
        abs_error=_abs_error(value, target),
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
    """NotConvexUnion unless each piece is full-dimensional in the union and
    each wall (geometry.walls, under the trace pairing) lies on two pieces or
    on one and a facet of the union: as every wall lies in the union, on a
    facet whose row vanishes on all of its rays.  Walls alone let a second
    layer pass, so then the two pieces on a wall must lie on its two sides,
    and a point inside the first piece and on no wall must lie in no other."""
    def facet_rows(cone):
        return [linalg.mat_vec(union.field.trace_matrix, u.num) for u in cone.facet_normals()]

    sides, pieces = {}, []
    for t in cones:
        if t.dim != union.dim:
            raise NotConvexUnion("pieces must be full-dimensional in the union")
        rays, rows = [g.num for g in t.extreme_rays], facet_rows(t)
        pieces.append(rows)
        for wall, row in zip(walls(rays, rows), rows):  # each facet holds an extreme ray
            sides.setdefault(wall, []).append((row, rays))
    faces = walls((g.num for g in union.generators), facet_rows(union))
    for wall, found in sides.items():
        if len(found) > 2:
            raise NotConvexUnion("a wall is shared by more than two cones")
        if len(found) == 1 and not any(wall <= face for face in faces):
            raise NotConvexUnion("unmatched interior wall: union is not tiled")
    for (row, _), (_, rays) in (found for found in sides.values() if len(found) == 2):
        if not any(_dot(row, r) < 0 for r in rays):
            raise NotConvexUnion("two pieces meet a wall from the same side")
    gens = [g.num for t in cones[:1] for g in t.extreme_rays]  # x inside the first piece
    V = _direction([[_dot(row, g) for g in gens] for rows in pieces for row in rows], len(gens))
    x = [sum(map(mul, V, coords)) for coords in zip(*gens)]  # x = sum V_k g_k on no wall
    inside = sum(all(_dot(row, x) > 0 for row in rows) for rows in pieces)
    if inside != 1:
        raise NotConvexUnion(f"a generic point of the union lies in {inside} pieces, not one")


# ---------------------------------------------------------------------------
# geometric area oracle


MAX_NODES_PER_AXIS = 64  # node generation costs grow as k^3


@lru_cache(maxsize=None)
def _unit_gauss_rule(k: int):
    """The k-node Gauss-Legendre nodes and weights moved to [0, 1], as
    read-only arrays: a memo of a pure function of k."""
    import numpy as np

    u, w = np.polynomial.legendre.leggauss(k)
    u, w = (u + 1) / 2, w / 2
    u.flags.writeable = w.flags.writeable = False
    return u, w


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

    u, w = _unit_gauss_rule(min(max(round(samples ** (1 / (n - 1))), 2), MAX_NODES_PER_AXIS))
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
    absolute error against 1/N(x0) drops below tol: one WindowSum, whose
    stars are valued again when a singular top joins them."""
    if not is_totally_positive(x0):
        raise NotTotallyPositive("partial sums are evaluated at totally positive x0")
    terms = WindowSum(description, x0)
    seen: dict[frozenset, tuple] = {}
    disc = x0.field.disc_abs
    star = Fraction(0)
    target = 1 / x0.norm()
    walked: set[tuple[int, ...]] = set()
    rows = []
    for window in range(1, n_max + 1):
        exponents = [e for e in window_exponents(description, window) if e not in walked]
        walked.update(exponents)
        if terms.add(new_pairs(description, exponents, seen)):
            star = stars_value(terms.singular, terms.frame, x0)
        rows.append(_row(window, terms.regular + star, target, disc))
        if rows[-1].abs_error < tol:
            break
    return rows
