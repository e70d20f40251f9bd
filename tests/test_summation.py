import functools
import itertools
import math
import random
import sys
from collections import Counter
from fractions import Fraction

import mpmath
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conesum.cycles import (
    Cycle, boundary_cycle, decompose_cycle, dual_cycle, dual_point_function, is_cycle,
)
from conesum.errors import (
    ConesumError,
    DependentTuple,
    NotACycle,
    NotAUnit,
    NotConvexUnion,
    NotFullRank,
    NotSimplicial,
    NotTotallyPositive,
    SingularAtX0,
    UnitDoesNotPreserveM,
)
from conesum import cycles, fan, geometry, linalg, summation
from conesum.field import (
    ScaledRational,
    TotallyRealField,
    UnitPowers,
    coord_det,
    det_scaled,
    fundamental_unit_quadratic,
    make_field,
    surd_float,
    trace_pairing,
)
from conesum.fan import (
    FanDescription,
    LatticeFrame,
    TruncatedFan,
    build_quadratic_fan,
    refine_insert_ray,
    truncate,
    window_exponents,
)
from conesum.geometry import Cone, ProjPolyhedron, primitive_generator, solve_in_basis
from conesum.summation import (
    ConeTerm,
    TermForm,
    cocycle_value,
    cone_term,
    converge,
    dual_basis,
    dual_cocycle_value,
    evaluate_cycle,
    _abs_error,
    hurwitz_area,
    partial_sum,
    sum_via_dual_cycle,
)

from test_fan import _cubic_explicit, colmez_cubic_fan, reference_groups
from test_geometry import contains_subspace

QUADRATIC = [-3, 0, 1]
CUBIC = [1, -2, -1, 1]
QUARTIC = [1, 1, -4, 0, 1]


def rand_elem(F, rng, span=5):
    while True:
        coords = [rng.randint(-span, span) for _ in range(F.degree)]
        if any(coords):
            return F.element(coords)


def rand_tuple(F, rng, count):
    return [rand_elem(F, rng) for _ in range(count)]


def sqrt3_fan():
    F = make_field(QUADRATIC)
    desc, vs = build_quadratic_fan((F.one, F.theta / 3), fundamental_unit_quadratic(3))
    return F, desc, vs


def sqrt2_fan():
    F = make_field([-2, 0, 1])
    desc, vs = build_quadratic_fan((F.one, F.theta), fundamental_unit_quadratic(2))
    return F, desc, vs


def sqrt5_fan():
    F = make_field([-5, 0, 1])
    omega = F.element([Fraction(1, 2), Fraction(1, 2)])
    desc, vs = build_quadratic_fan((F.one, omega), fundamental_unit_quadratic(5))
    return F, desc, vs


def sqrt13_fan():
    F = make_field([-13, 0, 1])
    omega = F.element([Fraction(1, 2), Fraction(1, 2)])
    desc, vs = build_quadratic_fan((F.one, omega), fundamental_unit_quadratic(13))
    return F, desc, vs


def fresh(desc):
    """The description rebuilt from its fields: equal to desc, with no frame
    built yet."""
    return FanDescription(
        desc.kind, desc.module_basis, desc.units, desc.vertex_sequence, desc.orbit_cones
    )


def explicit_from_auto(desc, vs):
    """The explicit description whose orbit representatives are the cones of
    one period of the quadratic fan."""
    F = desc.field
    reps = tuple(Cone(F, [vs.point(k), vs.point(k + 1)]) for k in range(vs.period))
    return FanDescription(
        kind="explicit", module_basis=desc.module_basis, units=(vs.unit,), orbit_cones=reps
    )


class TestCocycleValue:
    def test_degree_zero_homogeneity(self):
        rng = random.Random(1)
        F = make_field(CUBIC)
        for _ in range(10):
            A = rand_tuple(F, rng, 3)
            x0 = rand_elem(F, rng)
            try:
                v = cocycle_value(A, x0)
            except SingularAtX0:
                continue
            scaled = [A[0] * 2] + A[1:]
            assert cocycle_value(scaled, x0) == v

    def test_dependent_tuple_zero(self):
        F = make_field(QUADRATIC)
        x0 = F.element([4, 1])
        assert cocycle_value([F.one, F.one * 3], x0).is_zero()

    def test_standard_basis_identity_certified(self):
        # product of the embedding intervals of x0 encloses N(x0) exactly:
        # the chart value of the coordinate orthant is 1/N(x0)
        for poly in (QUADRATIC, CUBIC):
            F = make_field(poly)
            x0 = F.element([3, 1] + [0] * (F.degree - 2))
            prod = 1
            for iv in F.embed(x0, 60):
                prod = iv * prod
            lo, hi = prod.endpoints()
            assert lo <= x0.norm() <= hi
            assert hi - lo < Fraction(1, 2**40)

    def test_alternating_sum_vanishes(self):
        # 100 tuples x 20 evaluation points per degree, all exact zeros
        for poly in (QUADRATIC, CUBIC, QUARTIC):
            F = make_field(poly)
            rng = random.Random(100 + F.degree)
            n = F.degree
            zero = ScaledRational.rational(0, F.disc_abs)
            tuples_done = 0
            while tuples_done < 100:
                A = rand_tuple(F, rng, n + 1)
                points_done = 0
                attempts = 0
                while points_done < 20 and attempts < 200:
                    attempts += 1
                    x = rand_elem(F, rng)
                    try:
                        total = zero
                        for i in range(n + 1):
                            sub = A[:i] + A[i + 1 :]
                            term = cocycle_value(sub, x)
                            total = total + term * ((-1) ** i)
                    except SingularAtX0:
                        continue
                    assert total.is_zero()
                    points_done += 1
                tuples_done += 1


class TestDualValue:
    def test_dual_basis_identity(self):
        rng = random.Random(2)
        for poly in (QUADRATIC, CUBIC, QUARTIC):
            F = make_field(poly)
            for _ in range(15):
                A = rand_tuple(F, rng, F.degree)
                try:
                    B = dual_basis(A)
                except Exception:
                    continue
                for i, a in enumerate(A):
                    for j, b in enumerate(B):
                        assert trace_pairing(a, b) == (1 if i == j else 0)

    def test_worked_quadratic_example(self):
        # dual basis of (1, sqrt3) is (1/2, sqrt3/6); the value at x0 = 1 is
        # singular because x0 lies on a spanning ray, while 2 + sqrt3 gives
        # exactly 1/(2 sqrt12)
        F = make_field(QUADRATIC)
        A = [F.one, F.theta]
        B = dual_basis(A)
        assert B[0] == F.element([Fraction(1, 2), 0])
        assert B[1] == F.element([0, Fraction(1, 6)])
        with pytest.raises(SingularAtX0):
            dual_cocycle_value(A, F.one)
        v = dual_cocycle_value(A, F.element([2, 1]))
        assert v == ScaledRational(Fraction(1, 2), -1, 12)

    def test_matches_value_of_dual_tuple(self):
        rng = random.Random(3)
        F = make_field(CUBIC)
        for _ in range(10):
            A = rand_tuple(F, rng, 3)
            x0 = rand_elem(F, rng)
            try:
                direct = dual_cocycle_value(A, x0)
                via_b = cocycle_value(dual_basis(A), x0)
            except SingularAtX0:
                continue
            except Exception:
                continue
            assert direct == via_b

    def test_dual_alternating_sum_vanishes(self):
        for poly in (QUADRATIC, CUBIC, QUARTIC):
            F = make_field(poly)
            rng = random.Random(200 + F.degree)
            n = F.degree
            zero = ScaledRational.rational(0, F.disc_abs)
            for _ in range(25):
                A = rand_tuple(F, rng, n + 1)
                done = 0
                attempts = 0
                while done < 5 and attempts < 100:
                    attempts += 1
                    x = rand_elem(F, rng)
                    try:
                        total = zero
                        for i in range(n + 1):
                            sub = A[:i] + A[i + 1 :]
                            total = total + dual_cocycle_value(sub, x) * ((-1) ** i)
                    except SingularAtX0:
                        continue
                    assert total.is_zero()
                    done += 1


class TestTermForm:
    def test_matches_dual_basis_pairings(self):
        # Tr(x B_i) is the i-th coordinate of x in the basis A, so the form
        # must reproduce 1/(det(A) prod Tr(x B_i)) from the explicit dual basis
        rng = random.Random(8)
        checked = 0
        for poly in (QUADRATIC, CUBIC, QUARTIC):
            F = make_field(poly)
            for _ in range(40):
                A = rand_tuple(F, rng, F.degree)
                x = rand_elem(F, rng)
                try:
                    form = TermForm(A)
                except DependentTuple:
                    continue
                pairings = [trace_pairing(x, b) for b in dual_basis(A)]
                if 0 in pairings:
                    assert form.coefficient(x.coords) is None
                    continue
                prod = Fraction(1)
                for p in pairings:
                    prod *= p
                expected = (det_scaled(A) * prod).inverse()
                assert form.value(x) == expected
                checked += 1
        assert checked >= 100

    def test_primal_matches_pairing_product(self):
        # the primal rows are T A_i, so the form must reproduce
        # det(A) / prod <x, A_i> from the field's own products and traces
        rng = random.Random(9)
        checked = 0
        for poly in (QUADRATIC, CUBIC, QUARTIC):
            F = make_field(poly)
            for _ in range(40):
                A = rand_tuple(F, rng, F.degree)
                x = rand_elem(F, rng)
                try:
                    form = TermForm.primal(A)
                except DependentTuple:
                    assert det_scaled(A).is_zero()
                    continue
                pairings = [trace_pairing(x, a) for a in A]
                if 0 in pairings:
                    assert form.coefficient(x.coords) is None
                    continue
                prod = Fraction(1)
                for p in pairings:
                    prod *= p
                assert form.value(x) == det_scaled(A) / prod
                checked += 1
        assert checked >= 100

    def test_primal_on_fractional_coordinates(self):
        # the primal rows are built on the numerators of the A_i; with
        # denominators in A and x the coefficient must still be det(A) /
        # prod <x, A_i> worked out on the Fraction coordinates
        def det(rows):
            if len(rows) == 1:
                return rows[0][0]
            return sum(
                (-1) ** j * rows[0][j] * det([r[:j] + r[j + 1 :] for r in rows[1:]])
                for j in range(len(rows))
            )

        def pairing(x, a, T):
            return sum(
                xi * t * aj for xi, row in zip(x.coords, T) for t, aj in zip(row, a.coords)
            )

        rng = random.Random(10)
        F3 = make_field(QUADRATIC)
        module = (F3.one, F3.theta / 3)  # the shipped Z + Z sqrt(3)/3
        checked = 0
        for poly in (QUADRATIC, CUBIC, QUARTIC):
            F = make_field(poly)
            for trial in range(40):
                if F is F3 and trial % 2:
                    A = [module[0] * rng.randint(-5, 5) + module[1] * rng.randint(-5, 5)
                         for _ in range(2)]
                    x = module[0] * rng.randint(1, 9) + module[1] * rng.randint(-5, 5)
                else:
                    A = [rand_elem(F, rng) / rng.randint(1, 7) for _ in range(F.degree)]
                    x = rand_elem(F, rng) / rng.randint(1, 7)
                q = det([a.coords for a in A])
                if q == 0:
                    continue
                pairings = [pairing(x, a, F.trace_matrix) for a in A]
                c = TermForm.primal(A).coefficient(x.num, x.den)
                if 0 in pairings:
                    assert c is None
                    continue
                prod = Fraction(1)
                for p in pairings:
                    prod *= p
                assert c == q / prod
                checked += 1
        assert checked >= 100

    def test_dependent_tuple_rejected(self):
        F = make_field(QUADRATIC)
        with pytest.raises(DependentTuple):
            TermForm([F.one, F.one * 3])
        with pytest.raises(DependentTuple):
            TermForm.primal([F.one, F.one * 3])

    def test_singular_point(self):
        F = make_field(QUADRATIC)
        form = TermForm([F.one, F.theta])
        assert form.coefficient(F.one.coords) is None
        with pytest.raises(SingularAtX0):
            form.value(F.one * 2)


class TestConeTerm:
    def test_generator_order_invariance(self):
        F, desc, vs = sqrt3_fan()
        tf = truncate(desc, 1)
        x0 = F.element([4, 1])
        t = tf.top_cones[0]
        term = cone_term(t, desc.module_basis, x0)
        reversed_cone = Cone(F, list(reversed(t.generators)))
        term2 = cone_term(reversed_cone, desc.module_basis, x0)
        assert term.value == term2.value

    def test_value_exponent_is_inverse_sqrt(self):
        F, desc, vs = sqrt3_fan()
        tf = truncate(desc, 1)
        term = cone_term(tf.top_cones[0], desc.module_basis, F.element([4, 1]))
        assert term.value.e == -1

    def test_facet_span_evaluation_is_singular(self):
        F, desc, vs = sqrt3_fan()
        tf = truncate(desc, 1)
        t = tf.top_cones[2]
        x0 = t.extreme_rays[0] * 5  # on a facet span of t
        with pytest.raises(SingularAtX0):
            cone_term(t, desc.module_basis, x0)

    def test_non_simplicial_cone_rejected(self):
        F, desc, vs = sqrt3_fan()
        ray = Cone(F, [vs.point(0)])
        with pytest.raises(NotSimplicial):
            cone_term(ray, desc.module_basis, F.element([4, 1]))

    def test_subdivision_additivity(self):
        # inserting a ray splits a cone into two whose values add back exactly
        rng = random.Random(4)
        F, desc, vs = sqrt3_fan()
        tf = truncate(desc, 1)
        t = tf.top_cones[1]
        r = t.interior_point()
        a, b = t.extreme_rays
        t1, t2 = Cone(F, [a, r]), Cone(F, [r, b])
        done = 0
        while done < 20:
            x = rand_elem(F, rng, span=7)
            try:
                whole = cone_term(t, desc.module_basis, x).value
                parts = (
                    cone_term(t1, desc.module_basis, x).value
                    + cone_term(t2, desc.module_basis, x).value
                )
            except SingularAtX0:
                continue
            assert whole == parts
            done += 1


class TestPartialSums:
    def test_telescoping_oracle_generic(self):
        # over a quadratic window the sum collapses to the value of the
        # outermost ray pair; both code paths must agree exactly
        F, desc, vs = sqrt3_fan()
        x0 = F.element([4, 1])
        m = vs.period
        for N in range(1, 5):
            tf = truncate(desc, N)
            row = partial_sum(tf, x0)
            outer = dual_cocycle_value([vs.point(-N * m), vs.point(N * m)], x0)
            assert row.value == outer

    def test_telescoping_oracle_singular(self):
        F, desc, vs = sqrt3_fan()
        x0 = vs.point(1) * 3  # 3 + sqrt3, on the ray through A_1
        m = vs.period
        for N in range(1, 5):
            tf = truncate(desc, N)
            row = partial_sum(tf, x0)
            outer = dual_cocycle_value([vs.point(-N * m), vs.point(N * m)], x0)
            assert row.value == outer

    def test_grouped_sum_finite_on_every_window(self):
        F, desc, vs = sqrt3_fan()
        x0 = vs.point(1) * 3
        for N in range(1, 7):
            row = partial_sum(truncate(desc, N), x0)
            assert row.value.q != 0

    def test_single_orbit_window_value(self):
        # hand-checked: window 1 for x0 = 3 + sqrt3 sums to (4/5)/sqrt12
        F, desc, vs = sqrt3_fan()
        x0 = F.element([3, 1])
        row = partial_sum(truncate(desc, 1), x0)
        assert row.value == ScaledRational(Fraction(4, 5), -1, 12)
        assert row.target == Fraction(1, 6)


def reference_check_tiling(cones, union):
    """The tiling check that sum_via_dual_cycle ran before geometry.walls:
    a Cone per facet, keyed by its extreme rays, and a wall seen once placed
    on the union's boundary by span containment and Cone.contains."""
    facets, counts = {}, {}
    for t in cones:
        if t.dim != union.dim:
            raise NotConvexUnion("pieces must be full-dimensional in the union")
        for f in t.facets():
            counts[f.key()] = counts.get(f.key(), 0) + 1
            facets[f.key()] = f
    union_facets = union.facets()
    for key, cnt in counts.items():
        if cnt == 2:
            continue
        if cnt > 2:
            raise NotConvexUnion("a wall is shared by more than two cones")
        f = facets[key]
        on_boundary = any(
            contains_subspace(uf.span, f.span) and all(uf.contains(g) for g in f.extreme_rays)
            for uf in union_facets
        )
        if not on_boundary:
            raise NotConvexUnion("unmatched interior wall: union is not tiled")


def tiling_verdict(check, cones):
    """The NotConvexUnion message of check on the cones and their union, or
    None when it passes."""
    union = Cone(cones[0].field, [g for t in cones for g in t.generators])
    try:
        check(cones, union)
    except NotConvexUnion as exc:
        return str(exc)
    return None


def untiled_cases():
    """(pieces, message) of unions that are not tiled: a gap, a piece of
    lower dimension, and walls on three pieces in degrees 2 and 3, one of
    them met before an unmatched wall only in facet order."""
    F, desc, vs = sqrt3_fan()
    tops = truncate(desc, 2).top_cones
    a, b = tops[0], tops[1]
    (shared,) = set(a.extreme_rays) & set(b.extreme_rays)
    cubic = truncate(_cubic_explicit("three-on-a-wall", 2), 1).top_cones
    return [
        ([tops[0], tops[3]], "unmatched interior wall: union is not tiled"),
        ([a, Cone(F, [a.extreme_rays[0]])], "pieces must be full-dimensional in the union"),
        ([a, b, Cone(F, [shared, b.interior_point()])], "a wall is shared by more than two cones"),
        (truncate(_cubic_explicit("three-on-a-wall", 0), 0).top_cones,
         "a wall is shared by more than two cones"),
        # the first piece's first wall in facet order lies on three pieces
        # and its last is unmatched: the cut's own order meets that one first
        ([cubic[i] for i in (0, 6, 5, 22, 3)], "a wall is shared by more than two cones"),
    ]


class TestDualCycleBridge:
    def test_single_cone(self):
        F, desc, vs = sqrt3_fan()
        tf = truncate(desc, 1)
        x0 = F.element([4, 1])
        t = tf.top_cones[0]
        assert sum_via_dual_cycle([t], x0) == cone_term(t, desc.module_basis, x0).value

    def test_twenty_convex_windows(self):
        checked = 0
        for builder in (sqrt3_fan, sqrt2_fan):
            F, desc, vs = builder()
            m = vs.period
            x0 = F.element([4, 1])
            all_tf = truncate(desc, 3)
            by_label = {k: t for t, k in ((t, all_tf.labels[t.key()]) for t in all_tf.top_cones)}
            spans = [(-1, 1), (-2, 2), (-3, 3), (0, 2), (-2, 0), (-3, 1), (-1, 3), (0, 3), (-3, 0), (1, 3)]
            for lo, hi in spans:
                cones = [by_label[k] for k in range(lo * m, hi * m)]
                direct = ScaledRational.rational(0, F.disc_abs)
                for t in cones:
                    direct = direct + cone_term(t, desc.module_basis, x0).value
                bridged = sum_via_dual_cycle(cones, x0)
                assert bridged == direct
                assert tiling_verdict(reference_check_tiling, cones) is None
                checked += 1
        assert checked == 20

    @pytest.mark.parametrize("case", range(5))
    def test_untiled_unions_raise_the_reference_message(self, case):
        cones, message = untiled_cases()[case]
        assert tiling_verdict(reference_check_tiling, cones) == message
        assert tiling_verdict(summation._check_tiling, cones) == message
        with pytest.raises(NotConvexUnion, match=message):
            sum_via_dual_cycle(cones, cones[0].field.element([4, 1, 1][: cones[0].field.degree]))

    def test_wall_inside_a_facet_of_the_union_is_on_its_boundary(self):
        # a simplex cut in two through a ray inside one of its facets: that
        # ray is a generator of the union but not an extreme ray, and the two
        # walls on the split facet lie on the union's boundary
        simplex = colmez_cubic_fan().orbit_cones[0]
        F, (g0, g1, g2) = simplex.field, simplex.extreme_rays
        r = g0 + g1
        halves = [Cone(F, [g0, r, g2]), Cone(F, [r, g1, g2])]
        assert tiling_verdict(summation._check_tiling, halves) is None
        assert tiling_verdict(reference_check_tiling, halves) is None
        x0 = F.element([5, 1, 1])
        assert sum_via_dual_cycle(halves, x0) == sum_via_dual_cycle([simplex], x0)

    def test_top_with_its_halves_is_covered_twice(self):
        # every wall of a Q(sqrt 3) top and its two halves lies on two pieces,
        # but the top and a half meet each of its walls from the same side
        F, desc, _ = sqrt3_fan()
        t = truncate(desc, 1).top_cones[0]
        a, b = t.extreme_rays
        cones = [t, Cone(F, [a, a + b]), Cone(F, [a + b, b])]
        self.assert_covered_twice(cones, "two pieces meet a wall from the same side")

    def test_simplex_with_its_stellar_subdivision_is_covered_twice(self):
        simplex = colmez_cubic_fan().orbit_cones[0]
        F, (e1, e2, e3) = simplex.field, simplex.extreme_rays
        r = e1 + e2 + e3
        cones = [simplex, Cone(F, [r, e1, e2]), Cone(F, [r, e2, e3]), Cone(F, [r, e1, e3])]
        self.assert_covered_twice(cones, "two pieces meet a wall from the same side")

    def test_two_triangulations_sharing_no_wall_are_covered_twice(self):
        # a cubic simplex split through a point of one edge, and again through
        # points of the other two: each wall lies on two pieces from opposite
        # sides or on the union's boundary, and only a point inside sees both
        simplex = colmez_cubic_fan().orbit_cones[0]
        F, (e1, e2, e3) = simplex.field, simplex.extreme_rays
        m, p, q = e1 + e2, e1 + e3, e2 + e3
        cones = [Cone(F, [e1, m, e3]), Cone(F, [m, e2, e3]),
                 Cone(F, [e1, e2, q]), Cone(F, [e1, q, p]), Cone(F, [p, q, e3])]
        self.assert_covered_twice(cones, "a generic point of the union lies in 2 pieces, not one")

    @staticmethod
    def assert_covered_twice(cones, message):
        assert tiling_verdict(reference_check_tiling, cones) is None
        assert tiling_verdict(summation._check_tiling, cones) == message
        with pytest.raises(NotConvexUnion, match=message):
            sum_via_dual_cycle(cones, cones[0].field.element([4, 1, 1][: cones[0].field.degree]))

    @pytest.mark.parametrize("window", [1, 2])
    def test_random_pieces_match_the_reference(self, window):
        # subsets of the tops of the sqrt3 and cubic fans, and the explicit
        # cubic fans with a non-extreme generator, a square and a wall on
        # three tops: the same verdict, message and first offending wall
        F, desc, vs = sqrt3_fan()
        sources = [truncate(desc, window).top_cones, truncate(colmez_cubic_fan(), window).top_cones]
        sources += [truncate(_cubic_explicit(name, 2), 1).top_cones
                    for name in ("interior-generator", "square-plus-simplex", "three-on-a-wall")]
        rng = random.Random(window)
        verdicts = Counter()
        for tops in sources:
            for _ in range(30):
                cones = rng.sample(tops, rng.randint(1, min(6, len(tops))))
                verdicts[tiling_verdict(reference_check_tiling, cones)] += 1
                assert (tiling_verdict(summation._check_tiling, cones)
                        == tiling_verdict(reference_check_tiling, cones))
        assert verdicts[None] and verdicts["unmatched interior wall: union is not tiled"]

    def test_tiling_check_builds_no_cone(self, monkeypatch):
        # the walls come from the pieces' extreme rays and facet rows, with no
        # facet Cone, Cone.facets or Cone.contains
        untiled, _ = untiled_cases()[3]
        tiled = truncate(sqrt3_fan()[1], 2).top_cones
        unions = [Cone(c[0].field, [g for t in c for g in t.generators]) for c in (untiled, tiled)]
        calls = []

        def counted(owner, name):
            f = getattr(owner, name)
            monkeypatch.setattr(owner, name, lambda *a, **k: calls.append(name) or f(*a, **k))

        for name in ("__init__", "facets", "contains"):
            counted(Cone, name)
        counted(summation, "walls")
        with pytest.raises(NotConvexUnion):
            summation._check_tiling(untiled, unions[0])
        summation._check_tiling(tiled, unions[1])
        assert set(calls) == {"walls"}

    def test_non_cycle_rejected(self):
        F = make_field(QUADRATIC)
        chain = Cycle(F, 0, {(): {F.one.proj_key(): 1}})  # boundary 1, not 0
        with pytest.raises(NotACycle):
            evaluate_cycle(chain, F.element([4, 1]))

    def test_non_adjacent_cones_rejected(self):
        F, desc, vs = sqrt3_fan()
        tf = truncate(desc, 2)
        x0 = F.element([4, 1])
        cones = [tf.top_cones[0], tf.top_cones[3]]  # a gap in between
        with pytest.raises(NotConvexUnion):
            sum_via_dual_cycle(cones, x0)


class TestHurwitzArea:
    def test_quadratic_chart_value(self):
        F = make_field(QUADRATIC)
        A = [F.element([1, 0]), F.element([1, 1])]
        x0 = F.element([4, 1])
        area = hurwitz_area(A, x0, samples=20000)
        exact = float(cocycle_value(A, x0))
        assert abs(area - exact) < 1e-6

    def test_norm_reciprocal_region(self):
        # near-orthant region: area approaches 1/N(x0)
        F = make_field(QUADRATIC)
        A = [F.element([1, Fraction(1, 3)]), F.element([1, Fraction(-1, 3)])]
        x0 = F.element([3, 1])
        area = hurwitz_area(A, x0, samples=20000)
        exact = float(cocycle_value(A, x0))
        assert abs(area - exact) < 1e-6

    def test_fifty_cubic_instances(self):
        rng = random.Random(7)
        F = make_field(CUBIC)
        basis = [F.element([1 if i == j else 0 for j in range(3)]) for i in range(3)]
        done = 0
        while done < 50:
            A = []
            for i in range(3):
                wobble = F.element(
                    [Fraction(rng.randint(-2, 2), 7) for _ in range(3)]
                )
                A.append(basis[i] * 3 + wobble)
            x0 = F.element([rng.randint(1, 4), rng.randint(-1, 1), rng.randint(-1, 1)])
            if x0.is_zero():
                continue
            try:
                exact = float(cocycle_value(A, x0))
            except SingularAtX0:
                continue
            # documented instance distribution: moderate values and pairings
            # bounded away from the singular hyperplanes
            if abs(exact) > 10:
                continue
            if any(abs(trace_pairing(x0, a)) < Fraction(1, 2) for a in A):
                continue
            area = hurwitz_area(A, x0, samples=90000)
            assert abs(area - exact) <= 1e-3
            done += 1

    def test_more_samples_reduce_error(self):
        F = make_field(CUBIC)
        A = [
            F.element([3, 0, 0]),
            F.element([0, 3, 0]),
            F.element([Fraction(1, 7), 0, 3]),
        ]
        x0 = F.element([2, 1, 0])
        exact = float(cocycle_value(A, x0))
        coarse = abs(hurwitz_area(A, x0, samples=9) - exact)
        fine = abs(hurwitz_area(A, x0, samples=160000) - exact)
        assert fine < coarse
        assert fine < 1e-12

    @given(poly=st.sampled_from([QUADRATIC, CUBIC, QUARTIC]), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_matches_value_on_separated_pairings(self, poly, data):
        # integer points pair to integers, so nonzero pairings are at least 1;
        # each point is flipped to pair positively, which keeps the value, and
        # the pairings stay within a factor 16 of each other
        F = make_field(poly)
        coords = st.lists(st.integers(-3, 3), min_size=F.degree, max_size=F.degree)
        A = [F.element(data.draw(coords)) for _ in range(F.degree)]
        x0 = F.element(data.draw(coords))
        pairings = [trace_pairing(x0, a) for a in A]
        assume(0 not in pairings and not det_scaled(A).is_zero())
        assume(max(map(abs, pairings)) <= 16 * min(map(abs, pairings)))
        A = [a if p > 0 else -a for a, p in zip(A, pairings)]
        exact = float(cocycle_value(A, x0))
        assert abs(hurwitz_area(A, x0) - exact) < 1e-9

    def test_nodes_are_computed_once_per_count(self, monkeypatch):
        # a memo of the pure node function: one leggauss call per node
        # count, the same area on every call, and arrays no caller can change
        import numpy as np

        calls = []
        leggauss = np.polynomial.legendre.leggauss
        monkeypatch.setattr(np.polynomial.legendre, "leggauss",
                            lambda k: calls.append(k) or leggauss(k))
        summation._unit_gauss_rule.cache_clear()
        F = make_field(CUBIC)
        A = [F.element([3, 0, 0]), F.element([0, 3, 0]), F.element([Fraction(1, 7), 0, 3])]
        x0 = F.element([2, 1, 0])
        areas = [hurwitz_area(A, x0, samples=n) for n in (4096, 4096, 9, 4096)]
        summation._unit_gauss_rule.cache_clear()
        assert calls == [64, 3] and areas[0] == areas[1] == areas[3]
        u, w = summation._unit_gauss_rule(64)
        with pytest.raises(ValueError):
            u[0] = 0.5

    def test_singular_region_rejected(self):
        F = make_field(QUADRATIC)
        A = [F.element([1, 0]), F.element([1, 1])]
        with pytest.raises(SingularAtX0):
            hurwitz_area(A, F.theta * 3, samples=100)  # Tr(3 theta * 1) = 0

    def test_quartic_chart_value(self):
        F = make_field(QUARTIC)
        basis = [F.element([1 if i == j else 0 for j in range(4)]) for i in range(4)]
        A = [
            basis[i] * 3
            + F.element([Fraction(1, 7) if j == (i + 1) % 4 else 0 for j in range(4)])
            for i in range(4)
        ]
        x0 = F.element([2, 1, 0, 0])
        exact = float(cocycle_value(A, x0))
        area = hurwitz_area(A, x0, samples=200000)
        assert abs(area - exact) < 1e-12


class TestConverge:
    def test_sqrt3_singular_point(self):
        # x0 = 3 + sqrt3 lies on a fan ray; target is exactly 1/6
        F, desc, vs = sqrt3_fan()
        x0 = F.element([3, 1])
        rows = converge(desc, x0, 10, 1e-6)
        assert rows[-1].abs_error < 1e-6
        assert rows[-1].window == 6  # frozen from the run oracle
        assert rows[0].target == Fraction(1, 6)
        errors = [r.abs_error for r in rows]
        assert all(a > b for a, b in zip(errors, errors[1:]))

    def test_sqrt2_generic_point(self):
        F, desc, vs = sqrt2_fan()
        x0 = F.element([3, 1])  # 3 + sqrt2, norm 7
        rows = converge(desc, x0, 10, 1e-6)
        assert rows[0].target == Fraction(1, 7)
        assert rows[-1].abs_error < 1e-6
        assert rows[-1].window == 4  # frozen from the run oracle
        errors = [r.abs_error for r in rows]
        assert all(a > b for a, b in zip(errors, errors[1:]))

    def test_refined_fan_same_limit(self):
        # ray-refined fan reproduces the same window sums exactly, hence the
        # same limit well within 1e-8
        F, desc, vs = sqrt3_fan()
        x0 = F.element([3, 1])
        for N in (4, 6):
            tf = truncate(desc, N)
            ray = tf.top_cones[0].interior_point()
            refined = refine_insert_ray(tf, ray)
            a = partial_sum(tf, x0)
            b = partial_sum(refined, x0)
            assert a.value == b.value
            assert abs(a.abs_error - b.abs_error) < 1e-8

    def test_partial_sums_exact_exponent(self):
        F, desc, vs = sqrt3_fan()
        rows = converge(desc, F.element([3, 1]), 3, 0.0)
        for row in rows:
            assert row.value.e == -1


class TestAbsError:
    def test_correctly_rounded_under_cancellation(self):
        # row 13 of converge on Q(sqrt 7) at x0 = 4 - sqrt 7: the error is
        # about 5e-31, of which a 128-bit subtraction keeps only 20 bits
        value = ScaledRational(
            Fraction(6921524866628675854881021986016, 11772407243860061574569575541873),
            -1,
            28,
        )
        target = Fraction(1, 9)
        with mpmath.workprec(3000):
            q = mpmath.mpf(value.q.numerator) / value.q.denominator
            reference = float(abs(q / mpmath.sqrt(28) - mpmath.mpf(1) / 9))
        assert _abs_error(value, target) == reference == 4.746099477841002e-31

    def test_rational_value(self):
        assert _abs_error(ScaledRational.rational(Fraction(1, 3), 12), Fraction(1, 2)) == 1 / 6


def _window_by_window(desc, x0, n_max):
    """Rows of partial_sum over full truncations, or the first error and the
    window it was raised at."""
    rows = []
    for window in range(1, n_max + 1):
        try:
            rows.append(partial_sum(truncate(desc, window), x0))
        except ConesumError as exc:
            return rows, (type(exc), window)
    return rows, None


def _x0_cases(F, vs):
    """A point inside the cone A_0 A_1, a point on the ray A_0 inside window
    1, and points on the rays A_m and A_2m that close the quadratic windows 1
    and 2, whose stars there hold one cone only."""
    return {
        "generic": vs.point(0) * 2 + vs.point(1) * 3,
        "interior-ray": vs.point(0) * 3,
        "edge-ray": vs.point(vs.period),
        "next-edge-ray": vs.point(2 * vs.period),
    }


class TestIncrementalConverge:
    @pytest.mark.parametrize("builder", [sqrt2_fan, sqrt3_fan, sqrt5_fan, sqrt13_fan])
    @pytest.mark.parametrize("kind", ["quadratic-auto", "explicit", "explicit-redundant"])
    def test_matches_full_windows(self, builder, kind):
        F, desc, vs = builder()
        if kind == "explicit":
            desc = explicit_from_auto(desc, vs)
        elif kind == "explicit-redundant":
            # a representative repeated by a translate
            reps = explicit_from_auto(desc, vs).orbit_cones
            desc = FanDescription(
                kind="explicit",
                module_basis=desc.module_basis,
                units=(vs.unit,),
                orbit_cones=reps + (reps[0].mul_unit(vs.unit),),
            )
        n_max = 4 if kind == "quadratic-auto" else 3
        for name, x0 in _x0_cases(F, vs).items():
            expected, error = _window_by_window(desc, x0, n_max)
            if kind == "quadratic-auto" and name.endswith("edge-ray"):
                assert error == (SingularAtX0, 1 if name == "edge-ray" else 2)
            elif kind == "explicit" and name == "next-edge-ray":
                assert error == (SingularAtX0, 1)  # explicit window 1 ends at A_2m
            else:
                assert error is None
            if error is None:
                rows = converge(desc, x0, n_max, 0.0)
                assert [r.window for r in rows] == list(range(1, n_max + 1))
                assert [r.value for r in rows] == [r.value for r in expected], name
                assert [r.value.exact_str() for r in rows] == [
                    r.value.exact_str() for r in expected
                ]
                assert [r.abs_error for r in rows] == [r.abs_error for r in expected]
            else:
                exc_type, window = error
                with pytest.raises(exc_type):
                    converge(desc, x0, window, 0.0)
                # every earlier window still agrees
                if window > 1:
                    rows = converge(desc, x0, window - 1, 0.0)
                    assert [r.value for r in rows] == [r.value for r in expected]

    def test_edge_ray_of_sqrt3_module_is_singular_at_window_one(self):
        F, desc, vs = sqrt3_fan()
        x0 = F.element([2, 1])  # 2 + sqrt3
        assert vs.point(vs.period) == x0
        with pytest.raises(SingularAtX0):
            converge(desc, x0, 3, 0.0)
        with pytest.raises(SingularAtX0):
            partial_sum(truncate(desc, 1), x0)

    def test_two_period_terms_per_window(self, monkeypatch):
        # the walk evaluates exactly the 2m cones that are new to each window
        F, desc, vs = sqrt13_fan()
        calls = []
        original = TermForm.coefficient

        def counted(self, *point):
            if self.e == -1:  # star groups evaluate primal forms, e = 1
                calls.append(point)
            return original(self, *point)

        monkeypatch.setattr(TermForm, "coefficient", counted)
        for n_max in (1, 2, 5, 12):
            calls.clear()
            rows = converge(desc, F.element([4, 1]), n_max, 0.0)
            assert len(rows) == n_max
            assert len(calls) == 2 * vs.period * n_max


# ---------------------------------------------------------------------------
# module coordinates


def sqrt19_fan():
    F = make_field([-19, 0, 1])
    desc, vs = build_quadratic_fan((F.one, F.theta), F.element([170, 39]))
    return F, desc, vs


def cubic_fan():
    """The cones C(1, e1, e1 e2) and C(1, e2, e1 e2) over the totally
    positive units of the cubic field of discriminant 49."""
    F = make_field(CUBIC)
    e1, e2 = F.theta**2, F.element([1, -2, 1])
    reps = (Cone(F, [F.one, e1, e1 * e2]), Cone(F, [F.one, e2, e1 * e2]))
    basis = (F.one, F.theta, F.theta**2)
    desc = FanDescription(kind="explicit", module_basis=basis, units=(e1, e2), orbit_cones=reps)
    return F, desc, None


def quartic_fan():
    """Colmez's cones C(1, e_s1, e_s1 e_s2, e_s1 e_s2 e_s3), s in S_3, over
    the squares e_i = u_i^2 of three independent units of Z[theta] in the
    totally real quartic field of discriminant 725."""
    F = make_field([1, 1, -3, -1, 1])
    units = [F.element([-1, 2, 1, -1]), -F.theta, -F.one - F.theta]
    eps = tuple(u * u for u in units)
    reps = []
    for order in itertools.permutations(range(3)):
        gens = [F.one]
        for i in order:
            gens.append(gens[-1] * eps[i])
        reps.append(Cone(F, gens))
    basis = tuple(F.theta**i for i in range(4))
    desc = FanDescription(kind="explicit", module_basis=basis, units=eps, orbit_cones=tuple(reps))
    return F, desc, None


def oriented_form(frame, t):
    """A top's oriented columns and the TermForm the window sums build on them."""
    cols = frame.oriented(t)
    return cols, TermForm.in_basis(cols, frame.det, frame.field)


def oriented_generators(t, module_basis):
    """Primitive generators of a simplicial top cone, positively ordered, by
    one Fraction solve per ray."""
    prims = [primitive_generator(g, module_basis) for g in t.extreme_rays]
    if len(prims) != t.field.degree:
        raise NotSimplicial("cone term needs a simplicial top cone")
    if det_scaled(prims).q < 0:
        prims[0], prims[1] = prims[1], prims[0]
    return prims


def reference_term(t, module_basis, x0):
    """The oriented primitive generators and the dual coefficient 1 / (det *
    prod of the coordinates of x0 in them), None on a facet span; TermForm
    on the generators agrees."""
    prims = oriented_generators(t, module_basis)
    coords = solve_in_basis(prims, x0)
    expected = None if 0 in coords else 1 / (coord_det(prims) * math.prod(coords))
    assert TermForm(prims).coefficient(x0.num, x0.den) == expected
    return prims, expected


MODULE_FANS = {
    "sqrt2": sqrt2_fan, "sqrt3": sqrt3_fan, "sqrt5": sqrt5_fan, "sqrt13": sqrt13_fan,
    "sqrt19": sqrt19_fan, "cubic": cubic_fan,
}
UNIT_ACTION_FANS = {**MODULE_FANS, "quartic": quartic_fan}


@st.composite
def fan_and_point(draw):
    """A fan and a totally positive point: a nonnegative combination of the
    generators of its representatives over a positive denominator, so it
    often lies on their rays and walls."""
    F, desc, _ = MODULE_FANS[draw(st.sampled_from(sorted(MODULE_FANS)))]()
    gens = [g for rep in desc.orbit_cones for g in rep.generators]
    weights = draw(st.lists(st.integers(0, 4), min_size=len(gens), max_size=len(gens)))
    assume(any(weights))
    x0 = sum((g * w for g, w in zip(gens, weights)), F.zero) / draw(st.integers(1, 9))
    return desc, x0


class TestModuleCoordinates:
    @settings(max_examples=120, deadline=None)
    @given(fan_and_point())
    def test_cone_terms_match_reference(self, case):
        desc, x0 = case
        for rep in desc.orbit_cones:
            prims, expected = reference_term(rep, desc.module_basis, x0)
            if expected is None:
                with pytest.raises(SingularAtX0):
                    cone_term(rep, desc.module_basis, x0)
            else:
                term = cone_term(rep, desc.module_basis, x0)
                assert term.primitive_gens == tuple(prims)
                assert term.value == ScaledRational(expected, -1, x0.field.disc_abs)

    @settings(max_examples=120, deadline=None)
    @given(fan_and_point())
    def test_forms_match_reference(self, case):
        desc, x0 = case
        frame = LatticeFrame(desc.module_basis, desc.units)
        Y, d = frame.coordinates(x0)
        assert frame.point(Y) == x0 * d
        for rep in desc.orbit_cones:
            prims, expected = reference_term(rep, desc.module_basis, x0)
            cols, form = oriented_form(frame, rep)
            assert form.coefficient(Y, d) == expected
            assert [frame.point(c) for c in cols] == prims

    @pytest.mark.parametrize("name", ["sqrt13", "cubic", "quartic"])
    def test_walk_translates_by_unit_powers(self, name):
        # the walked point u^-e x0 and the translator u^e, against field
        # products, at every exponent vector of window 2
        F, desc, _ = UNIT_ACTION_FANS[name]()
        x0 = F.element([7, 1, 2, 1][: F.degree])
        frame = LatticeFrame(desc.module_basis, desc.units)
        Y0, d = frame.coordinates(x0)
        points = frame.walk(Y0)
        powers = UnitPowers(F, desc.units)
        basis = [[int(i == j) for j in range(F.degree)] for i in range(F.degree)]
        for e in window_exponents(desc, 2):
            assert frame.point(points(e)) / d == x0 * powers([-a for a in e])
            images = frame.moved(basis)(e)
            for b, image in zip(desc.module_basis, images):
                assert frame.point(image) == b * powers(e)

    def test_redundant_generator_reads_the_extreme_rays(self):
        F, desc, vs = sqrt3_fan()
        a, b = vs.point(0), vs.point(1)
        x0 = F.element([4, 1])
        term = cone_term(Cone(F, [a, b, a + b]), desc.module_basis, x0)
        assert term.value == cone_term(Cone(F, [a, b]), desc.module_basis, x0).value
        prims = oriented_generators(Cone(F, [a, b]), desc.module_basis)
        assert term.primitive_gens == tuple(prims)

    def test_unit_must_preserve_the_module(self):
        F, desc, vs = sqrt3_fan()
        with pytest.raises(UnitDoesNotPreserveM):
            LatticeFrame(desc.module_basis, (vs.unit / 2,))

    def test_dependent_columns_are_not_simplicial(self):
        F, desc, vs = sqrt3_fan()
        frame = LatticeFrame(desc.module_basis)
        with pytest.raises(NotSimplicial):
            frame.oriented(Cone(F, [vs.point(0), vs.point(0) * -1]))

    def test_empty_cone_is_not_simplicial(self):
        F, desc, _ = sqrt3_fan()
        with pytest.raises(NotSimplicial):
            cone_term(Cone(F, []), desc.module_basis, F.element([7, 1]))

    def test_columns_are_ordered_by_the_sign_of_their_determinant(self):
        # det C has the sign of det B, with B = (1, theta) and (theta, 1)
        F, desc, vs = sqrt3_fan()
        for basis in (desc.module_basis, desc.module_basis[::-1]):
            frame = LatticeFrame(basis)
            for rep in (Cone(F, [vs.point(0), vs.point(1)]), Cone(F, [vs.point(1), vs.point(0)])):
                cols = frame.oriented(rep)
                assert (linalg.det(cols) > 0) == (frame.det > 0)
                assert sorted(cols) == sorted(frame.columns(rep))


class TestUnitAction:
    """A fan's units act on M by integer matrices of determinant N(u) = 1;
    any other action is rejected, with the causes UnitGroupData gives."""

    @pytest.mark.parametrize("name", sorted(UNIT_ACTION_FANS))
    def test_determinant_one_and_primitive_moves(self, name):
        # the quartic fan's three units are SL_4(Z) matrices
        F, desc, _ = UNIT_ACTION_FANS[name]()
        frame = LatticeFrame(desc.module_basis, desc.units)
        n = F.degree
        assert len(frame.units) == len(desc.units)
        for U, inv in frame.units:
            assert len(U) == n and linalg.det(U) == 1
            assert linalg.mat_mul(U, inv) == linalg.identity(n)
        for rep in desc.orbit_cones:
            cols = frame.oriented(rep)
            moves = frame.moved(cols)
            for e in window_exponents(desc, 2):
                moved = moves(e)
                assert all(math.gcd(*c) == 1 for c in moved)
                assert linalg.det(moved) == linalg.det(cols)

    @pytest.mark.parametrize("cause", ["two-eps", "norm-minus-one", "minus-eps"])
    def test_other_actions_are_rejected(self, cause):
        if cause == "two-eps":
            F, desc, vs = sqrt3_fan()
            unit, error = vs.unit * 2, NotAUnit
        elif cause == "minus-eps":  # N(-eps) = 1, but -eps is totally negative
            F, desc, vs = sqrt3_fan()
            unit, error = -vs.unit, NotTotallyPositive
        else:  # 1 + sqrt 2 preserves Z[sqrt 2]
            F, desc, vs = sqrt2_fan()
            unit, error = F.one + F.theta, NotTotallyPositive
        x0 = F.element([7, 1])
        reps = explicit_from_auto(desc, vs).orbit_cones
        fan = FanDescription("explicit", desc.module_basis, (unit,), orbit_cones=reps)
        with pytest.raises(error):
            converge(fan, x0, 2, 0.0)
        with pytest.raises(error):
            truncate(fan, 1)
        with pytest.raises(error):
            partial_sum(TruncatedFan(fan, [((0,), 0), ((1,), 0)], 1), x0)


class TestOneFramePerFan:
    """A description builds its LatticeFrame, the checked unit action and
    the representatives' columns and forms, when first read, and keeps it."""

    @pytest.mark.parametrize("name", ["sqrt3", "cubic"])
    def test_one_frame_per_description(self, name, monkeypatch):
        # one truncation summed at two points, and converge run twice
        F, desc, vs = STAR_FANS[name]()
        points = (F.element([7, 1, 2][: F.degree]), finite_ray_point(F, vs))
        built = count_builds(monkeypatch, (LatticeFrame,))
        tf = truncate(fresh(desc), 3)
        rows = [partial_sum(tf, x0) for x0 in points]
        assert built.count("LatticeFrame") == 1
        built.clear()
        desc = fresh(desc)
        assert [converge(desc, x0, 3, 0.0)[-1] for x0 in points] == rows
        assert built.count("LatticeFrame") == 1
        assert desc.frame is desc.frame

    def test_the_hull_builder_keeps_its_frame(self, monkeypatch):
        # build_quadratic_fan checks its unit on the frame that its
        # description then holds: one frame and one positivity test of the
        # unit, for the fan and a converge on it
        F = make_field(QUADRATIC)
        unit, x0 = fundamental_unit_quadratic(3), F.element([7, 1])
        built = count_builds(monkeypatch, (LatticeFrame,))
        tested, positive = [], fan.is_totally_positive
        monkeypatch.setattr(fan, "is_totally_positive", lambda x: tested.append(x) or positive(x))
        desc, _ = build_quadratic_fan((F.one, F.theta / 3), unit)
        assert len(converge(desc, x0, 3, 0.0)) == 3
        assert built == ["LatticeFrame"] and tested == [unit]

    def test_a_unit_below_one_at_place_two_keeps_its_frame(self, monkeypatch):
        # from 2 - sqrt 3 the builder walks with 2 + sqrt 3: it hands over
        # the frame that checked 2 - sqrt 3, each pair swapped, and that
        # frame holds the matrices of 2 + sqrt 3 and sums as its own frame
        F = make_field(QUADRATIC)
        basis, up, x0 = (F.one, F.theta / 3), fundamental_unit_quadratic(3), F.element([7, 1])
        down = up.inverse()
        want = converge(build_quadratic_fan(basis, up)[0], x0, 3, 0.0)
        own = LatticeFrame(basis, (up,)).units
        built = count_builds(monkeypatch, (LatticeFrame,))
        tested, positive = [], fan.is_totally_positive
        monkeypatch.setattr(fan, "is_totally_positive", lambda x: tested.append(x) or positive(x))
        desc, _ = build_quadratic_fan(basis, down)
        assert desc.units == (up,)
        assert converge(desc, x0, 3, 0.0) == want
        assert built == ["LatticeFrame"] and tested == [down]
        assert [[list(map(tuple, m)) for m in pair] for pair in desc.frame.units] == [
            [list(map(tuple, m)) for m in pair] for pair in own]

    def test_dependent_module_basis_is_not_full_rank(self):
        # (1, 2) spans a line of Q(sqrt 3): a typed error, not a bare
        # ZeroDivisionError from the coordinate rows
        F, desc, vs = sqrt3_fan()
        basis = (F.one, F.one * 2)
        reps = explicit_from_auto(desc, vs).orbit_cones
        line = FanDescription("explicit", basis, (vs.unit,), orbit_cones=reps)
        x0 = F.element([7, 1])
        with pytest.raises(NotFullRank):
            truncate(line, 1)
        with pytest.raises(NotFullRank):
            converge(line, x0, 2, 0.0)
        with pytest.raises(NotFullRank):
            partial_sum(TruncatedFan(line, [((0,), 0)], 1), x0)
        with pytest.raises(NotFullRank):
            cone_term(reps[0], basis, x0)


QUARTIC_ERRORS = {  # abs_error of converge's rows, windows 1 to 3
    (7, 1, 1, 1): ["3.41e-05", "1.47e-06", "1.90e-08"],
    (3, 0, 1, 0): ["1.13e-03", "9.90e-06", "4.67e-08"],
}


@functools.lru_cache(maxsize=None)
def quartic_window(window):
    F, desc, _ = quartic_fan()
    return F, desc, truncate(desc, window)


class TestQuarticFan:
    """Colmez's fan of a degree-4 field: stars of up to three vanishing
    rows, and the direction rule in n = 4."""

    @pytest.mark.parametrize("coords", sorted(QUARTIC_ERRORS))
    def test_converge_matches_partial_sums(self, coords):
        F, desc, _ = quartic_window(1)
        x0 = F.element(coords)
        rows = converge(desc, x0, 3, 0.0)
        assert [f"{r.abs_error:.2e}" for r in rows] == QUARTIC_ERRORS[coords]
        for window in (1, 2):
            row = partial_sum(quartic_window(window)[2], x0)
            assert row.value == rows[window - 1].value
            assert row.value.exact_str() == rows[window - 1].value.exact_str()
            assert row.abs_error == rows[window - 1].abs_error

    def test_stars_at_the_second_point(self):
        # 3 + theta^2 lies on faces of window 1: three stars of 2 tops and one of 6
        F, _, tf = quartic_window(1)
        groups = tf.group_singular_terms(F.element([3, 0, 1, 0]))
        assert sorted(len(g.cones) for g in groups if not g.is_singleton) == [2, 2, 2, 6]

    def test_open_stars_still_raise(self):
        # stars at window boundaries that are open until star closure
        F, desc, _ = quartic_window(1)
        e1 = desc.units[0]
        open_windows = {
            F.element([5, 1, 0, 0]): {1},
            F.element([11, -1, 2, 1]): {1, 2},
            F.one: {1},
            e1: {1, 2, 3},
            F.one + e1: {1, 2},
        }
        for x0, windows in open_windows.items():
            with pytest.raises(SingularAtX0):
                converge(desc, x0, 1, 0.0)
            for window in (1, 2, 3):
                tf = quartic_window(window)[2]
                if window in windows:
                    with pytest.raises(SingularAtX0):
                        partial_sum(tf, x0)
                else:
                    partial_sum(tf, x0)


def reference_surd_float(a, c, disc):
    """The Fraction bracket: both ends of c sqrt(disc) on the 2^-k grid added
    to a as Fractions, k doubled until they round alike."""
    if c == 0:
        return float(a)
    square, den2 = c.numerator**2 * disc, c.denominator**2
    k = 64
    while True:
        scaled = square << 2 * k
        root = math.isqrt(scaled // den2)
        on_grid = root * root * den2 == scaled
        lo, hi = Fraction(root, 1 << k), Fraction(root + (not on_grid), 1 << k)
        if c < 0:
            lo, hi = -hi, -lo
        if float(a + lo) == float(a + hi):
            return float(a + lo)
        k *= 2


fractions = st.builds(
    Fraction, st.integers(-(10**40), 10**40), st.integers(1, 10**40)
)


@st.composite
def surd_cases(draw):
    """(a, c, disc), a square disc a fifth of the time, and a near -c
    sqrt(disc) half of the time, off by a Fraction as small as 2^-200."""
    disc = draw(st.integers(1, 10**6))
    if draw(st.integers(0, 4)) == 0:
        disc = disc * disc
    c = draw(fractions)
    a = draw(fractions)
    if c and draw(st.booleans()):
        k = draw(st.integers(1, 200))
        root = math.isqrt((c.numerator**2 * disc << 2 * k) // c.denominator**2)
        a = Fraction(-root if c > 0 else root, 1 << k) + a / (1 << draw(st.integers(0, 200)))
    return a, c, disc


class TestSurdFloat:
    @settings(max_examples=400, deadline=None)
    @given(surd_cases())
    def test_matches_fraction_bracket(self, case):
        a, c, disc = case
        assert surd_float(a, c, disc) == reference_surd_float(a, c, disc)


class TestConvergeCounts:
    @pytest.mark.parametrize(
        "fan_of, coords", [(sqrt13_fan, [4, 1]), (sqrt19_fan, [7, Fraction(1, 3)])]
    )
    def test_no_solves_and_constant_field_products(self, fan_of, coords, monkeypatch):
        F, desc, vs = fan_of()
        x0 = F.element(coords)
        counts = Counter()

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        for name, owner in (("_multiply", TotallyRealField), ("_invert", TotallyRealField)):
            monkeypatch.setattr(owner, name, counted(name, getattr(owner, name)))
        for module in [m for k, m in sys.modules.items() if k.startswith("conesum.")]:
            for name in ("primitive_generator", "solve_in_basis"):
                if getattr(module, name, None) is getattr(geometry, name):
                    monkeypatch.setattr(module, name, counted(name, getattr(geometry, name)))
        products = []
        for n_max in (2, 8):
            counts.clear()
            rows = converge(fresh(desc), x0, n_max, 0.0)
            assert len(rows) == n_max
            assert counts["primitive_generator"] == counts["solve_in_basis"] == 0
            products.append((counts["_multiply"], counts["_invert"]))
        assert products[0] == products[1]
        # a second call on the same description builds no frame: no unit
        # matrix, whose products u b are one per basis vector, and no
        # representative's form; only the singular tops' forms again
        kept, built = fresh(desc), frame_builds(monkeypatch)
        converge(kept, x0, 8, 0.0)
        first = built.count("adjugate")
        built.clear()
        counts.clear()
        assert len(converge(kept, x0, 8, 0.0)) == 8
        assert "LatticeFrame" not in built
        assert built.count("adjugate") == first - 1 - len(desc.units) - len(desc.orbit_cones)
        multiplies, inverses = products[1]
        assert (counts["_multiply"], counts["_invert"]) == (multiplies - F.degree, inverses)

    def test_module_walk_is_linear_in_the_window(self, monkeypatch):
        # converge walks u^-e x0 and the translated columns of each
        # representative by one mat_vec per vector and new exponent vector,
        # so the calls beyond the set-up per exponent vector do not grow with
        # the window on the rank-two cubic fan
        F, desc, _ = cubic_fan()
        x0 = F.element([5, 1, 1])
        calls = []
        original = linalg.mat_vec

        def counted(a, v):
            calls.append(1)
            return original(a, v)

        monkeypatch.setattr(linalg, "mat_vec", counted)
        converge(fresh(desc), x0, 0, 0.0)
        setup = len(calls)
        per_vector = []
        for n_max in (2, 5):
            calls.clear()
            assert len(converge(fresh(desc), x0, n_max, 0.0)) == n_max
            walked = {e for w in range(1, n_max + 1) for e in window_exponents(desc, w)}
            per_vector.append(Fraction(len(calls) - setup, len(walked) - 1))
        assert per_vector[0] == per_vector[1]
        # a second call on the same description builds no frame, no unit
        # matrix and no representative's columns or form, and its moved
        # columns are kept: it reads x0's coordinates and walks them, one
        # mat_vec per new exponent vector
        built = frame_builds(monkeypatch)
        converge(desc, x0, 5, 0.0)
        assert built == ["LatticeFrame"] + ["adjugate"] * (
            1 + len(desc.units) + len(desc.orbit_cones))
        built.clear()
        calls.clear()
        converge(desc, x0, 5, 0.0)
        assert built == []
        assert len(calls) == len(walked) and per_vector[1] > 1


# ---------------------------------------------------------------------------
# the cocycle value on star cycles


def coned_from(z, base):
    """The decomposition of z coned from base, as decompose_cycle(z, base)
    gave it before the base parameter went: the canonical decompositions of
    the components at each top subspace, coned from base, or in degree 0
    the pairs (p, base) over the points p other than base."""
    if z.degree == 0:
        (leaf,) = z.data.values()
        key = base.proj_key()
        return [(w, (z.field.element(p), base)) for p, w in sorted(leaf.items()) if p != key]
    groups = {}
    for flag, leaf in z.data.items():
        groups.setdefault(flag[-1], {})[flag[:-1]] = leaf
    return [
        (coef, (base,) + pts)
        for top in sorted(groups)
        for coef, pts in decompose_cycle(Cycle(z.field, z.degree - 1, groups[top]))
    ]


def reference_evaluate_cycle(z, x0):
    """The base search evaluate_cycle ran before it was one canonical
    decomposition: the canonical base, then each point of the cycle in
    sorted order, re-raising the last SingularAtX0."""
    if not is_cycle(z):
        raise NotACycle("the cocycle value extends to cycles only")
    field = z.field
    zero = ScaledRational.rational(0, field.disc_abs)
    last_error = None
    for base in [None] + [field.element(p) for p in sorted(z.points())]:
        try:
            total = zero
            for coef, pts in decompose_cycle(z) if base is None else coned_from(z, base):
                total = total + cocycle_value(pts, x0) * coef
            return total
        except SingularAtX0 as exc:
            last_error = exc
    raise last_error


def first_singular_message(z, x0):
    """The SingularAtX0 message of the first simplex of the canonical
    decomposition of z whose cocycle value at x0 is singular."""
    for _, pts in decompose_cycle(z):
        try:
            cocycle_value(pts, x0)
        except SingularAtX0 as exc:
            return str(exc)
    return None


STAR_FANS = {"sqrt2": sqrt2_fan, "sqrt3": sqrt3_fan, "sqrt13": sqrt13_fan, "cubic": cubic_fan}


@functools.lru_cache(maxsize=None)
def star_window(name, window):
    F, desc, vs = STAR_FANS[name]()
    return F, truncate(desc, window), vs


def star_cycle(cones):
    """The dual of the summed boundary cycles of the cones."""
    boundaries = [boundary_cycle(ProjPolyhedron(t, check=False)) for t in cones]
    return dual_cycle(sum(boundaries[1:], boundaries[0]))


def star_cycles(tf, x0):
    """The star cycle of each star group at x0, the cycle whose value
    stars_value reads off the tops' dual simplices."""
    return [star_cycle(g.cones) for g in tf.group_singular_terms(x0) if not g.is_singleton]


def outcome(evaluate, z, x0):
    try:
        value = evaluate(z, x0)
    except SingularAtX0 as exc:
        return "SingularAtX0", str(exc)
    return value, value.exact_str()


@st.composite
def star_cases(draw, fans=tuple(sorted(STAR_FANS))):
    """A window of one of the fans, a ray or wall of one of its tops, and a
    point in that face's relative interior."""
    F, tf, _ = star_window(draw(st.sampled_from(fans)), draw(st.sampled_from([1, 2])))
    rays = draw(st.sampled_from(tf.top_cones)).extreme_rays
    face = draw(st.lists(st.sampled_from(rays), min_size=1, max_size=F.degree - 1, unique=True))
    weights = draw(st.lists(st.integers(1, 4), min_size=len(face), max_size=len(face)))
    return tf, sum((r * w for r, w in zip(face, weights)), F.zero)


def canonical_outcome(z, x0):
    """The reference outcome, except that a singular cycle names the first
    vanishing pairing of its canonical decomposition, not of the last base
    the search tried."""
    expected = outcome(reference_evaluate_cycle, z, x0)
    if expected[0] == "SingularAtX0":
        return "SingularAtX0", first_singular_message(z, x0)
    return expected


class TestEvaluateCycle:
    @settings(max_examples=60, deadline=None)
    @given(star_cases())
    def test_matches_the_base_search(self, case):
        tf, x0 = case
        cycles = star_cycles(tf, x0)
        assert cycles
        for z in cycles:
            assert outcome(evaluate_cycle, z, x0) == canonical_outcome(z, x0)

    def test_singular_canonical_base(self):
        # the star of three cubic tops around a ray on the edge of window 1:
        # the canonical decomposition is singular, and so is every other base
        F, tf, _ = star_window("cubic", 1)
        x0 = tf.top_cones[0].extreme_rays[0]
        (z,) = star_cycles(tf, x0)
        with pytest.raises(SingularAtX0):
            for coef, pts in decompose_cycle(z):
                cocycle_value(pts, x0)
        assert outcome(reference_evaluate_cycle, z, x0)[0] == "SingularAtX0"
        assert outcome(evaluate_cycle, z, x0) == canonical_outcome(z, x0)

    def test_one_decomposition(self, monkeypatch):
        # a singular canonical decomposition is not tried again from other bases
        F, tf, _ = star_window("cubic", 1)
        x0 = tf.top_cones[0].extreme_rays[0]
        (z,) = star_cycles(tf, x0)
        calls = []
        original = summation.cocycle_value

        def counted(pts, x):
            calls.append(1)
            return original(pts, x)

        monkeypatch.setattr(summation, "cocycle_value", counted)
        with pytest.raises(SingularAtX0):
            evaluate_cycle(z, x0)
        assert 0 < len(calls) <= len(decompose_cycle(z))

    def test_first_vanishing_pairing_of_the_canonical_decomposition(self):
        # a cubic star whose last base named another pairing than the first
        # singular simplex of the canonical decomposition does
        F, tf, _ = star_window("cubic", 1)
        x0 = tf.top_cones[0].extreme_rays[2]
        (z,) = star_cycles(tf, x0)
        assert outcome(reference_evaluate_cycle, z, x0) == (
            "SingularAtX0",
            "pairing with FieldElement(Fraction(1, 1), Fraction(5, 1), Fraction(-3, 1)) "
            "vanishes at the evaluation point",
        )
        assert outcome(evaluate_cycle, z, x0) == (
            "SingularAtX0",
            "pairing with FieldElement(Fraction(1, 1), Fraction(-7, 2), Fraction(3, 2)) "
            "vanishes at the evaluation point",
        )

    def test_edge_ray_message(self):
        F, tf, vs = star_window("sqrt3", 1)
        x0 = vs.point(vs.period)
        (z,) = star_cycles(tf, x0)
        expected = outcome(reference_evaluate_cycle, z, x0)
        assert expected == (
            "SingularAtX0",
            "pairing with FieldElement(Fraction(1, 1), Fraction(-2, 3)) vanishes at the "
            "evaluation point",
        )
        assert outcome(evaluate_cycle, z, x0) == expected


def signed_dual_simplex(gens):
    """The dual simplex of a simplicial top's generators, negated when they
    are negatively ordered."""
    z = dual_point_function(gens[0].field).evaluate(tuple(gens))
    return z if coord_det(gens) > 0 else -z


@st.composite
def simplicial_cones(draw):
    """Degree-many independent small integer points of a field of degree
    2, 3 or 4, in either orientation."""
    F = make_field(draw(st.sampled_from([QUADRATIC, CUBIC, QUARTIC])))
    coords = st.lists(st.integers(-3, 3), min_size=F.degree, max_size=F.degree)
    gens = [F.element(c) for c in draw(st.lists(coords, min_size=F.degree, max_size=F.degree))]
    assume(coord_det(gens) != 0)
    return Cone(F, gens)


class TestStarFromDualSimplices:
    """A simplicial top's dual boundary cycle is its signed dual simplex, so
    a star's value needs neither boundary cycles nor a second extension."""

    def test_tops_of_star_fans(self):
        checked = 0
        for name in sorted(STAR_FANS):
            for window in (1, 2):
                _, tf, _ = star_window(name, window)
                for t in tf.top_cones:
                    z = dual_cycle(boundary_cycle(ProjPolyhedron(t, check=False)))
                    assert z == signed_dual_simplex(t.generators)
                    checked += 1
        assert checked >= 100

    @settings(max_examples=40, deadline=None)
    @given(simplicial_cones())
    def test_simplicial_cones(self, t):
        z = dual_cycle(boundary_cycle(ProjPolyhedron(t, check=False)))
        assert z == signed_dual_simplex(t.generators)

    @settings(max_examples=60, deadline=None)
    @given(star_cases())
    def test_star_value_matches_the_summed_dual_boundary_cycle(self, case):
        tf, x0 = case
        stars = [g for g in tf.group_singular_terms(x0) if not g.is_singleton]
        cycles = star_cycles(tf, x0)
        assert len(stars) == len(cycles) > 0
        frame = LatticeFrame(tf.description.module_basis)
        Y, _ = frame.coordinates(x0)

        def value(group, x):
            # stars_value's c of c/sqrt(D), in the cycle value's form q sqrt(D)
            tops = [oriented_form(frame, t) for t in group.cones]
            singular = [(summation.carrier(cols, form, Y), cols, form) for cols, form in tops]
            disc = x.field.disc_abs
            return ScaledRational(summation.stars_value(singular, frame, x) / disc, 1, disc)

        for group, z in zip(stars, cycles):
            got, want = outcome(value, group, x0), outcome(evaluate_cycle, z, x0)
            # an open star's message is pinned by TestOpenStarMessage
            assert got == want or got[0] == want[0] == "SingularAtX0"


def laurent_stars(tf, x0):
    """x0's module coordinates (Y, d) and, for each star group at x0, its
    tops' oriented TermForms, their rows that vanish at x0, and its star
    cycle."""
    frame = LatticeFrame(tf.description.module_basis)
    Y, d = frame.coordinates(x0)
    stars = []
    for g in tf.group_singular_terms(x0):
        if not g.is_singleton:
            forms = [oriented_form(frame, t)[1] for t in g.cones]
            vanishing = [row for form in forms for row in form.rows
                         if not sum(a * b for a, b in zip(row, Y))]
            stars.append((forms, vanishing, star_cycle(g.cones)))
    return Y, d, stars


def laurent_outcome(forms, Y, d, V, disc):
    c = summation.star_constant_term(forms, Y, d, V)
    return "pole" if c is None else ScaledRational(c, -1, disc)


def cycle_outcome(z, x0):
    """The value of the star cycle at x0, or "pole" where it raises."""
    kind, _ = outcome(evaluate_cycle, z, x0)
    return "pole" if kind == "SingularAtX0" else kind


class TestLaurentStarValue:
    """A star's value is the constant term of its tops' summed terms at
    x0 + eps v, with the cycle value as the reference: equal where the cycle
    is finite, a surviving negative power exactly where it raises."""

    @settings(max_examples=60, deadline=None)
    @given(star_cases())
    def test_matches_the_cycle_value(self, case):
        tf, x0 = case
        Y, d, stars = laurent_stars(tf, x0)
        assert stars
        for forms, vanishing, z in stars:
            V = summation._direction(vanishing, len(Y))
            assert laurent_outcome(forms, Y, d, V, x0.field.disc_abs) == cycle_outcome(z, x0)

    def test_cubic_rays(self):
        # m = 2: the stars around the rays of the cubic fan's windows 1 and 2
        seen = Counter()
        for window in (1, 2):
            F, tf, _ = star_window("cubic", window)
            for x0 in ray_points(tf):
                Y, d, stars = laurent_stars(tf, x0)
                for forms, vanishing, z in stars:
                    V = summation._direction(vanishing, len(Y))
                    got = laurent_outcome(forms, Y, d, V, F.disc_abs)
                    assert got == cycle_outcome(z, x0)
                    seen[len(vanishing) // len(forms), got == "pole"] += 1
        assert seen[2, True] > 0 and seen[2, False] > 0

    @settings(max_examples=40, deadline=None)
    @given(star_cases(), st.data())
    def test_same_value_in_every_direction(self, case, data):
        tf, x0 = case
        Y, d, stars = laurent_stars(tf, x0)
        entries = st.lists(st.integers(-10**6, 10**6), min_size=len(Y), max_size=len(Y))
        directions = data.draw(st.lists(entries, min_size=3, max_size=3))
        for forms, vanishing, _ in stars:
            for V in directions:
                assume(all(sum(a * b for a, b in zip(row, V)) for row in vanishing))
            values = {laurent_outcome(forms, Y, d, V, x0.field.disc_abs)
                      for V in directions + [summation._direction(vanishing, len(Y))]}
            assert len(values) == 1

    def test_direction_is_the_first_off_the_rows(self):
        # (1, k) for k = 1, 2, ...: the rows (1, -1) and (2, -1) vanish at k = 1 and 2
        assert summation._direction([(1, -1), (2, -1), (0, 5)], 2) == (1, 3)
        assert summation._direction([], 3) == (1, 1, 1)


def ray_points(tf):
    """The rays of the tops of the window."""
    return list({g.ray_key(): g for t in tf.top_cones for g in t.extreme_rays}.values())


def reference_open_stars(tf, x0):
    """The top cones of each open star at x0 in the order of the claim
    loop: the stars whose star cycle raises SingularAtX0."""
    by_key = {t.key(): t for t in tf.top_cones}
    stars = [[by_key[k] for k in members]
             for sigma, members in reference_groups(tf, x0) if sigma is not None]
    return [tops for tops in stars if canonical_outcome(star_cycle(tops), x0)[0] == "SingularAtX0"]


def trace_dual_points(t):
    """The rays of a top in ray-key order, each with the trace-dual point
    opposite it, the one that pairs to zero with the other rays."""
    rays = sorted(t.extreme_rays, key=lambda r: r.ray_key())
    return list(zip(rays, dual_basis(rays)))


def pairing_message(a):
    return f"pairing with {a.field.element(a.proj_key())} vanishes at the evaluation point"


def open_star_message(tops, x0):
    """The SingularAtX0 message of an open star: on its first top, by the
    sorted ray keys of the rays, the trace-dual point opposite the first
    ray in ray-key order whose pairing with x0 vanishes."""
    first = min(tops, key=lambda t: sorted(r.ray_key() for r in t.extreme_rays))
    return pairing_message(
        next(b for _, b in trace_dual_points(first) if trace_pairing(x0, b) == 0))


def singular_message(fn, *args):
    with pytest.raises(SingularAtX0) as exc:
        fn(*args)
    return str(exc.value)


def finite_ray_point(F, vs):
    """A ray point of window 1 whose stars are finite, so every window runs."""
    return F.element([7, -1, 2]) if vs is None else vs.point(1) * 3


CYCLE_CODE = (
    (cycles, "dual_point_function"), (cycles, "orthogonal_point"), (cycles, "decompose_cycle"),
    (cycles, "cpd_extend"), (summation, "orthogonal_point"), (summation, "evaluate_cycle"),
    (summation, "cpd_extend"),
)


def count_calls(monkeypatch, calls, targets):
    """Record in calls the name of each call to the (module, name) targets."""
    for module, name in targets:
        def counted(*args, _name=name, _fn=getattr(module, name)):
            calls.append(_name)
            return _fn(*args)

        monkeypatch.setattr(module, name, counted)


def frame_builds(monkeypatch):
    """A list that records each LatticeFrame built and each integer adjugate:
    the module's coordinate rows, a unit's inverse and a TermForm."""
    calls = count_builds(monkeypatch, (LatticeFrame,))
    count_calls(monkeypatch, calls, [(linalg, "adjugate")])
    return calls


def count_builds(monkeypatch, classes):
    """A list that records each construction of the classes, and each Cone
    made by Cone._canonical."""
    built = []
    for cls in classes:
        def counted(self, *args, _init=cls.__init__, **kwargs):
            built.append(type(self).__name__)
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counted)
    canonical = Cone._canonical.__func__
    monkeypatch.setattr(Cone, "_canonical", classmethod(
        lambda cls, *args: built.append("Cone") or canonical(cls, *args)
    ))
    return built


class TestOneSingularPath:
    """partial_sum and converge read carriers off the rows of the tops'
    TermForms and share one grouping and valuation of the stars."""

    def test_rows_pair_with_their_columns(self):
        # adj(C) C = det(C) I: row i of an oriented form meets column i alone
        checked = 0
        for name in sorted(STAR_FANS):
            for window in (1, 2):
                _, tf, _ = star_window(name, window)
                frame = LatticeFrame(tf.description.module_basis)
                for t in tf.top_cones:
                    cols, form = oriented_form(frame, t)
                    for i, row in enumerate(form.rows):
                        for j, c in enumerate(cols):
                            assert (sum(a * b for a, b in zip(row, c)) != 0) == (i == j)
                    checked += 1
        assert checked >= 100

    @pytest.mark.parametrize("name", ["sqrt3", "sqrt13", "cubic"])
    def test_ray_point_builds_no_cone(self, name, monkeypatch):
        F, desc, vs = STAR_FANS[name]()
        x0 = finite_ray_point(F, vs)
        assert any(not g.is_singleton for g in truncate(desc, 2).group_singular_terms(x0))
        built = count_builds(monkeypatch, (Cone, TruncatedFan))
        rows = converge(desc, x0, 3, 0.0)
        assert len(rows) == 3
        assert built == []

    @pytest.mark.parametrize("name", ["sqrt3", "sqrt13", "cubic"])
    def test_finite_stars_run_no_cycle_code(self, name, monkeypatch):
        # the stars' values are Laurent constant terms: no dual points, no
        # cycle evaluation and no Cone, at a ray and (cubic) a wall point
        F, desc, vs = STAR_FANS[name]()
        points = [finite_ray_point(F, vs)] + ([F.element([0, 1, 2])] if vs is None else [])
        truncations = [truncate(desc, window) for window in (1, 2, 3)]
        for x0 in points:
            assert any(not g.is_singleton for g in truncations[1].group_singular_terms(x0))
        calls = count_builds(monkeypatch, (Cone,))
        count_calls(monkeypatch, calls, CYCLE_CODE)
        for x0 in points:
            assert len(converge(desc, x0, 3, 0.0)) == 3
            for tf in truncations:
                partial_sum(tf, x0)
        assert calls == []

    @pytest.mark.parametrize("name", ["sqrt3", "cubic"])
    def test_open_stars_run_no_cycle_code(self, name, monkeypatch):
        # an open star is named by one trace-dual point: no cycle, no Cone;
        # at 2 + sqrt 3 and at a ray on the edge of the cubic window 1
        F, desc, vs = STAR_FANS[name]()
        x0 = F.element([2, 1]) if vs else truncate(desc, 1).top_cones[0].extreme_rays[0]
        calls = count_builds(monkeypatch, (Cone,))
        count_calls(monkeypatch, calls, CYCLE_CODE)
        with pytest.raises(SingularAtX0):
            converge(desc, x0, 3, 0.0)
        assert calls == ["orthogonal_point"]

    def test_one_adjugate_per_singular_top(self, monkeypatch):
        # partial_sum and converge build a singular translate's form once,
        # besides one per representative and unit, and each reads the
        # module frame's coordinate rows once, on a fresh description; a
        # second call builds only the singular translates' forms
        F, desc, _ = sqrt3_fan()
        tf = truncate(desc, 6)
        x0 = tf.top_cones[3].extreme_rays[0] * 3
        assert any(not g.is_singleton for g in tf.group_singular_terms(x0))
        _, cubic, _ = cubic_fan()
        wall = cubic.field.element([0, 1, 2])
        singular = sum(len(g.cones) for g in truncate(cubic, 5).group_singular_terms(wall)
                       if not g.is_singleton)
        starred = sum(len(g.cones) for g in tf.group_singular_terms(x0) if not g.is_singleton)
        tf, cubic = TruncatedFan(fresh(desc), tf.pairs, tf.window), fresh(cubic)
        calls = frame_builds(monkeypatch)
        partial_sum(tf, x0)
        assert calls.count("LatticeFrame") == 1
        frame = 1 + len(desc.units) + len(desc.orbit_cones)
        assert calls.count("adjugate") == frame + starred == 6
        calls.clear()
        partial_sum(tf, x0)  # the frame and its forms are kept
        assert calls == ["adjugate"] * starred
        calls.clear()
        assert len(converge(cubic, wall, 5, 0.0)) == 5
        assert singular == 6
        assert calls.count("LatticeFrame") == 1
        assert calls.count("adjugate") == 1 + len(cubic.units) + len(cubic.orbit_cones) + singular
        calls.clear()
        assert len(converge(cubic, wall, 5, 0.0)) == 5
        assert calls == ["adjugate"] * singular

    @pytest.mark.parametrize("name", ["sqrt3", "sqrt13", "cubic"])
    def test_window_sum_builds_no_cone(self, name, monkeypatch):
        # truncate lists pairs and partial_sum walks them: no Cone, and no
        # adjugate per top; an explicit truncation builds the description's
        # frame, the module's rows and the units, to dedupe its translates,
        # and partial_sum adds the representatives' forms
        F, desc, vs = STAR_FANS[name]()
        x0 = finite_ray_point(F, vs)
        starred = sum(len(g.cones) for g in truncate(desc, 2).group_singular_terms(x0)
                      if not g.is_singleton)
        assert starred
        desc = fresh(desc)
        calls = count_builds(monkeypatch, (Cone, LatticeFrame))
        count_calls(monkeypatch, calls, [(linalg, "adjugate")])
        frame = ["LatticeFrame"] + ["adjugate"] * (1 + len(desc.units))
        tf = truncate(desc, 2)
        assert calls == ([] if vs else frame)
        calls.clear()
        partial_sum(tf, x0)
        assert calls == (frame if vs else []) + ["adjugate"] * (len(desc.orbit_cones) + starred)
        calls.clear()
        partial_sum(tf, x0)  # the frame and its forms are kept
        assert calls == ["adjugate"] * starred

    def test_first_open_star_names_the_error(self):
        # where two stars are open, the first in the claim loop's order names
        # the error, in partial_sum and at the first open window of converge,
        # by the trace-dual point that open_star_message picks
        _, desc, _ = cubic_fan()
        checked = 0
        for window in (1, 2):
            _, tf, _ = star_window("cubic", window)
            for x0 in ray_points(tf):
                if sum(not g.is_singleton for g in tf.group_singular_terms(x0)) < 2:
                    continue
                opened = reference_open_stars(tf, x0)
                if len(opened) < 2:
                    continue
                assert singular_message(partial_sum, tf, x0) == open_star_message(opened[0], x0)
                earlier = [reference_open_stars(star_window("cubic", w)[1], x0)
                           for w in range(1, window)]
                first = next(stars for stars in earlier + [opened] if stars)[0]
                assert singular_message(converge, desc, x0, window, 0.0) == open_star_message(
                    first, x0)
                checked += 1
        assert checked >= 3


class TestOneValueForm:
    """A window's value is the rational c of c/sqrt(D) from its terms to its
    row: stars join the regular sum as c, and each row is one ScaledRational."""

    CASES = {
        "sqrt3.generic": (sqrt3_fan, lambda F, vs: F.element([7, 1])),
        "sqrt3.ray": (sqrt3_fan, lambda F, vs: F.element([3, 1])),
        "cubic.ray": (cubic_fan, finite_ray_point),
        "cubic.wall": (cubic_fan, lambda F, vs: F.element([0, 1, 2])),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_one_scaled_rational_per_row(self, case, monkeypatch):
        make_fan, point = self.CASES[case]
        F, desc, vs = make_fan()
        x0 = point(F, vs)
        tf = truncate(desc, 3)
        assert any(not g.is_singleton for g in tf.group_singular_terms(x0)) == (
            case != "sqrt3.generic")
        built = count_builds(monkeypatch, (ScaledRational,))
        rows = converge(desc, x0, 3, 0.0)
        assert len(rows) == 3
        assert built == ["ScaledRational"] * 3
        built.clear()
        assert partial_sum(tf, x0) == rows[-1]
        assert built == ["ScaledRational"]

    def test_stars_value_is_the_rational_c(self):
        F, tf, _ = star_window("sqrt3", 2)
        x0 = F.element([3, 1])
        terms = summation.WindowSum(tf.description, x0)
        terms.add(sorted(tf.pairs))
        c = summation.stars_value(terms.singular, terms.frame, x0)
        assert type(c) is Fraction
        row = partial_sum(tf, x0)
        assert row.value == ScaledRational(terms.regular + c, -1, F.disc_abs)


class TestOpenStarMessage:
    """An open star raises SingularAtX0 naming a trace-dual point of one of
    its tops that pairs to zero with x0; in degree 2 that point is unique up
    to scale, so the message is the star cycle's."""

    @settings(max_examples=60, deadline=None)
    @given(star_cases(fans=("sqrt13", "sqrt2", "sqrt3")))
    def test_quadratic_message_is_the_cycle_message(self, case):
        tf, x0 = case
        outcomes = [canonical_outcome(z, x0) for z in star_cycles(tf, x0)]
        opened = [message for kind, message in outcomes if kind == "SingularAtX0"]
        if opened:
            assert singular_message(partial_sum, tf, x0) == opened[0]
        else:
            partial_sum(tf, x0)

    @settings(max_examples=60, deadline=None)
    @given(star_cases())
    def test_named_point_pairs_to_zero(self, case):
        tf, x0 = case
        opened = reference_open_stars(tf, x0)
        if not opened:
            partial_sum(tf, x0)
            return
        named = {pairing_message(b): b for t in opened[0] for _, b in trace_dual_points(t)}
        a = named[singular_message(partial_sum, tf, x0)]
        assert trace_pairing(x0, a) == 0

    def test_cubic_star_names_another_point_than_its_cycle(self):
        # the star of test_first_vanishing_pairing_of_the_canonical_decomposition:
        # its cycle names (1, -7/2, 3/2), its first top the point (1, 5, -3)
        F, tf, _ = star_window("cubic", 1)
        x0 = tf.top_cones[0].extreme_rays[2]
        (z,) = star_cycles(tf, x0)
        cycle_point = F.element([1, Fraction(-7, 2), Fraction(3, 2)])
        star_point = F.element([1, 5, -3])
        assert outcome(evaluate_cycle, z, x0) == ("SingularAtX0", pairing_message(cycle_point))
        assert singular_message(partial_sum, tf, x0) == pairing_message(star_point)
        assert trace_pairing(x0, cycle_point) == trace_pairing(x0, star_point) == 0
