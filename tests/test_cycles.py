import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conesum import cycles, linalg, summation
from conesum.errors import (
    DegreeMismatch,
    DependentTuple,
    MixedExponents,
    NotACycle,
    NotTopDegree,
)
from conesum.field import make_field, trace_pairing
from conesum.geometry import LinearSubspace, ProjPolyhedron
from conesum.cycles import (
    CPDFunction,
    Cycle,
    boundary,
    boundary_cycle,
    cpd_extend,
    decompose_cycle,
    dual_cycle,
    dual_point_function,
    duality_check,
    is_cycle,
    orthogonal_point,
    simplex_cycle,
)

QUADRATIC = [-3, 0, 1]
CUBIC = [1, -2, -1, 1]
QUARTIC = [1, 1, -4, 0, 1]


def rand_point(F, rng, span=4):
    while True:
        coords = [rng.randint(-span, span) for _ in range(F.degree)]
        if any(coords):
            return F.element(coords)


def rand_cycle(F, rng, terms=3):
    """Random integer combination of simplices: a cycle by construction."""
    g = F.degree - 2
    z = Cycle.zero(F, g)
    for _ in range(terms):
        pts = [rand_point(F, rng) for _ in range(F.degree)]
        z = z + simplex_cycle(F, pts) * rng.choice([-2, -1, 1, 2])
    return z


class TestSimplexCycle:
    def test_two_point_leaf(self):
        F = make_field(QUADRATIC)
        a, b = F.element([1, 0]), F.element([1, 1])
        z = simplex_cycle(F, [a, b])
        assert z.data == {(): {a.proj_key(): 1, b.proj_key(): -1}}

    def test_simplex_spec_input(self):
        from conesum.cycles import SimplexSpec

        F = make_field(QUADRATIC)
        a, b = F.element([1, 0]), F.element([1, 1])
        assert simplex_cycle(F, SimplexSpec((a, b))) == simplex_cycle(F, [a, b])

    def test_dependent_points_give_zero(self):
        F = make_field(CUBIC)
        a = F.element([1, 1, 0])
        z = simplex_cycle(F, [a, a * 2, F.element([0, 0, 1])])
        assert z.is_zero()

    def test_swap_negates(self):
        rng = random.Random(2)
        F = make_field(CUBIC)
        for _ in range(10):
            pts = [rand_point(F, rng) for _ in range(3)]
            swapped = [pts[1], pts[0], pts[2]]
            assert simplex_cycle(F, swapped) == -simplex_cycle(F, pts)

    def test_permutation_sign(self):
        rng = random.Random(3)
        F = make_field(QUARTIC)
        pts = [rand_point(F, rng) for _ in range(4)]
        base = simplex_cycle(F, pts)
        for perm in itertools.permutations(range(4)):
            sign = _perm_sign(perm)
            assert simplex_cycle(F, [pts[i] for i in perm]) == base * sign

    def test_projective_scaling_invariance(self):
        F = make_field(CUBIC)
        pts = [F.element([1, 0, 0]), F.element([0, 2, 0]), F.element([1, 1, 3])]
        scaled = [p * Fraction(7, 3) for p in pts]
        assert simplex_cycle(F, pts) == simplex_cycle(F, scaled)


def _perm_sign(perm):
    sign = 1
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                sign = -sign
    return sign


class TestBoundary:
    def test_simplex_cycles_are_cycles(self):
        rng = random.Random(5)
        for poly in (QUADRATIC, CUBIC, QUARTIC):
            F = make_field(poly)
            for _ in range(10):
                pts = [rand_point(F, rng) for _ in range(F.degree)]
                assert is_cycle(simplex_cycle(F, pts))

    def test_boundary_of_boundary_vanishes(self):
        rng = random.Random(6)
        F = make_field(QUARTIC)
        for _ in range(5):
            z = rand_cycle(F, rng)
            b = boundary(z)
            bb = boundary(b)
            assert (bb == 0) if isinstance(bb, int) else bb.is_zero()

    def test_leaf_weight_zero(self):
        F = make_field(QUADRATIC)
        z = simplex_cycle(F, [F.element([1, 0]), F.element([0, 1])])
        assert boundary(z) == 0

    def test_chain_validity(self):
        rng = random.Random(7)
        F = make_field(QUARTIC)
        z = rand_cycle(F, rng)
        assert is_cycle(z)


class TestDecomposition:
    def test_reexpansion_matches(self):
        rng = random.Random(8)
        for poly in (CUBIC, QUARTIC):
            F = make_field(poly)
            for _ in range(8):
                z = rand_cycle(F, rng)
                rebuilt = Cycle.zero(F, z.degree)
                for coef, pts in decompose_cycle(z):
                    rebuilt = rebuilt + simplex_cycle(F, pts) * coef
                assert rebuilt == z

    def test_zero_cycle(self):
        F = make_field(CUBIC)
        assert decompose_cycle(Cycle.zero(F, 1)) == []


class TestCpdExtend:
    def test_on_simplex_returns_f(self):
        rng = random.Random(9)
        F = make_field(CUBIC)
        D = dual_point_function(F)
        for _ in range(10):
            pts = tuple(rand_point(F, rng) for _ in range(3))
            z = simplex_cycle(F, pts)
            if z.is_zero():
                continue
            assert cpd_extend(D, z) == D.evaluate(pts)

    def test_additive(self):
        rng = random.Random(10)
        F = make_field(CUBIC)
        D = dual_point_function(F)
        z1, z2 = rand_cycle(F, rng), rand_cycle(F, rng)
        assert cpd_extend(D, z1 + z2) == cpd_extend(D, z1) + cpd_extend(D, z2)

    def test_zero_maps_to_zero(self):
        F = make_field(CUBIC)
        D = dual_point_function(F)
        assert cpd_extend(D, Cycle.zero(F, 1)).is_zero()

    def test_base_point_independence(self):
        # the deterministic base is the lex-min point; coning from any other
        # point must produce the same extension value
        rng = random.Random(11)
        F = make_field(CUBIC)
        D = dual_point_function(F)
        checked = 0
        for _ in range(100):
            z = rand_cycle(F, rng, terms=2)
            if z.is_zero():
                continue
            expected = cpd_extend(D, z)
            base = rand_point(F, rng)
            total = D.zero
            groups = {}
            for flag, leaf in z.data.items():
                groups.setdefault(flag[-1], {})[flag[:-1]] = leaf
            for top in sorted(groups):
                comp = Cycle(F, z.degree - 1, groups[top])
                for coef, pts in decompose_cycle(comp):
                    tup = (base,) + pts
                    val = D.evaluate(tup)
                    total = total + val * coef
            assert total == expected
            checked += 1
        assert checked >= 50

    def test_rejects_non_cycle(self):
        F = make_field(CUBIC)
        a = F.element([1, 0, 0])
        chain = Cycle(F, 0, {(): {a.proj_key(): 2}})
        D = CPDFunction(2, lambda pts: Cycle.zero(F, 0), Cycle.zero(F, 0))
        with pytest.raises(NotACycle):
            cpd_extend(D, chain)


class TestDualCycle:
    def test_standard_simplex_self_dual_ray_set(self):
        # the dual points of the coordinate simplex are the trace-dual rays;
        # applying the dual twice returns the original cycle
        F = make_field(CUBIC)
        pts = [F.element([1, 0, 0]), F.element([0, 1, 0]), F.element([0, 0, 1])]
        z = simplex_cycle(F, pts)
        assert dual_cycle(dual_cycle(z)) == z

    def test_involution_random(self):
        rng = random.Random(12)
        for poly in (QUADRATIC, CUBIC, QUARTIC):
            F = make_field(poly)
            for _ in range(6):
                pts = [rand_point(F, rng) for _ in range(F.degree)]
                z = simplex_cycle(F, pts)
                assert dual_cycle(dual_cycle(z)) == z

    def test_degree_guard(self):
        F = make_field(QUARTIC)
        z = Cycle.zero(F, 0)
        with pytest.raises(NotTopDegree):
            dual_cycle(z)

    def test_dual_of_zero(self):
        F = make_field(CUBIC)
        assert dual_cycle(Cycle.zero(F, 1)).is_zero()


class TestCpdPropertiesOfDual:
    def test_cocycle_property(self):
        rng = random.Random(13)
        F = make_field(CUBIC)
        D = dual_point_function(F)
        for _ in range(10):
            tup = [rand_point(F, rng) for _ in range(4)]
            total = Cycle.zero(F, 1)
            for r in range(4):
                rest = tuple(tup[:r] + tup[r + 1 :])
                total = total + D.evaluate(rest) * (1 if r % 2 == 0 else -1)
            assert total.is_zero()

    def test_permutation_property(self):
        rng = random.Random(14)
        F = make_field(CUBIC)
        D = dual_point_function(F)
        pts = tuple(rand_point(F, rng) for _ in range(3))
        for perm in itertools.permutations(range(3)):
            permuted = tuple(pts[i] for i in perm)
            assert D.evaluate(permuted) == D.evaluate(pts) * _perm_sign(perm)

    def test_degeneracy_property(self):
        F = make_field(CUBIC)
        D = dual_point_function(F)
        a, b = F.element([1, 2, 0]), F.element([0, 1, 1])
        assert D.evaluate((a, b, a + b)).is_zero()


class TestBoundaryCycleOfPolyhedron:
    def test_edge_gives_signed_difference(self):
        F = make_field(QUADRATIC)
        a, b = F.element([1, 0]), F.element([1, 1])
        K = ProjPolyhedron.from_points(F, [a, b])
        z = boundary_cycle(K)
        assert z == simplex_cycle(F, [a, b])
        assert boundary_cycle(K, orientation=-1) == -z

    def test_simplices_match_simplex_cycles(self):
        # anchors the orientation convention in every tested dimension
        for poly in (QUADRATIC, CUBIC, QUARTIC):
            F = make_field(poly)
            n = F.degree
            pts = [
                F.element([1 if i == j else 0 for j in range(n)]) for i in range(n)
            ]
            K = ProjPolyhedron.from_points(F, pts)
            assert boundary_cycle(K) == simplex_cycle(F, pts)

    def test_square_is_sum_of_edge_cycles(self):
        F = make_field(CUBIC)
        pts = [
            F.element([1, 0, 1]),
            F.element([0, 1, 1]),
            F.element([-1, 0, 1]),
            F.element([0, -1, 1]),
        ]
        K = ProjPolyhedron.from_points(F, pts)
        z = boundary_cycle(K)
        assert is_cycle(z)
        assert len(z.data) == 4  # one line per edge
        # the polygon cycle is the sum of its oriented edge cycles, which the
        # simplicial decomposition from any interior triangulation reproduces
        tri1 = simplex_cycle(F, [pts[0], pts[1], pts[2]])
        tri2 = simplex_cycle(F, [pts[0], pts[2], pts[3]])
        total = tri1 + tri2
        # triangulation has internal-wall cancellation: compare all leaves
        assert total == z or total == -z

    def test_polygon_cycle_is_cycle(self):
        rng = random.Random(15)
        F = make_field(CUBIC)
        for _ in range(5):
            K = random_polygon(F, rng)
            assert is_cycle(boundary_cycle(K))


def random_polygon(F, rng, max_vertices=8):
    """Convex polygon in the projective plane from moment-curve points."""
    ts = sorted(rng.sample(range(-8, 9), rng.randint(3, max_vertices)))
    pts = [F.element([Fraction(t * t), Fraction(t), Fraction(1)]) for t in ts]
    return ProjPolyhedron.from_points(F, pts)


class TestDualityTheorem:
    def test_simplices_all_degrees(self):
        for poly in (QUADRATIC, CUBIC, QUARTIC):
            F = make_field(poly)
            n = F.degree
            pts = [F.element([1 if i == j else 0 for j in range(n)]) for i in range(n)]
            assert duality_check(ProjPolyhedron.from_points(F, pts))

    def test_skew_simplices(self):
        rng = random.Random(16)
        for poly in (QUADRATIC, CUBIC, QUARTIC):
            F = make_field(poly)
            done = 0
            while done < 4:
                pts = [rand_point(F, rng) for _ in range(F.degree)]
                try:
                    K = ProjPolyhedron.from_points(F, pts)
                except Exception:
                    continue
                if len(K.vertices) != F.degree or not K.cone.span.is_full():
                    continue
                assert duality_check(K)
                done += 1

    def test_square(self):
        F = make_field(CUBIC)
        pts = [F.element([1, 0, 1]), F.element([-1, 0, 1]), F.element([0, 1, 1]), F.element([0, -1, 1])]
        assert duality_check(ProjPolyhedron.from_points(F, pts))

    def test_random_polygons(self):
        rng = random.Random(17)
        F = make_field(CUBIC)
        for _ in range(6):
            assert duality_check(random_polygon(F, rng))

    def test_cube_and_octahedron(self):
        F = make_field(QUARTIC)
        cube = [
            F.element([sx, sy, sz, 1])
            for sx in (1, -1)
            for sy in (1, -1)
            for sz in (1, -1)
        ]
        assert duality_check(ProjPolyhedron.from_points(F, cube))
        octa = []
        for i in range(3):
            for s in (1, -1):
                c = [0, 0, 0, 1]
                c[i] = s
                octa.append(F.element(c))
        assert duality_check(ProjPolyhedron.from_points(F, octa))


class TestTypedErrors:
    """Bad input that a library caller can pass raises a ConesumError, also
    under python -O."""

    def test_adding_mixed_degrees(self):
        F = make_field(CUBIC)
        a, b, c = F.element([1, 0, 0]), F.element([0, 1, 0]), F.element([0, 0, 1])
        with pytest.raises(DegreeMismatch):
            simplex_cycle(F, [a, b]) + simplex_cycle(F, [a, b, c])

    def test_simplex_on_one_point(self):
        F = make_field(CUBIC)
        with pytest.raises(DegreeMismatch):
            simplex_cycle(F, [F.element([1, 0, 0])])

    def test_cpd_extend_wrong_arity(self):
        F = make_field(CUBIC)
        z = simplex_cycle(F, [F.element([1, 0, 0]), F.element([0, 1, 0])])
        with pytest.raises(DegreeMismatch):
            cpd_extend(dual_point_function(F), z)

    @pytest.mark.parametrize("orientation", [5, 0, -2])
    def test_boundary_cycle_orientation(self, orientation):
        F = make_field(QUADRATIC)
        K = ProjPolyhedron.from_points(F, [F.element([1, 0]), F.element([1, 1])])
        with pytest.raises(MixedExponents):
            boundary_cycle(K, orientation=orientation)

    def test_orthogonal_point_of_dependent_points(self):
        F = make_field(CUBIC)
        a = F.element([1, 2, 0])
        with pytest.raises(DependentTuple):
            orthogonal_point(F, [a, a * 3])



def reference_orthogonal_point(F, points):
    """orthogonal_point by the subspace route it took before one kernel: the
    kernel of the trace rows of the span's echelon basis, read back as a
    LinearSubspace, on the ray key of its basis point."""
    span = LinearSubspace.from_points(F, points)
    rows = [linalg.mat_vec(F.trace_matrix, linalg.cleared(b)[0]) for b in span.basis]
    comp = LinearSubspace(F, linalg.kernel(rows))
    if comp.dim != 1:
        raise DependentTuple(f"{len(points)} points with a {comp.dim}-dimensional complement")
    return F.element(F.element(comp.basis[0]).ray_key())


class TestOneInverse:
    """Trace duals, trace-orthogonal points and field inverses read one
    integer adjugate or kernel, and give what the Fraction routes gave."""

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from([QUADRATIC, CUBIC, QUARTIC]), st.data())
    def test_orthogonal_point_matches_the_subspace_route(self, poly, data):
        F = make_field(poly)
        n = F.degree
        vec = st.lists(st.integers(-3, 3), min_size=n, max_size=n).filter(any)
        dens = st.integers(1, 5)
        points = [F.element([Fraction(v, data.draw(dens)) for v in data.draw(vec)])
                  for _ in range(n - 1)]
        try:
            expected = reference_orthogonal_point(F, points)
        except DependentTuple as exc:
            with pytest.raises(DependentTuple, match=str(exc)):
                orthogonal_point(F, points)
            return
        w = orthogonal_point(F, points)
        assert w == expected and w.num == expected.num and w.den == expected.den

    def test_each_route_reads_one_adjugate(self, monkeypatch):
        # the dual simplex of four vertices of the cube in P^3, a field
        # inverse and a dual basis: one adjugate each, and no kernel, rank,
        # orthogonal_point, solve_unique or Gram inverse
        F = make_field(QUARTIC)
        pts = tuple(F.element([sx, sy, sz, 1]) for sx, sy, sz in
                    ((1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1)))
        expected = dual_point_function(F).evaluate(pts)
        calls = []
        for module, name in ((linalg, "adjugate"), (linalg, "kernel"), (linalg, "rank"),
                             (cycles, "orthogonal_point"), (linalg, "solve_unique"),
                             (linalg, "inverse")):
            def counted(*args, _name=name, _fn=getattr(module, name)):
                calls.append(_name)
                return _fn(*args)

            monkeypatch.setattr(module, name, counted)
        assert dual_point_function(F).evaluate(pts) == expected
        assert not expected.is_zero() and calls == ["adjugate"]
        calls.clear()
        x = F.element([Fraction(3, 7), -2, Fraction(5, 3), Fraction(-1, 4)])
        assert x * x.inverse() == F.one and calls == ["adjugate"]
        calls.clear()
        duals = summation.dual_basis(list(pts))
        assert calls == ["adjugate"]
        assert [[trace_pairing(a, b) for b in duals] for a in pts] == [
            [int(i == j) for j in range(4)] for i in range(4)]
