import itertools
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conesum import cycles, geometry, linalg, summation
from conesum.cli import suite_theorem2
from conesum.config import load_config
from conesum.errors import (
    DegreeMismatch,
    DependentTuple,
    NotACycle,
    NotTopDegree,
)
from conesum.field import make_field, trace_pairing
from conesum.geometry import Cone, LinearSubspace, ProjPolyhedron, trace_duals
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
    simplex_cycle,
)
from test_geometry import span_coordinates

ROOT = Path(__file__).resolve().parents[1]
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
                if len(K.cone.extreme_rays) != F.degree or not K.cone.span.is_full():
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


def reference_orthogonal_point(F, points):
    """The trace-orthogonal point of n-1 points by the subspace route: the
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
    integer adjugate, and give what the Fraction routes gave."""

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from([QUADRATIC, CUBIC, QUARTIC]), st.data())
    def test_orthogonal_point_matches_the_subspace_route(self, poly, data):
        # the trace dual opposite a point spans the complement of the others
        F = make_field(poly)
        n = F.degree
        vec = st.lists(st.integers(-3, 3), min_size=n, max_size=n).filter(any)
        dens = st.integers(1, 5)
        points = [F.element([Fraction(v, data.draw(dens)) for v in data.draw(vec)])
                  for _ in range(n)]
        j = data.draw(st.integers(0, n - 1))
        if linalg.rank([p.num for p in points]) < n:
            with pytest.raises(DependentTuple):
                trace_duals(points)
            return
        w = F.element(trace_duals(points)[j].proj_key())
        expected = reference_orthogonal_point(F, points[:j] + points[j + 1:])
        assert w == expected and w.num == expected.num and w.den == expected.den

    def test_each_route_reads_one_adjugate(self, monkeypatch):
        # the dual simplex of four vertices of the cube in P^3, a field
        # inverse and a dual basis: one adjugate each, and no kernel, rank,
        # solve_unique or Gram inverse
        F = make_field(QUARTIC)
        pts = tuple(F.element([sx, sy, sz, 1]) for sx, sy, sz in
                    ((1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1)))
        expected = dual_point_function(F).evaluate(pts)
        calls = []
        for module, name in ((linalg, "adjugate"), (linalg, "kernel"), (linalg, "rank"),
                             (linalg, "solve_unique"), (linalg, "inverse")):
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


def reference_boundary_cycle(K):
    """boundary_cycle by the Cone walk it took before the integer one: a Cone
    per face, a segment base case, and each facet oriented by the sum of the
    generators off it, on coordinates read through span_coordinates."""

    def orientation_det(span, vectors):
        return linalg.det([span_coordinates(span, v) for v in vectors])

    def walk(cone, span, sign):
        if cone.dim == 2:
            x, y = cone.extreme_rays
            s = sign if orientation_det(span, [x.coords, y.coords]) > 0 else -sign
            return {(): {x.proj_key(): s, y.proj_key(): -s}}
        out = {}
        for _, tight in cone._facet_data:
            facet = Cone(cone.field, [cone.generators[i] for i in tight])
            inward = sum(
                (g for i, g in enumerate(cone.generators) if i not in tight), cone.field.zero
            )
            d = orientation_det(span, [inward.coords, *facet.span.basis])
            for flag, leaf in walk(facet, facet.span, sign if d > 0 else -sign).items():
                cycles._merge(out, flag + (facet.span.key,), leaf)
        return out

    return Cycle(K.field, K.dim - 1, walk(K.cone, K.cone.span, 1))


def cube_faces(d):
    """Vertices of the d-cube {+-1}^d, its edges and its 2-faces (index tuples)."""
    verts = list(itertools.product((1, -1), repeat=d))
    edges = [(i, j) for i, j in itertools.combinations(range(len(verts)), 2)
             if sum(a != b for a, b in zip(verts[i], verts[j])) == 1]
    faces = []
    for free in itertools.combinations(range(d), 2):
        fixed = [k for k in range(d) if k not in free]
        for values in itertools.product((1, -1), repeat=len(fixed)):
            faces.append(tuple(i for i, v in enumerate(verts)
                               if all(v[k] == x for k, x in zip(fixed, values))))
    return verts, edges, faces


def octahedron_faces(d):
    """Vertices +-e_k of the d-dimensional cross-polytope, its edges and its
    2-faces: the sets of pairwise non-opposite vertices of size 2 and 3."""
    verts = [tuple(s if k == i else 0 for k in range(d)) for i in range(d) for s in (1, -1)]

    def simplex(idx):
        return all(i // 2 != j // 2 for i, j in itertools.combinations(idx, 2))

    return (verts,
            [e for e in itertools.combinations(range(len(verts)), 2) if simplex(e)],
            [f for f in itertools.combinations(range(len(verts)), 3) if simplex(f)] if d > 2
            else [tuple(range(len(verts)))])


def polygon_faces(ts):
    """The moment-curve polygon on (t, t^2), its edges and its one 2-face."""
    verts = [(t, t * t) for t in ts]
    k = len(verts)
    return verts, [(i, (i + 1) % k) for i in range(k)], [tuple(range(k))]


@st.composite
def polyhedra(draw):
    """A polygon, cube or octahedron of dimension 2 .. n-1 in the projective
    space of the cubic or quartic field, carried by a random invertible
    integer matrix, with extra generators inside some of its edges and
    2-faces: positive integer combinations of their vertices."""
    F = make_field(draw(st.sampled_from([CUBIC, QUARTIC])))
    n = F.degree
    kind = draw(st.sampled_from(["polygon", "cube", "octahedron"]))
    d = 2 if kind == "polygon" else draw(st.integers(2, n - 1))
    if kind == "polygon":
        verts, edges, faces = polygon_faces(
            sorted(draw(st.sets(st.integers(-6, 6), min_size=3, max_size=6))))
    else:
        verts, edges, faces = (cube_faces if kind == "cube" else octahedron_faces)(d)
    pad = [0] * (n - 1 - d)
    rows = [list(v) + pad + [1] for v in verts]
    weight = st.integers(1, 3)
    for idx in (draw(st.lists(st.sampled_from(edges), max_size=2))
                + draw(st.lists(st.sampled_from(faces), max_size=2))):
        ws = [draw(weight) for _ in idx]
        rows.append([sum(w * rows[i][k] for w, i in zip(ws, idx)) for k in range(n)])
    M = draw(st.lists(st.lists(st.integers(-2, 2), min_size=n, max_size=n),
                      min_size=n, max_size=n).filter(lambda m: linalg.int_det(m) != 0))
    points = [F.element(linalg.mat_vec(M, r)) for r in rows]
    return ProjPolyhedron.from_points(F, points)


class TestIntegerBoundaryWalk:
    """boundary_cycle walks the extreme rays' integer numerators: a simplex
    is one simplex expansion signed by one integer determinant, and every
    other face is cut into facets, with no Cone and no span coordinates."""

    @settings(max_examples=60, deadline=None)
    @given(polyhedra())
    def test_matches_the_cone_walk(self, K):
        z = boundary_cycle(K)
        assert z == reference_boundary_cycle(K)
        assert is_cycle(z)

    def test_calls(self, monkeypatch):
        F = make_field(QUARTIC)
        simplex = ProjPolyhedron.from_points(
            F, [F.element([int(i == j) for j in range(4)]) for i in range(4)])
        cube = ProjPolyhedron.from_points(
            F, [F.element(list(v) + [1]) for v in itertools.product((1, -1), repeat=3)])
        expected = [reference_boundary_cycle(K) for K in (simplex, cube)]
        calls = []
        for module, name in ((linalg, "int_det"), (linalg, "det"), (cycles, "cut")):
            def counted(*args, _name=name, _fn=getattr(module, name)):
                calls.append(_name)
                return _fn(*args)

            monkeypatch.setattr(module, name, counted)
        monkeypatch.setattr(Cone, "__init__", lambda *args: calls.append("Cone"))
        monkeypatch.setattr(Cone, "_canonical", lambda *args: calls.append("Cone"))
        assert boundary_cycle(simplex) == expected[0]
        assert calls == ["int_det"]
        calls.clear()
        assert boundary_cycle(cube) == expected[1]
        assert calls.count("cut") == 6  # the top cone's cut is the salience check's
        assert "Cone" not in calls

    def test_theorem2_suite_cuts_each_cone_once(self):
        # 20 cuts for the salience checks of the ten polyhedra and their
        # duals, and one per facet that is not a simplex, counted by code object
        cfg = load_config(str(ROOT / "configs" / "sqrt3.json"))
        calls = []

        def profile(frame, event, arg):
            if event == "call" and frame.f_code is geometry.cut.__code__:
                calls.append(frame.f_code.co_name)

        sys.setprofile(profile)
        try:
            results = suite_theorem2(cfg)
        finally:
            sys.setprofile(None)
        assert all(r["pass"] for r in results) and len(results) == 10
        assert len(calls) == 32
