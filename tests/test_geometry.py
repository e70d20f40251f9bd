import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conesum import field, geometry, linalg, summation

from conesum.errors import (
    DependentTuple,
    NotFullDim,
    NotSalient,
    NotSimplicial,
    RayNotRational,
    ZeroInput,
)
from conesum.fan import FanDescription, LatticeFrame, truncate
from conesum.field import make_field, trace_pairing
from conesum.geometry import (
    Cone,
    LinearSubspace,
    ProjPolyhedron,
    dual_cone,
    integer_rays,
    primitive_generator,
    solve_in_basis,
    trace_duals,
)

QUADRATIC = [-3, 0, 1]
CUBIC = [1, -2, -1, 1]
QUARTIC = [1, 1, -4, 0, 1]


def elem(F, *coords):
    return F.element(list(coords))


def std_basis(F):
    n = F.degree
    return [F.element([1 if i == j else 0 for j in range(n)]) for i in range(n)]


def random_salient_cone(F, rng, nrays=None):
    """Perturbed orthant: always salient and full-dimensional."""
    n = F.degree
    basis = std_basis(F)
    nrays = nrays or n
    gens = []
    for i in range(nrays):
        base = basis[i % n]
        wobble = F.element(
            [Fraction(rng.randint(0, 3), rng.randint(4, 9)) for _ in range(n)]
        )
        gens.append(base * rng.randint(2, 5) + wobble)
    return Cone(F, gens)


def basis_points(S):
    """The F-points of a span's echelon basis rows."""
    return [S.field.element(row) for row in S.basis]


def span_point(S, c):
    """The F-point sum c_j b_j of a span's basis rows."""
    return S.field.element(
        [sum(cj * b[i] for cj, b in zip(c, S.basis)) for i in range(S.field.degree)]
    )


def span_coordinates(S, v):
    """The c with v = sum c_j b_j, or None when v is outside the span S.

    Basis row j is 1 at pivot j and 0 at the other pivots, so c_j is the
    entry of v at pivot j; the entries off the pivots decide membership.
    """
    c = tuple(v[p] for p in S.pivots)
    for i, x in enumerate(v):
        if i not in S.pivots and x != sum(cj * b[i] for cj, b in zip(c, S.basis)):
            return None
    return c


def span_contains(S, x):
    return span_coordinates(S, x.num) is not None


def is_simplicial(cone):
    return len(cone.extreme_rays) == cone.dim


def span_intersection(S, T):
    """The meet of two spans: x in both solves [B1^T | -B2^T] kernel."""
    rows = [
        tuple(b[i] for b in S.basis) + tuple(-b[i] for b in T.basis)
        for i in range(S.field.degree)
    ]
    points = [span_point(S, vec[: S.dim]).num for vec in linalg.kernel(rows)]
    return LinearSubspace(S.field, points)


def contains_subspace(S, T):
    """Whether the span S holds the span T: every basis row of T has
    coordinates in S."""
    return all(span_coordinates(S, b) is not None for b in T.basis)


class TestLinearSubspace:
    def test_canonical_key_equality(self):
        F = make_field(QUADRATIC)
        a = LinearSubspace.from_points(F, [elem(F, 1, 1)])
        b = LinearSubspace.from_points(F, [elem(F, 2, 2)])
        assert a == b and hash(a) == hash(b)

    def test_membership(self):
        F = make_field(CUBIC)
        s = LinearSubspace.from_points(F, [elem(F, 1, 0, 0), elem(F, 0, 1, 0)])
        assert span_contains(s, elem(F, 3, -2, 0))
        assert not span_contains(s, elem(F, 0, 0, 1))

    def test_orthogonal_complement_is_trace_orthogonal(self):
        # the complement of a plane of the cubic field is the ray of the
        # trace dual opposite a point off the plane
        F = make_field(CUBIC)
        s = LinearSubspace.from_points(F, [elem(F, 1, 2, 0), elem(F, 0, 1, 1)])
        w = trace_duals(basis_points(s) + [elem(F, 0, 0, 1)])[2]
        assert not w.is_zero()
        for b in basis_points(s):
            assert trace_pairing(w, b) == 0

    def test_intersection(self):
        F = make_field(CUBIC)
        s1 = LinearSubspace.from_points(F, [elem(F, 1, 0, 0), elem(F, 0, 1, 0)])
        s2 = LinearSubspace.from_points(F, [elem(F, 1, 0, 0), elem(F, 0, 0, 1)])
        meet = span_intersection(s1, s2)
        assert meet.dim == 1
        assert span_contains(meet, elem(F, 5, 0, 0))


class TestConeIntersection:
    def test_shared_edge_ray(self):
        # two 2-dimensional cones in a 3-dimensional space meet in their
        # common edge: the kernel of a rank-0 system in the 1-dimensional
        # span must give that ray
        F = make_field(CUBIC)
        t = F.theta
        meet = Cone(F, [F.one, t]).intersection(Cone(F, [F.one, t * t]))
        assert meet is not None and meet.dim == 1
        assert meet == Cone(F, [F.one * 3])

    def test_spans_meet_outside_both_cones(self):
        # the spans share the line through 3 theta - 1 (theta^3 + theta =
        # theta^2 + 3 theta - 1), which neither cone holds on either side
        F = make_field(CUBIC)
        t = F.theta
        assert Cone(F, [F.one, t]).intersection(Cone(F, [t * t, t * t * t + t])) is None

    def test_line_meets_a_cone_in_the_true_ray(self):
        # the line through 1 + sqrt 3 lists -(1 + sqrt 3) first; the cone over
        # 1 and sqrt 3 holds only the other side
        F = make_field(QUADRATIC)
        g = elem(F, 1, 1)
        line, quadrant = Cone(F, [g, -g]), Cone(F, [F.one, F.theta])
        assert line.generators[0] == -g
        assert line.intersection(quadrant) == quadrant.intersection(line) == Cone(F, [g])

    @pytest.mark.parametrize("poly", [QUADRATIC, CUBIC, QUARTIC])
    def test_zero_cone_cuts_out_only_zero(self, poly):
        F = make_field(poly)
        zero, cone = Cone(F, []), Cone(F, triangle_generators(F))
        assert zero.contains(F.zero) and not zero.contains_strictly(F.zero)
        for x in std_basis(F) + [cone.interior_point()]:
            assert not zero.contains(x) and not zero.contains(-x)
        for other in (zero, cone, Cone(F, [F.one]), Cone(F, [F.one, -F.one])):
            assert zero.intersection(other) is None and other.intersection(zero) is None


class TestDualCone:
    def test_orthant_selfdual_up_to_trace_form(self):
        # the dual of the coordinate orthant consists of the trace-dual rays
        F = make_field(CUBIC)
        orthant = Cone(F, std_basis(F))
        dual = dual_cone(orthant)
        assert dual.dim == 3
        assert dual_cone(dual) == orthant

    def test_2d_example_standard_pairing(self):
        # over a field, normals are trace-duals; verify the defining property
        F = make_field(QUADRATIC)
        c = Cone(F, [elem(F, 1, 0), elem(F, 1, 1)])
        d = dual_cone(c)
        for u in d.generators:
            for g in c.generators:
                assert trace_pairing(u, g) >= 0
        assert dual_cone(d) == c

    def test_biduality_200_random(self):
        rng = random.Random(42)
        cones = 0
        for poly in (QUADRATIC, CUBIC, QUARTIC):
            F = make_field(poly)
            for _ in range(67):
                c = random_salient_cone(F, rng)
                assert dual_cone(dual_cone(c)) == c
                cones += 1
        assert cones >= 200

    def test_not_full_dim(self):
        F = make_field(CUBIC)
        c = Cone(F, [elem(F, 1, 0, 0), elem(F, 0, 1, 0)])
        with pytest.raises(NotFullDim):
            dual_cone(c)


class TestFaces:
    def test_simplex_has_three_edges(self):
        F = make_field(CUBIC)
        K = ProjPolyhedron.from_points(F, std_basis(F))
        assert len(K.cone.facets()) == 3
        assert all(f.span.dim == 2 for f in K.cone.facets())

    def test_square_has_four_facets(self):
        F = make_field(CUBIC)
        pts = [
            elem(F, 1, 0, 1),
            elem(F, -1, 0, 1),
            elem(F, 0, 1, 1),
            elem(F, 0, -1, 1),
        ]
        K = ProjPolyhedron.from_points(F, pts)
        assert len(K.cone.extreme_rays) == 4
        assert len(K.cone.facets()) == 4

    def test_cube_has_six_facets(self):
        F = make_field(QUARTIC)
        pts = [elem(F, sx, sy, sz, 1) for sx in (1, -1) for sy in (1, -1) for sz in (1, -1)]
        K = ProjPolyhedron.from_points(F, pts)
        assert len(K.cone.extreme_rays) == 8
        assert len(K.cone.facets()) == 6
        counts = {d: len(v) for d, v in K.faces_by_dim().items()}
        assert counts[0] == 8 and counts[1] == 12 and counts[2] == 6

    def test_octahedron(self):
        F = make_field(QUARTIC)
        pts = []
        for i in range(3):
            for s in (1, -1):
                coords = [0, 0, 0, 1]
                coords[i] = s
                pts.append(F.element(coords))
        K = ProjPolyhedron.from_points(F, pts)
        assert len(K.cone.extreme_rays) == 6
        assert len(K.cone.facets()) == 8


class TestDualPolyhedron:
    def test_face_lattice_reverses(self):
        F = make_field(QUARTIC)
        pts = [elem(F, sx, sy, sz, 1) for sx in (1, -1) for sy in (1, -1) for sz in (1, -1)]
        K = ProjPolyhedron.from_points(F, pts)
        Kd = K.dual()
        c1 = {d: len(v) for d, v in K.faces_by_dim().items()}
        c2 = {d: len(v) for d, v in Kd.faces_by_dim().items()}
        assert c2[0] == c1[2] and c2[1] == c1[1] and c2[2] == c1[0]

    def test_vertices_match_facets(self):
        F = make_field(CUBIC)
        pts = [elem(F, 1, 0, 1), elem(F, -1, 0, 1), elem(F, 0, 1, 1), elem(F, 0, -1, 1)]
        K = ProjPolyhedron.from_points(F, pts)
        assert len(K.dual().cone.extreme_rays) == len(K.cone.facets())

    def test_double_dual(self):
        F = make_field(CUBIC)
        pts = [elem(F, 1, 0, 1), elem(F, -1, 0, 1), elem(F, 0, 1, 1), elem(F, 0, -1, 1)]
        K = ProjPolyhedron.from_points(F, pts)
        assert K.dual().dual() == K


class TestPrimitiveGenerator:
    def test_integer_lattice(self):
        F = make_field(QUADRATIC)
        basis = std_basis(F)
        p = primitive_generator(elem(F, 2, 4), basis)
        assert p.coords == (Fraction(1), Fraction(2))

    def test_scaled_lattice(self):
        # lattice Z + Z*(theta/3) in Q(sqrt 3); ray through 2 + 2*theta/3
        F = make_field(QUADRATIC)
        basis = [F.one, F.theta / 3]
        ray = elem(F, 2, Fraction(2, 3))
        p = primitive_generator(ray, basis)
        assert p == F.one + F.theta / 3
        coeffs = solve_in_basis(basis, p)
        assert coeffs == (1, 1)

    def test_ray_outside_module_span(self):
        F = make_field(QUADRATIC)
        with pytest.raises(RayNotRational):
            primitive_generator(F.theta, [F.one])  # rank-1 module misses theta

    def test_gcd_one_in_module_coords(self):
        from math import gcd

        rng = random.Random(5)
        F = make_field(CUBIC)
        basis = [F.one, F.theta / 2, F.theta * F.theta / 5]
        for _ in range(20):
            scale = Fraction(rng.randint(1, 9), rng.randint(1, 9))
            coeffs = [rng.randint(-6, 6) for _ in range(3)]
            ray = F.zero
            for c, b in zip(coeffs, basis):
                ray = ray + b * (c * scale)
            if ray.is_zero():
                continue
            p = primitive_generator(ray, basis)
            sol = solve_in_basis(basis, p)
            assert all(c.denominator == 1 for c in sol)
            gg = 0
            for c in sol:
                gg = gcd(gg, abs(int(c)))
            assert gg == 1
            # p lies on the same ray as the input
            ratio = solve_in_basis([ray], p)
            assert ratio is not None and ratio[0] > 0


# ---------------------------------------------------------------------------
# the facet and ray enumeration against the brute-force loops it replaced


def reference_facet_data(cone):
    """Per (m-1)-subset of generators: rebuild its pairing rows, keep a
    1-dimensional kernel whose normal has one sign on every generator."""
    F, gens, m = cone.field, cone.generators, cone.dim
    if m < 2:
        return []
    span_basis = basis_points(cone.span)
    found = {}
    for subset in itertools.combinations(range(len(gens)), m - 1):
        rows = [tuple(trace_pairing(b, gens[i]) for b in span_basis) for i in subset]
        ker = linalg.kernel(rows)
        if len(ker) != 1:
            continue
        normal = F.zero
        for c, b in zip(ker[0], span_basis):
            normal = normal + b * c
        values = [trace_pairing(normal, g) for g in gens]
        if all(v >= 0 for v in values):
            pass
        elif all(v <= 0 for v in values):
            normal, values = -normal, [-v for v in values]
        else:
            continue
        tight = tuple(i for i, v in enumerate(values) if v == 0)
        found.setdefault(normal.ray_key(), (F.element(normal.ray_key()), tight))
    return [found[k] for k in sorted(found)]


def reference_rays(constraints, m):
    """Canonical extreme rays of {u : C u >= 0}, with the tight-rank check."""
    if m == 0 or not constraints:
        return []
    found = set()
    for subset in itertools.combinations(range(len(constraints)), m - 1):
        rows = [constraints[i] for i in subset] or [(Fraction(0),) * m]
        ker = linalg.kernel(rows)
        if len(ker) != 1:
            continue
        ray = ker[0]
        values = [sum(c * r for c, r in zip(con, ray)) for con in constraints]
        if all(v >= 0 for v in values):
            pass
        elif all(v <= 0 for v in values):
            ray, values = tuple(-r for r in ray), [-v for v in values]
        else:
            continue
        tight = [constraints[i] for i, v in enumerate(values) if v == 0]
        if linalg.rank(tight) != m - 1:
            continue
        lead = next(abs(r) for r in ray if r != 0)
        found.add(tuple(r / lead for r in ray))
    return sorted(found)


def reference_holds(cone, x):
    """Nonzero x lies on a generator's ray of a cone of dimension 1, or in
    the span of a larger cone and pairs >= 0 with every reference normal."""
    if cone.dim == 1:
        return x.ray_key() in {g.ray_key() for g in cone.generators}
    return span_contains(cone.span, x) and all(
        trace_pairing(n, x) >= 0 for n, _ in reference_facet_data(cone)
    )


def reference_intersection(a, b):
    """A ray or line meets b in the generators b holds; a line held whole
    meets it in its ray whose last nonzero coordinate is positive."""
    F = a.field
    span = span_intersection(a.span, b.span)
    if span.dim == 0:
        return None
    if a.dim == 1:
        held = [g for g in a.generators if reference_holds(b, g)]
        if len(held) == 2:
            held = [g for g in held if next(filter(None, reversed(g.coords))) > 0]
        return Cone(F, held) if held else None
    if b.dim == 1:
        return reference_intersection(b, a)
    basis = basis_points(span)
    normals = [n for n, _ in reference_facet_data(a) + reference_facet_data(b)]
    constraints = [tuple(trace_pairing(n, e) for e in basis) for n in normals]
    points = []
    for ray in reference_rays(constraints, span.dim):
        total = F.zero
        for c, e in zip(ray, basis):
            total = total + e * c
        points.append(total)
    return Cone(F, points) if points else None


FIELDS = [QUADRATIC, CUBIC, QUARTIC]


@st.composite
def generator_sets(draw, poly=None):
    """Up to degree + 2 nonzero generators with small coordinates, mostly
    nonnegative, so the cones are usually salient and often overlap."""
    F = make_field(poly or draw(st.sampled_from(FIELDS)))
    n = F.degree
    vec = st.lists(st.integers(-1, 3), min_size=n, max_size=n).filter(any)
    return F, [F.element(v) for v in draw(st.lists(vec, min_size=1, max_size=n + 2))]


class TestAgainstReferenceLoops:
    @settings(max_examples=80, deadline=None)
    @given(generator_sets())
    def test_facet_data_matches(self, case):
        F, gens = case
        cone = Cone(F, gens)
        assert cone._facet_data == reference_facet_data(cone)

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(FIELDS).flatmap(
        lambda poly: st.tuples(generator_sets(poly), generator_sets(poly))
    ))
    def test_intersection_matches(self, cases):
        (F, ga), (_, gb) = cases
        a, b = Cone(F, ga), Cone(F, gb)
        meet, expected = a.intersection(b), reference_intersection(a, b)
        assert (meet is None) == (expected is None)
        if meet is not None:
            assert meet.key() == expected.key()


def kernel_rays(constraints, m):
    """The extreme-ray search as it was before integer minors: each candidate
    is the Fraction kernel basis vector of m-1 cleared constraints."""
    if m == 0 or not constraints:
        return []
    rows = [linalg.cleared(con)[0] for con in constraints]
    found = {}
    for subset in itertools.combinations(range(len(rows)), m - 1):
        ker = linalg.kernel([rows[i] for i in subset] or [(0,) * m])
        if len(ker) != 1:
            continue
        ray = linalg.cleared(ker[0])[0]
        values = [sum(c * r for c, r in zip(row, ray)) for row in rows]
        if all(v >= 0 for v in values):
            pass
        elif all(v <= 0 for v in values):
            ray = tuple(-r for r in ray)
        else:
            continue
        lead = abs(next(r for r in ray if r))
        found.setdefault(
            tuple(Fraction(r, lead) for r in ray), tuple(i for i, v in enumerate(values) if v == 0)
        )
    return sorted(found.items())


@st.composite
def constraint_lists(draw):
    """Up to six small rational constraints in m <= 4 unknowns, sometimes
    with a constraint and its negative, so that the cone is not salient."""
    m = draw(st.integers(1, 4))
    entry = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
    rows = draw(st.lists(st.tuples(*[entry] * m), min_size=1, max_size=6))
    if draw(st.booleans()):
        rows.append(tuple(-v for v in rows[0]))
    return rows, m


class TestIntegerMinors:
    @settings(max_examples=150, deadline=None)
    @given(constraint_lists())
    # (theta, -theta, 1) over Q(sqrt 3) met with itself: theta spans a lineality
    # direction that every constraint vanishes on
    @example(([(Fraction(2), Fraction(0)), (Fraction(2), Fraction(0))], 2))
    @example(([(Fraction(0), Fraction(-1))], 2))
    def test_matches_kernel_rays(self, case):
        constraints, m = case
        found = integer_rays([linalg.cleared(con)[0] for con in constraints], m)
        rays = sorted((tuple(Fraction(r, abs(next(filter(None, ray)))) for r in ray), tight)
                      for ray, tight in found.items())
        assert rays == kernel_rays(constraints, m)

    def test_no_kernel(self, monkeypatch):
        monkeypatch.setattr(linalg, "kernel", None)
        F = make_field(CUBIC)
        square = Cone(F, [elem(F, 1, *v) for v in itertools.product((0, 1), repeat=2)])
        assert len(square.facet_normals()) == 4


@st.composite
def rows_and_equations(draw):
    """Up to five small integer rows in m <= 4 unknowns and up to m
    independent equation rows."""
    m = draw(st.integers(1, 4))
    vec = st.lists(st.integers(-3, 3), min_size=m, max_size=m)
    rows = draw(st.lists(vec, max_size=5))
    eqs = draw(st.lists(vec, max_size=m))
    assume(linalg.rank(eqs) == len(eqs))
    return rows, m, eqs


@st.composite
def independent_vectors(draw):
    """n independent integer vectors in degree 2 to 4, and the pairing: the
    identity or the trace matrix of a field of that degree."""
    poly = draw(st.sampled_from(FIELDS))
    n = len(poly) - 1
    vec = st.lists(st.integers(-4, 4), min_size=n, max_size=n)
    vectors = draw(st.lists(vec, min_size=n, max_size=n))
    assume(linalg.rank(vectors) == n)
    return vectors, n, draw(st.sampled_from([None, make_field(poly).trace_matrix]))


class TestIntegerCut:
    @settings(max_examples=150, deadline=None)
    @given(independent_vectors())
    def test_independent_normals_match_integer_rays(self, case):
        # the normals read off the adjugate are integer_rays' rays, in its
        # order and with its tight sets, and the general path's rows follow
        vectors, n, pairing = case
        paired = vectors if pairing is None else [linalg.mat_vec(pairing, v) for v in vectors]
        normals, rows = geometry.cut(vectors, n, pairing)
        expected = integer_rays(paired, n)
        assert list(normals.items()) == list(expected.items())
        assert rows == [u if pairing is None else linalg.mat_vec(pairing, u) for u in expected]

    @settings(max_examples=150, deadline=None)
    @given(rows_and_equations())
    def test_equations_match_both_signs_as_rows(self, case):
        rows, m, eqs = case
        signed = integer_rays(rows + eqs + [[-v for v in a] for a in eqs], m)
        restricted = {ray: tuple(i for i in tight if i < len(rows))
                      for ray, tight in signed.items()}
        assert integer_rays(rows, m, eqs) == restricted

    @pytest.mark.parametrize("poly", [CUBIC, QUARTIC])
    def test_no_pairing_solve_or_span_meet(self, poly, monkeypatch):
        F = make_field(poly)
        calls = []

        def counted(owner, name):
            f = getattr(owner, name)
            monkeypatch.setattr(owner, name, lambda *a, **k: calls.append(name) or f(*a, **k))

        counted(field, "trace_pairing")
        counted(geometry, "solve_in_basis")
        counted(linalg, "solve")
        assert not hasattr(LinearSubspace, "intersection")  # no span meet exists
        g = triangle_generators(F)
        x = g[0] + g[1] * 2
        for gens in (g, g[:2], g[:1], g + [g[0] + g[1] - g[2]]):
            cone = Cone(F, gens)
            cone._facet_data, cone.contains(x), cone.contains_strictly(x)
            Cone(F, gens).intersection(Cone(F, g))
        assert calls == []


class TestWalls:
    @settings(max_examples=150, deadline=None)
    @given(independent_vectors())
    def test_walls_are_the_cut_tight_sets(self, case):
        # for n independent vectors each is extreme, and the wall of a
        # facet row P u is the vectors the cut lists as tight on u
        vectors, n, pairing = case
        normals, rows = geometry.cut(vectors, n, pairing)
        rays = [tuple(v) for v in vectors]
        expected = [frozenset(rays[i] for i in tight) for tight in normals.values()]
        assert geometry.walls(rays, rows[:len(normals)]) == [w for w in expected if w]

    def test_empty_walls_dropped(self):
        rays = [(1, 0, 0), (0, 1, 0)]
        rows = [(1, 0, 0), (1, 1, 0), (0, 0, 1)]
        assert geometry.walls(iter(rays), rows) == [frozenset({(0, 1, 0)}), frozenset(rays)]


def reference_extreme_rays(cone):
    """The generators on which reference facet normals of rank m - 1 are
    tight."""
    m = cone.dim
    if m < 2:
        return cone.generators[:m]
    facets = reference_facet_data(cone)
    return tuple(
        g
        for i, g in enumerate(cone.generators)
        if linalg.rank([n.num for n, tight in facets if i in tight]) == m - 1
    )


def reference_faces(cone):
    """(dim, sorted ray keys) of every proper nonzero face, by descent through
    the reference facets."""
    found, stack = set(), [cone]
    while stack:
        c = stack.pop()
        for _, tight in reference_facet_data(c):
            f = Cone(c.field, [c.generators[i] for i in tight])
            face = (f.dim, tuple(sorted(g.ray_key() for g in reference_extreme_rays(f))))
            if face not in found:
                found.add(face)
                stack.append(f)
    return sorted(found)


def faces(cone):
    return [(f.dim, tuple(sorted(f.key()))) for f in cone.proper_faces()]


@st.composite
def independent_generators(draw):
    """One to degree independent generators with small coordinates."""
    F = make_field(draw(st.sampled_from(FIELDS)))
    n = F.degree
    vec = st.lists(st.integers(-2, 3), min_size=n, max_size=n)
    rows = draw(st.lists(vec, min_size=1, max_size=n))
    assume(linalg.rank(rows) == len(rows))
    return F, [F.element(v) for v in rows]


class TestRaysAndFacesAgainstReference:
    @settings(max_examples=80, deadline=None)
    @given(independent_generators())
    def test_simplicial(self, case):
        F, gens = case
        cone = Cone(F, gens)
        assert cone.extreme_rays == reference_extreme_rays(cone)
        assert faces(cone) == reference_faces(cone)

    def test_cube(self):
        F = make_field(QUARTIC)
        cube = Cone(F, [elem(F, sx, sy, sz, 1) for sx in (1, -1) for sy in (1, -1) for sz in (1, -1)])
        assert len(cube.extreme_rays) == 8
        assert cube.extreme_rays == reference_extreme_rays(cube)
        assert faces(cube) == reference_faces(cube)

    def test_non_simplicial_intersection(self):
        # a triangle and a quadrilateral meet in a hexagon
        F = make_field(CUBIC)
        a = Cone(F, [elem(F, 2, 1, 0), elem(F, 0, 2, 1), elem(F, 1, 0, 2)])
        b = Cone(F, [elem(F, 3, 1, 1), elem(F, 1, 3, 1), elem(F, 1, 1, 3), elem(F, 2, 2, -1)])
        meet = a.intersection(b)
        assert not is_simplicial(meet)
        assert meet.extreme_rays == reference_extreme_rays(meet)
        assert faces(meet) == reference_faces(meet)


@st.composite
def subspace_and_vector(draw):
    """A span of up to degree rows and a vector: a rational combination of
    the rows, or a free vector."""
    F = make_field(draw(st.sampled_from(FIELDS)))
    n = F.degree
    coord = st.fractions(min_value=-5, max_value=5, max_denominator=4)
    rows = draw(st.lists(st.lists(coord, min_size=n, max_size=n), min_size=0, max_size=n))
    if rows and draw(st.booleans()):
        coeffs = draw(st.lists(coord, min_size=len(rows), max_size=len(rows)))
        v = [sum((c * r[i] for c, r in zip(coeffs, rows)), Fraction(0)) for i in range(n)]
    else:
        v = draw(st.lists(coord, min_size=n, max_size=n))
    return LinearSubspace(F, rows), tuple(v)


class TestCoordinates:
    @settings(max_examples=200, deadline=None)
    @given(subspace_and_vector())
    def test_coordinates_match_solve_and_rank(self, case):
        S, v = case
        c = span_coordinates(S, v)
        inside = linalg.rank(list(S.basis) + [v]) == S.dim
        assert (c is not None) == inside
        if S.dim:
            # the basis rows are independent, so a solution is unique
            assert c == linalg.solve([tuple(b[i] for b in S.basis) for i in range(len(v))], v)
        if inside:
            assert span_point(S, c).coords == v
            assert span_contains(S, S.field.element(v))

    @settings(max_examples=100, deadline=None)
    @given(subspace_and_vector(), st.data())
    def test_contains_subspace_matches_rank(self, case, data):
        S, v = case
        k = data.draw(st.integers(0, S.dim))
        T = LinearSubspace(S.field, list(S.basis[:k]) + [v])
        assert contains_subspace(S, T) == (linalg.rank(list(S.basis) + list(T.basis)) == S.dim)


# ---------------------------------------------------------------------------
# carriers, and membership by coordinates against the facet-normal test


def triangle_generators(F):
    """Independent generators g_1..g_n with small coordinates."""
    n = F.degree
    return [F.element([2 if i == j else 1 for j in range(n)]) for i in range(n)]


def carrier_key(cone, x):
    """The key of the carrier of x in a top cone by the rule partial_sum and
    converge read off its TermForm: the rays whose row does not vanish."""
    frame = LatticeFrame(std_basis(cone.field))
    cols = frame.oriented(cone)
    form = summation.TermForm.in_basis(cols, frame.det, frame.field)
    Y, _ = frame.coordinates(x)
    return frozenset(frame.point(c).ray_key() for c in summation.carrier(cols, form, Y))


def one_top_window(cone):
    basis = tuple(std_basis(cone.field))
    return truncate(FanDescription("explicit", basis, (), orbit_cones=(cone,)), 0)


class TestCarrier:
    @pytest.mark.parametrize("poly", FIELDS)
    def test_faces_of_a_simplicial_cone(self, poly):
        F = make_field(poly)
        g = triangle_generators(F)
        cone = Cone(F, g)
        assert carrier_key(cone, g[0] * 3) == Cone(F, [g[0]]).key()
        # a point on a 2-face: the cone itself in degree 2
        wall = carrier_key(cone, g[0] + g[1] * Fraction(1, 2))
        assert wall == Cone(F, g[:2]).key()
        assert (wall == cone.key()) == (F.degree == 2)
        assert carrier_key(cone, cone.interior_point()) == cone.key()
        # the coordinates decide, not the sign: -g_1 + g_2 has carrier g_1 g_2
        assert carrier_key(cone, g[1] - g[0]) == Cone(F, g[:2]).key()

    def test_square_cone_is_not_simplicial(self):
        F = make_field(CUBIC)
        corners = [(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1)]
        square = Cone(F, [elem(F, *c) for c in corners])
        with pytest.raises(NotSimplicial):
            carrier_key(square, elem(F, 0, 0, 1))

    @pytest.mark.parametrize("poly", FIELDS)
    def test_zero_point_rejected(self, poly):
        F = make_field(poly)
        with pytest.raises(ZeroInput):
            one_top_window(Cone(F, triangle_generators(F))).group_singular_terms(F.zero)


def reference_contains(cone, x, strict):
    """Membership as the facet normals decided it for every simplicial cone,
    with a coefficient test on a ray."""
    if x.is_zero():
        return not strict
    if not span_contains(cone.span, x):
        return False
    if cone.dim == 1:
        coeffs = solve_in_basis([cone.generators[0]], x)
        return coeffs is not None and (coeffs[0] > 0 if strict else coeffs[0] >= 0)
    pairings = [trace_pairing(n, x) for n, _ in reference_facet_data(cone)]
    return all(p > 0 if strict else p >= 0 for p in pairings)


@st.composite
def cone_and_point(draw):
    """Independent generators and a point: a combination of them with
    coefficients in -1..2 (on a face, inside or outside the cone), or a free
    vector (usually outside a lower-dimensional span)."""
    F, gens = draw(independent_generators())
    if draw(st.booleans()):
        coeffs = draw(st.lists(st.integers(-1, 2), min_size=len(gens), max_size=len(gens)))
        x = F.zero
        for c, g in zip(coeffs, gens):
            x = x + g * c
    else:
        x = F.element(draw(st.lists(st.integers(-3, 3), min_size=F.degree, max_size=F.degree)))
    return Cone(F, gens), x


class TestContainsByCoordinates:
    @settings(max_examples=150, deadline=None)
    @given(cone_and_point())
    def test_matches_facet_normals(self, case):
        cone, x = case
        assert cone.contains(x) == reference_contains(cone, x, strict=False)
        assert cone.contains_strictly(x) == reference_contains(cone, x, strict=True)


class TestSalience:
    def test_line_is_not_salient(self):
        F = make_field(QUADRATIC)
        g = elem(F, 1, 1)  # 1 + sqrt3
        line = Cone(F, [g, -g])
        assert line.dim == 1 and not line.is_salient()
        with pytest.raises(NotSalient):
            ProjPolyhedron(line)

    def test_ray_and_zero_cone_are_salient(self):
        F = make_field(QUADRATIC)
        assert Cone(F, [elem(F, 1, 1)]).is_salient()
        assert Cone(F, []).is_salient()


class TestCoordinateRows:
    @pytest.mark.parametrize("poly", FIELDS)
    def test_full_dimensional_cone_solves_no_system(self, poly, monkeypatch):
        F = make_field(poly)
        g = triangle_generators(F)
        cone = Cone(F, g)
        calls = []

        def counted(basis, x):
            calls.append(x)
            return solve_in_basis(basis, x)

        monkeypatch.setattr(geometry, "solve_in_basis", counted)
        for x in (g[0] * 3, g[0] + g[1] * Fraction(1, 2), cone.interior_point(), g[1] - g[0]):
            cone.contains(x), cone.contains_strictly(x)
        assert calls == []
        # nor does a lower-dimensional face
        assert Cone(F, g[:-1]).contains(g[0])
        assert calls == []

    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from(FIELDS), st.data())
    def test_rows_give_coordinates(self, poly, data):
        F = make_field(poly)
        n = F.degree
        vec = st.lists(st.integers(-3, 3), min_size=n, max_size=n)
        rows = data.draw(st.lists(vec, min_size=n, max_size=n))
        assume(linalg.rank(rows) == n)
        dens = data.draw(st.lists(st.integers(1, 6), min_size=n, max_size=n))
        gens = [F.element([Fraction(v, d) for v in row]) for row, d in zip(rows, dens)]
        x = F.element([Fraction(v, 5) for v in data.draw(vec)])
        rows, d = geometry.coordinate_rows(gens)
        coords = [Fraction(sum(r * v for r, v in zip(row, x.num)), d * x.den) for row in rows]
        assert d > 0 and coords == list(solve_in_basis(gens, x))


def reference_dual_basis(points):
    """The dual basis as summation.dual_basis solved it before
    geometry.trace_duals: the inverse of the Gram matrix of trace pairings,
    applied to the points by field arithmetic."""
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


@st.composite
def field_tuples(draw):
    """n points of Q(sqrt 3), the cubic field or the quartic test field with
    small numerators over small denominators, dependent or not."""
    F = make_field(draw(st.sampled_from(FIELDS)))
    n = F.degree
    vec = st.lists(st.integers(-3, 3), min_size=n, max_size=n)
    rows = draw(st.lists(vec, min_size=n, max_size=n))
    dens = draw(st.lists(st.integers(1, 6), min_size=n, max_size=n))
    return F, [F.element([Fraction(v, d) for v in row]) for row, d in zip(rows, dens)]


class TestTraceDuals:
    @settings(max_examples=150, deadline=None)
    @given(field_tuples())
    def test_duals_pair_to_delta_and_match_the_gram_inverse(self, case):
        F, points = case
        assume(linalg.rank([p.num for p in points]) == F.degree)
        duals = trace_duals(points)
        assert [[trace_pairing(a, b) for b in duals] for a in points] == [
            [int(i == j) for j in range(F.degree)] for i in range(F.degree)]
        assert duals == reference_dual_basis(points)

    @settings(max_examples=60, deadline=None)
    @given(field_tuples(), st.data())
    def test_dependent_tuples_raise(self, case, data):
        # the last point replaced by a rational combination of the others
        F, points = case
        coeffs = data.draw(st.lists(st.integers(-2, 2), min_size=F.degree - 1,
                                    max_size=F.degree - 1))
        last = sum((p * c for p, c in zip(points, coeffs)), F.zero)
        with pytest.raises(DependentTuple):
            trace_duals(points[:-1] + [last])
        with pytest.raises(DependentTuple):
            reference_dual_basis(points[:-1] + [last])
