import functools
import itertools
import time
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conesum import fan, field, linalg
from conesum.errors import (
    NegativeIndex,
    NotSimplicial,
    NotTotallyPositive,
    RayOnExistingFace,
    UnitDoesNotPreserveM,
    UnsupportedFanKind,
    ZeroInput,
)
from conesum.field import (
    UnitPowers,
    det_scaled,
    fundamental_unit_quadratic,
    make_field,
)
from conesum.fan import (
    FanDescription,
    TruncatedFan,
    build_quadratic_fan,
    refine,
    refine_insert_ray,
    truncate,
    validate_good_fan,
    window_exponents,
)
from conesum.geometry import Cone, LinearSubspace, cut, integer_rays, solve_in_basis
from conesum.summation import converge, partial_sum
from test_geometry import reference_intersection


# ---------------------------------------------------------------------------
# brute-force oracle: totally positive lattice points in an embedding box


def _embedding_box_candidates(module_basis, bounds):
    """Integer coordinate pairs whose embeddings can lie in the given box.

    The box is only used to bound the search; membership is re-checked
    exactly by the caller.
    """
    m1, m2 = module_basis
    F = m1.field
    e1 = [float(iv.midpoint()) for iv in F.embed(m1, 40)]
    e2 = [float(iv.midpoint()) for iv in F.embed(m2, 40)]
    det = e1[0] * e2[1] - e1[1] * e2[0]
    corners = list(itertools.product(*[(lo, hi) for lo, hi in bounds]))
    amin = amax = bmin = bmax = None
    for x, y in corners:
        a = (x * e2[1] - y * e2[0]) / det
        b = (-x * e1[1] + y * e1[0]) / det
        amin = a if amin is None else min(amin, a)
        amax = a if amax is None else max(amax, a)
        bmin = b if bmin is None else min(bmin, b)
        bmax = b if bmax is None else max(bmax, b)
    pad = 2
    for a in range(int(amin) - pad, int(amax) + pad + 1):
        for b in range(int(bmin) - pad, int(bmax) + pad + 1):
            if a or b:
                yield (a, b)


def _module_point(module_basis, a, b):
    return module_basis[0] * a + module_basis[1] * b


def _tp_points_in_box(module_basis, upper1, upper2):
    """Totally positive lattice points with embeddings below the given
    elements at places 1 and 2 respectively (exact filtering)."""
    F = module_basis[0].field
    hi1 = float(F.embed_at(upper1, 0, 20).endpoints()[1]) + 0.01
    hi2 = float(F.embed_at(upper2, 1, 20).endpoints()[1]) + 0.01
    out = []
    for a, b in _embedding_box_candidates(module_basis, [(0.0, hi1), (0.0, hi2)]):
        mu = _module_point(module_basis, a, b)
        if mu.is_zero():
            continue
        if F.sign_at(mu, 0) <= 0 or F.sign_at(mu, 1) <= 0:
            continue
        if F.sign_at(upper1 - mu, 0) < 0 or F.sign_at(upper2 - mu, 1) < 0:
            continue
        out.append(mu)
    return out


def _cross_sign(u, v):
    """Sign of the 2x2 embedding determinant of (u, v); exact."""
    d = det_scaled([u, v])
    return 0 if d.q == 0 else (1 if d.q > 0 else -1)


def sqrt3_setup():
    F = make_field([-3, 0, 1])
    M = (F.one, F.theta / 3)
    eps = fundamental_unit_quadratic(3)
    return F, M, eps


def sqrt2_setup():
    F = make_field([-2, 0, 1])
    return F, (F.one, F.theta), fundamental_unit_quadratic(2)


def sqrt5_setup():
    F = make_field([-5, 0, 1])
    phi = F.element([Fraction(1, 2), Fraction(1, 2)])
    return F, (F.one, phi), fundamental_unit_quadratic(5)


def sqrt13_setup():
    F = make_field([-13, 0, 1])
    omega = F.element([Fraction(1, 2), Fraction(1, 2)])
    return F, (F.one, omega), fundamental_unit_quadratic(13)


def sqrt19_setup():
    F = make_field([-19, 0, 1])
    return F, (F.one, F.theta), fundamental_unit_quadratic(19)


FIVE_FIELDS = [sqrt2_setup, sqrt3_setup, sqrt5_setup, sqrt13_setup, sqrt19_setup]


def positive_roots_setup():
    # Q(sqrt 5) as Q(theta), theta^2 - 3 theta + 1 = 0: both roots are
    # positive, so a cone's generators, sorted by ray key, can run against
    # the boundary orientation
    F = make_field([1, -3, 1])
    return F, (F.one, F.theta), F.theta


class TestQuadraticHull:
    def test_sqrt3_period_and_b_cycle(self):
        F, M, eps = sqrt3_setup()
        _, vs = build_quadratic_fan(M, eps)
        assert vs.period == 2
        assert vs.b_cycle == (2, 3)
        assert vs.base_points[0] == F.one
        assert vs.base_points[1] == F.one + F.theta / 3

    def test_sqrt2_period_and_b_cycle(self):
        F, M, eps = sqrt2_setup()
        _, vs = build_quadratic_fan(M, eps)
        assert vs.period == 2
        assert vs.b_cycle == (2, 4)

    def test_sqrt5_period_one(self):
        F, M, eps = sqrt5_setup()
        _, vs = build_quadratic_fan(M, eps)
        assert vs.period == 1
        assert vs.b_cycle == (3,)

    def test_three_term_relation_window(self):
        _, M, eps = sqrt3_setup()
        _, vs = build_quadratic_fan(M, eps)
        for k in range(-6, 7):
            lhs = vs.point(k - 1) + vs.point(k + 1)
            rel = solve_in_basis([vs.point(k)], lhs)
            assert rel is not None and rel[0] == vs.b(k)

    def test_unit_translates_sequence(self):
        _, M, eps = sqrt3_setup()
        _, vs = build_quadratic_fan(M, eps)
        for k in range(-4, 5):
            assert vs.point(k + vs.period) == vs.point(k) * vs.unit

    def test_points_are_primitive(self):
        from conesum.geometry import primitive_generator

        _, M, eps = sqrt3_setup()
        _, vs = build_quadratic_fan(M, eps)
        for k in range(-4, 5):
            p = vs.point(k)
            assert primitive_generator(p, list(M)) == p

    def test_consecutive_pairs_positively_oriented(self):
        _, M, eps = sqrt3_setup()
        _, vs = build_quadratic_fan(M, eps)
        for k in range(-5, 6):
            assert det_scaled([vs.point(k), vs.point(k + 1)]).q > 0

    def test_hull_property_no_point_below_polyline(self):
        # exact oracle: every totally positive lattice point lies weakly on
        # the far side of every boundary edge within the window
        F, M, eps = sqrt3_setup()
        _, vs = build_quadratic_fan(M, eps)
        hi = vs.point(6)
        lo = vs.point(-6)
        pts = _tp_points_in_box(M, lo * 2, hi * 2)
        for k in range(-4, 5):
            a, b = vs.point(k), vs.point(k + 1)
            step = b - a
            for mu in pts:
                if mu == a or mu == b:
                    continue
                assert _cross_sign(step, mu - a) <= 0

    def test_unit_must_preserve_lattice(self):
        F, M, eps = sqrt3_setup()
        bad_basis = (F.one, F.theta / 5)
        with pytest.raises(UnitDoesNotPreserveM):
            build_quadratic_fan(bad_basis, eps)

    def test_unit_must_be_totally_positive(self):
        F, M, _ = sqrt3_setup()
        with pytest.raises(NotTotallyPositive):
            build_quadratic_fan(M, F.theta)  # not a TP unit


H = Fraction(1, 2)

# (d, module basis, eps, b_cycle, base_points), all in power-basis coords
PINNED_FANS = [
    (2, [(1, 0), (0, 1)], (3, 2), (2, 4), [(2, 1), (3, 2)]),
    (3, [(1, 0), (0, 1)], (2, 1), (4,), [(1, 0)]),
    (3, [(1, 0), (0, Fraction(1, 3))], (2, 1), (2, 3), [(1, 0), (1, Fraction(1, 3))]),
    (5, [(1, 0), (H, H)], (Fraction(3, 2), H), (3,), [(1, 0)]),
    (6, [(1, 0), (0, 1)], (5, 2), (2, 6), [(3, 1), (5, 2)]),
    (7, [(1, 0), (0, 1)], (8, 3), (3, 6), [(3, 1), (8, 3)]),
    (
        13,
        [(1, 0), (H, H)],
        (Fraction(11, 2), Fraction(3, 2)),
        (2, 2, 5),
        [(Fraction(5, 2), H), (4, 1), (Fraction(11, 2), Fraction(3, 2))],
    ),
    (3, [(1, 0), (0, 2)], (7, 4), (2, 8), [(4, 2), (7, 4)]),
    (2, [(3, 1), (1, 1)], (3, 2), (2, 2, 2, 3), [(3, 1), (4, 2), (5, 3), (6, 4)]),
]


@pytest.mark.parametrize("d, basis, eps, b_cycle, base_points", PINNED_FANS)
def test_pinned_vertex_sequences(d, basis, eps, b_cycle, base_points):
    F = make_field([-d, 0, 1])
    M = tuple(F.element(c) for c in basis)
    _, vs = build_quadratic_fan(M, F.element(eps))
    assert vs.unit == F.element(eps)
    assert vs.b_cycle == b_cycle
    assert vs.base_points == tuple(F.element(c) for c in base_points)


# maximal orders Z[sqrt d] whose units are too large for a box search
LARGE_UNIT_FANS = [
    (19, (170, 39), (2, 2, 3, 2, 10, 2, 3), (22, 5)),
    (46, (24335, 3588), (2, 3, 5, 14, 5, 3, 2, 8), (1153, 170)),
    (
        151,
        (1728148040, 140634693),
        (2, 2, 2, 2, 2, 2, 3, 2, 2, 6, 3, 13, 3, 6, 2)
        + (2, 3, 2, 2, 2, 2, 2, 2, 4, 2, 2, 26, 2, 2, 4),
        (123, 10),
    ),
]


@pytest.mark.parametrize("d, eps, b_cycle, first_point", LARGE_UNIT_FANS)
def test_large_unit_fans_build_fast(d, eps, b_cycle, first_point):
    F = make_field([-d, 0, 1])
    M = (F.one, F.theta)
    unit = fundamental_unit_quadratic(d)
    assert unit == F.element(eps)
    start = time.perf_counter()
    _, vs = build_quadratic_fan(M, unit)
    assert time.perf_counter() - start < 1.0
    assert vs.unit == unit
    assert vs.b_cycle == b_cycle
    assert vs.base_points[0] == F.element(first_point)
    for k in range(vs.period + 1):
        assert vs.point(k - 1) + vs.point(k + 1) == vs.point(k) * vs.b(k)
        # consecutive boundary points form a basis of M
        a, b = (solve_in_basis(list(M), vs.point(k + j)) for j in (0, 1))
        assert abs(a[0] * b[1] - a[1] * b[0]) == 1


class TestTruncate:
    def test_window_one_has_two_periods_of_cones(self):
        _, M, eps = sqrt3_setup()
        desc, vs = build_quadratic_fan(M, eps)
        tf = truncate(desc, 1)
        assert len(tf.top_cones) == 4 * vs.period // 2  # k in [-m, m)
        assert sorted(tf.labels.values()) == list(range(-vs.period, vs.period))

    def test_window_zero_orbit_reps(self):
        _, M, eps = sqrt3_setup()
        desc, vs = build_quadratic_fan(M, eps)
        tf = truncate(desc, 0)
        assert sorted(tf.labels.values()) == list(range(vs.period))

    @pytest.mark.parametrize("setup", [sqrt2_setup, sqrt3_setup, sqrt5_setup, sqrt13_setup])
    @pytest.mark.parametrize("window", [0, 1, 2, 3])
    def test_matches_vertex_index_definition(self, setup, window):
        # window N holds A_k A_{k+1} for k in [-Nm, Nm), labelled k and in
        # that order; window 0 holds k in [0, m)
        F, M, eps = setup()
        desc, vs = build_quadratic_fan(M, eps)
        m = vs.period
        ks = list(range(-window * m, window * m) if window else range(m))
        tf = truncate(desc, window)
        expected = [Cone(F, [vs.point(k), vs.point(k + 1)]) for k in ks]
        assert [t.generators for t in tf.top_cones] == [c.generators for c in expected]
        assert [tf.labels[t.key()] for t in tf.top_cones] == ks

    def test_negative_window_rejected(self):
        _, M, eps = sqrt3_setup()
        desc, _ = build_quadratic_fan(M, eps)
        with pytest.raises(NegativeIndex):
            truncate(desc, -1)

    def test_truncations_nest(self):
        _, M, eps = sqrt3_setup()
        desc, _ = build_quadratic_fan(M, eps)
        small = {t.key() for t in truncate(desc, 1).top_cones}
        large = {t.key() for t in truncate(desc, 2).top_cones}
        assert small < large

    def test_explicit_description_matches_auto(self):
        F, M, eps = sqrt3_setup()
        desc, vs = build_quadratic_fan(M, eps)
        reps = [
            Cone(F, [vs.point(k), vs.point(k + 1)]) for k in range(vs.period)
        ]
        explicit = FanDescription(
            kind="explicit", module_basis=M, units=(vs.unit,), orbit_cones=tuple(reps)
        )
        auto_keys = {t.key() for t in truncate(desc, 2).top_cones}
        expl_keys = {t.key() for t in truncate(explicit, 2).top_cones}
        assert auto_keys <= expl_keys  # explicit window translates both reps


def reference_truncate(description, window):
    """The truncation as Cones: each translate u^e t_r built by mul_unit in
    (e, r) order, the first of each Cone key kept, explicit tops sorted by
    their Fraction ray keys, and quadratic tops labelled e*len(reps) + r;
    as (tops, labels)."""
    quadratic = description.kind == "quadratic-auto"
    reps = description.orbit_cones
    powers = UnitPowers(description.field, description.units)
    seen, labels = {}, {}
    for exponents in window_exponents(description, window):
        for r, rep in enumerate(reps):
            c = rep.mul_unit(powers(exponents))
            if seen.setdefault(c.key(), c) is c and quadratic:
                labels[c.key()] = exponents[0] * len(reps) + r
    tops = list(seen.values())
    if not quadratic:
        tops.sort(key=lambda c: sorted(c.key()))
    return tops, labels


def _explicit_sqrt3(kind):
    """The Q(sqrt 3) fan as explicit representatives over eps; redundant:
    one representative repeated by a translate."""
    F, M, eps = sqrt3_setup()
    _, vs = build_quadratic_fan(M, eps)
    reps = tuple(Cone(F, [vs.point(k), vs.point(k + 1)]) for k in range(vs.period))
    if kind == "explicit-redundant":
        reps += (reps[0].mul_unit(vs.unit),)
    return FanDescription(kind="explicit", module_basis=M, units=(vs.unit,), orbit_cones=reps)


TRUNCATION_FANS = {
    **{setup.__name__[:-6]: lambda setup=setup: build_quadratic_fan(*setup()[1:])[0]
       for setup in FIVE_FIELDS},
    **{kind: lambda kind=kind: _explicit_sqrt3(kind)
       for kind in ("explicit", "explicit-redundant")},
    "cubic": lambda: colmez_cubic_fan(),
}


class TestTruncationReference:
    @pytest.mark.parametrize("fan", sorted(TRUNCATION_FANS))
    @pytest.mark.parametrize("window", [0, 1, 2, 3])
    def test_matches_the_cone_truncation(self, fan, window):
        desc = TRUNCATION_FANS[fan]()
        tf = truncate(desc, window)
        tops, labels = reference_truncate(desc, window)
        assert [t.generators for t in tf.top_cones] == [c.generators for c in tops]
        assert tf.labels == labels
        assert bool(labels) == (desc.kind == "quadratic-auto")

    def test_non_simplicial_representative_truncates(self):
        tf = _square_fan()
        (top,) = tf.top_cones
        assert len(top.extreme_rays) == 4
        assert [t.generators for t in tf.top_cones] == [
            c.generators for c in reference_truncate(tf.description, 0)[0]
        ]


class TestValidation:
    def test_auto_fan_passes(self):
        for setup in (sqrt3_setup, sqrt2_setup, sqrt5_setup):
            _, M, eps = setup()
            desc, _ = build_quadratic_fan(M, eps)
            report = validate_good_fan(truncate(desc, 2))
            assert report.passed, report.as_dict()

    def test_overlapping_cones_fail(self):
        F, M, eps = sqrt3_setup()
        a = Cone(F, [F.element([1, 0]), F.element([1, 1])])
        b = Cone(F, [F.element([2, 1]), F.element([0, 1])])  # overlaps a
        desc = FanDescription(
            kind="explicit", module_basis=M, units=(), orbit_cones=(a, b)
        )
        report = validate_good_fan(truncate(desc, 0))
        details = {c.name: (c.passed, c.detail) for c in report.conditions}
        assert details["common-faces"] == (False, "intersection is not a common face")

    def test_overlapping_unit_translate_fails(self):
        # C(1, eps^2) and its translate C(eps, eps^3) overlap in C(eps, eps^2)
        F, M, eps = sqrt3_setup()
        desc = FanDescription(
            kind="explicit", module_basis=M, units=(eps,), orbit_cones=(Cone(F, [F.one, eps**2]),)
        )
        report = validate_good_fan(truncate(desc, 0))
        details = {c.name: (c.passed, c.detail) for c in report.conditions}
        assert details["common-faces"] == (True, "pairwise intersections are common faces")
        assert details["unit-action"] == (False, "unit translate overlaps the window improperly")

    def test_negative_generator_fails_chamber_check(self):
        F, M, eps = sqrt3_setup()
        bad = Cone(F, [F.element([1, 0]), F.theta])  # theta is not TP
        desc = FanDescription(
            kind="explicit", module_basis=M, units=(), orbit_cones=(bad,)
        )
        report = validate_good_fan(truncate(desc, 0))
        names = {c.name: c.passed for c in report.conditions}
        assert not names["positive-chamber"]


# ---------------------------------------------------------------------------
# singular cones and star groups against brute-force rebuilds of the face lattice


def _by_key(cones):
    return sorted(cones, key=lambda c: tuple(sorted(c.key())))


def brute_cones(tf):
    seen = {}
    for t in tf.top_cones:
        seen.setdefault(t.key(), t)
        for f in t.proper_faces():
            seen.setdefault(f.key(), f)
    return _by_key(seen.values())


def brute_star(cones, sigma):
    return [c for c in cones if sigma.key() <= c.key()]


def brute_singular_cones(tf, x0):
    found = []
    for c in sorted(brute_cones(tf), key=lambda c: c.dim):
        if c.dim < tf.field.degree and c.span.contains(x0):
            if not any(f.key() <= c.key() for f in found):
                found.append(c)
    return found


def colmez_cubic_fan():
    """The cones C(1, e1, e1 e2) and C(1, e2, e1 e2) over the totally
    positive units of the cubic field of discriminant 49."""
    F = make_field([1, -2, -1, 1])
    e1, e2 = F.theta**2, F.element([1, -2, 1])
    reps = (Cone(F, [F.one, e1, e1 * e2]), Cone(F, [F.one, e2, e1 * e2]))
    basis = (F.one, F.theta, F.theta**2)
    return FanDescription(kind="explicit", module_basis=basis, units=(e1, e2), orbit_cones=reps)


class TestConvergeOnRankTwoFan:
    @pytest.mark.parametrize("coords", [[5, 1, 1], [7, -1, 2], [3, 0, 1]])
    def test_rows_match_full_windows(self, coords):
        desc = colmez_cubic_fan()
        x0 = desc.field.element(coords)
        rows = converge(desc, x0, 3, 0.0)
        assert rows == [partial_sum(truncate(desc, n), x0) for n in (1, 2, 3)]


def _keys(cones):
    return [c.key() for c in cones]


def star_sigmas(tf, x0):
    """The singular cones of x0: the sigmas of the star groups."""
    return [g.sigma for g in tf.group_singular_terms(x0) if not g.is_singleton]


class TestFaceLattice:
    @pytest.mark.parametrize("fan", ["sqrt3", "cubic"])
    @pytest.mark.parametrize("window", [1, 2, 3])
    def test_queries_match_brute_force(self, fan, window):
        if fan == "sqrt3":
            _, M, eps = sqrt3_setup()
            desc, _ = build_quadratic_fan(M, eps)
        else:
            desc = colmez_cubic_fan()
        # reversed top cones: no answer may follow the order they come in
        tf = TruncatedFan(desc, truncate(desc, window).pairs[::-1], window)
        F, n = tf.field, tf.field.degree
        t = tf.top_cones[0]
        rays = t.extreme_rays
        points = [F.element([5, 1, 1][:n]), rays[0] * 3, rays[0] + rays[1], t.interior_point()]
        for x0 in points:
            assert _keys(star_sigmas(tf, x0)) == _keys(brute_singular_cones(tf, x0))


class TestSingularCones:
    def test_generic_interior_point(self):
        F, M, eps = sqrt3_setup()
        desc, _ = build_quadratic_fan(M, eps)
        tf = truncate(desc, 2)
        assert star_sigmas(tf, F.element([4, 1])) == []

    def test_point_on_ray(self):
        F, M, eps = sqrt3_setup()
        desc, vs = build_quadratic_fan(M, eps)
        tf = truncate(desc, 2)
        x0 = vs.point(1) * 3
        sing = star_sigmas(tf, x0)
        assert len(sing) == 1
        assert sing[0].key() == Cone(F, [vs.point(1)]).key()

    def test_minimality(self):
        F, M, eps = sqrt3_setup()
        desc, vs = build_quadratic_fan(M, eps)
        tf = truncate(desc, 2)
        x0 = vs.point(0) * 2
        for sigma in star_sigmas(tf, x0):
            for face in sigma.proper_faces():
                assert not face.span.contains(x0)


class TestGrouping:
    def test_generic_all_singletons(self):
        F, M, eps = sqrt3_setup()
        desc, _ = build_quadratic_fan(M, eps)
        tf = truncate(desc, 2)
        groups = tf.group_singular_terms(F.element([4, 1]))
        assert all(g.is_singleton for g in groups)
        assert sum(len(g.cones) for g in groups) == len(tf.top_cones)

    def test_ray_point_groups_two_cones(self):
        F, M, eps = sqrt3_setup()
        desc, vs = build_quadratic_fan(M, eps)
        tf = truncate(desc, 2)
        x0 = vs.point(1) * 3
        groups = tf.group_singular_terms(x0)
        starred = [g for g in groups if not g.is_singleton]
        assert len(starred) == 1
        assert len(starred[0].cones) == 2
        assert sum(len(g.cones) for g in groups) == len(tf.top_cones)

    def test_each_top_cone_exactly_once(self):
        F, M, eps = sqrt2_setup()
        desc, vs = build_quadratic_fan(M, eps)
        tf = truncate(desc, 3)
        for x0 in (F.element([4, 1]), vs.point(0) * 2, vs.point(-1) * 5):
            groups = tf.group_singular_terms(x0)
            keys = [t.key() for g in groups for t in g.cones]
            assert len(keys) == len(set(keys)) == len(tf.top_cones)


def reference_groups(tf, x0):
    """The claim loop that grouped terms before carriers: each brute-force
    singular cone claims the top cones of its star, in star order, and the
    unclaimed tops follow as singletons in top order; as sigma keys and
    member keys."""
    n = tf.field.degree
    cones = brute_cones(tf)
    claimed, groups = set(), []
    for sigma in brute_singular_cones(tf, x0):
        members = [c.key() for c in brute_star(cones, sigma) if c.dim == n]
        assert claimed.isdisjoint(members)
        claimed.update(members)
        groups.append((sigma.key(), members))
    return groups + [(None, [t.key()]) for t in tf.top_cones if t.key() not in claimed]


def _square_fan():
    F = make_field([1, -2, -1, 1])
    square = Cone(F, [F.element(v) for v in ([1, 0, 1], [0, 1, 1], [-1, 0, 1], [0, -1, 1])])
    basis = (F.one, F.theta, F.theta**2)
    return truncate(FanDescription("explicit", basis, (), orbit_cones=(square,)), 0)


def _cubic_explicit(name, units):
    """Cubic explicit fans with degenerate or badly placed representatives,
    over the first `units` of the cubic fan's units."""
    desc = colmez_cubic_fan()
    F, (e1, e2) = desc.field, desc.units
    simplex = desc.orbit_cones[0]
    square = Cone(F, [F.element(v) for v in ([1, 0, 1], [0, 1, 1], [-1, 0, 1], [0, -1, 1])])
    reps = {
        "coplanar": [Cone(F, [F.one, e1, F.one * 2 + e1 * 3])],
        "two-generator": [Cone(F, [F.one, e1])],
        "square-plus-simplex": [square, simplex],
        "coplanar-twice": [Cone(F, [F.one, e1, F.one + e1]), Cone(F, [F.one, e1])],
        "three-on-a-wall": [simplex, Cone(F, [F.one, e1, e2]), Cone(F, [F.one, e1, e1 * e1 * e2])],
        "interior-generator": [Cone(F, [F.one, e1, e1 * e2, F.one + e1 + e1 * e2])],
    }[name]
    units = desc.units[:units]
    return FanDescription("explicit", desc.module_basis, units, orbit_cones=tuple(reps))


NOT_SIMPLICIAL = "all top cones simplicial and full-dimensional"
NOT_POSITIVE = "all generating rays totally positive"
NOT_A_FACE = "intersection is not a common face"
OVERLAP = "unit translate overlaps the window improperly"


MEET_FIELDS = ("sqrt2", "sqrt3", "sqrt5", "sqrt13")


@functools.cache
def _meet_fan(name):
    if name == "cubic":
        return colmez_cubic_fan()
    setup = {s.__name__[:-6]: s for s in FIVE_FIELDS}[name]
    return build_quadratic_fan(*setup()[1:])[0]


@st.composite
def nearby_tops(draw):
    """A fan and the columns of two of its tops u^e t_r, the second's e
    within one step of the first's."""
    desc = _meet_fan(draw(st.sampled_from(MEET_FIELDS + ("cubic",))))
    reps, k = st.integers(0, len(desc.orbit_cones) - 1), len(desc.units)
    e = draw(st.lists(st.integers(-2, 2), min_size=k, max_size=k))
    step = draw(st.lists(st.integers(-1, 1), min_size=k, max_size=k))
    moves = desc.frame.moves
    a = moves[draw(reps)](tuple(e))
    b = moves[draw(reps)](tuple(x + y for x, y in zip(e, step)))
    return desc, a, b


class TestIntegerValidation:
    @pytest.mark.parametrize("fan, units, window, failures", [
        ("coplanar", 2, 1, {"simplicial": NOT_SIMPLICIAL}),
        ("two-generator", 1, 1, {"simplicial": NOT_SIMPLICIAL}),
        ("square-plus-simplex", 0, 0, {"simplicial": NOT_SIMPLICIAL,
                                       "positive-chamber": NOT_POSITIVE,
                                       "common-faces": NOT_A_FACE}),
        ("square-plus-simplex", 1, 1, {"simplicial": NOT_SIMPLICIAL,
                                       "positive-chamber": NOT_POSITIVE,
                                       "common-faces": NOT_A_FACE, "unit-action": OVERLAP}),
        ("coplanar-twice", 2, 1, {"locally-finite": "18 top cones in window, 9 distinct",
                                  "simplicial": NOT_SIMPLICIAL,
                                  "window-coverage": "6 walls shared more than twice"}),
        ("three-on-a-wall", 0, 0, {"common-faces": NOT_A_FACE,
                                   "window-coverage": "1 walls shared more than twice"}),
        ("three-on-a-wall", 2, 1, {"common-faces": NOT_A_FACE, "unit-action": OVERLAP,
                                   "window-coverage": "9 walls shared more than twice"}),
        ("interior-generator", 2, 1, {}),
    ])
    def test_degenerate_cubic_reports(self, fan, units, window, failures):
        report = validate_good_fan(truncate(_cubic_explicit(fan, units), window))
        assert {c.name: c.detail for c in report.conditions if not c.passed} == failures

    @settings(max_examples=40, deadline=None)
    @given(nearby_tops())
    def test_meet_matches_cone_intersection(self, case):
        desc, a, b = case
        frame, n = desc.frame, desc.field.degree
        meet = frozenset(integer_rays(cut(a, n)[1] + cut(b, n)[1], n))
        cones = [Cone(desc.field, [frame.point(c) for c in cols]) for cols in (a, b)]
        # Cone.intersection shares integer_rays with the meet; the Fraction
        # brute force does not
        for expected in (cones[0].intersection(cones[1]), reference_intersection(*cones)):
            keys = set() if expected is None else expected.key()
            assert {frame.point(c).ray_key() for c in meet} == keys
            assert (linalg.rank(meet) == n) == (expected is not None and expected.dim == n)

    def test_builds_no_cone_on_the_cubic_fan(self, monkeypatch):
        tf = truncate(colmez_cubic_fan(), 1)
        calls = []

        def counted(owner, name):
            f = getattr(owner, name)
            monkeypatch.setattr(owner, name, lambda *a, **k: calls.append(name) or f(*a, **k))

        counted(Cone, "__init__")
        counted(Cone, "intersection")
        counted(LinearSubspace, "__init__")
        counted(field, "trace_pairing")
        assert validate_good_fan(tf).passed
        assert calls == []

    @pytest.mark.parametrize("fan_name, units, window", [
        ("three-on-a-wall", 2, 1), ("coplanar-twice", 2, 1), ("interior-generator", 2, 1)])
    def test_coverage_counts_the_walls_of_each_top(self, fan_name, units, window, monkeypatch):
        # one geometry.walls call per top, on its columns and cut normals
        tf = truncate(_cubic_explicit(fan_name, units), window)
        seen = []
        real_walls = fan.walls
        monkeypatch.setattr(fan, "walls", lambda rays, rows: seen.append(real_walls(rays, rows))
                            or seen[-1])
        report = validate_good_fan(tf)
        assert len(seen) == len(tf.pairs)
        over = sum(n > 2 for n in Counter(w for walls in seen for w in walls).values())
        (coverage,) = [c for c in report.conditions if c.name == "window-coverage"]
        assert coverage.passed == (over == 0)


class TestGroupingByCarrier:
    @pytest.mark.parametrize(
        "fan, window",
        [(s, w) for s in FIVE_FIELDS[:4] for w in (1, 2, 3, 4)]
        + [("cubic", w) for w in (1, 2, 3)],
    )
    def test_matches_claim_loop(self, fan, window):
        desc = colmez_cubic_fan() if fan == "cubic" else build_quadratic_fan(*fan()[1:])[0]
        tf = truncate(desc, window)
        tops, pairs = tf.top_cones, tf.pairs
        F = desc.field
        points = [F.element([5, 1, 1][: F.degree])]
        for t in (tops[0], tops[len(tops) // 2], tops[-1]):
            rays = t.extreme_rays
            points += [g * 3 for g in rays] + [rays[0] + rays[1] * 2, t.interior_point()]
        for order in (pairs, pairs[::-1]):
            for x0 in points:
                tf = TruncatedFan(desc, order, window)
                groups = tf.group_singular_terms(x0)
                got = [
                    (None if g.sigma is None else g.sigma.key(), [t.key() for t in g.cones])
                    for g in groups
                ]
                assert got == reference_groups(tf, x0)

    @pytest.mark.parametrize("fan", ["sqrt3", "cubic"])
    def test_builds_no_face_lattice(self, fan):
        desc = colmez_cubic_fan() if fan == "cubic" else build_quadratic_fan(*sqrt3_setup()[1:])[0]
        tf = truncate(desc, 2)
        rays = tf.top_cones[0].extreme_rays
        for x0 in (rays[0] * 3, rays[0] + rays[1]):
            stars = star_sigmas(tf, x0)
            assert stars or x0 != rays[0] * 3
            # no span of a proper face reduced
            assert all("span" not in sigma.__dict__ for sigma in stars)

    def test_zero_point_rejected(self):
        F, M, eps = sqrt3_setup()
        tf = truncate(build_quadratic_fan(M, eps)[0], 2)
        with pytest.raises(ZeroInput):
            tf.group_singular_terms(F.zero)

    def test_non_simplicial_top_rejected(self):
        tf = _square_fan()
        with pytest.raises(NotSimplicial):
            tf.group_singular_terms(tf.field.element([1, 0, 2]))


class TestRefinement:
    def test_split_cone_count_and_validity(self):
        _, M, eps = sqrt3_setup()
        desc, vs = build_quadratic_fan(M, eps)
        tf = truncate(desc, 2)
        ray = tf.top_cones[0].interior_point()
        refined = refine_insert_ray(tf, ray)
        # one orbit class split in two across the whole window
        assert len(refined.top_cones) == len(tf.top_cones) + 2 * tf.window
        assert validate_good_fan(refined).passed

    def test_ray_on_existing_face_rejected(self):
        _, M, eps = sqrt3_setup()
        desc, vs = build_quadratic_fan(M, eps)
        tf = truncate(desc, 1)
        with pytest.raises(RayOnExistingFace):
            refine_insert_ray(tf, vs.point(0))

    def test_explicit_fan_rejected(self):
        F, M, eps = sqrt3_setup()
        desc, vs = build_quadratic_fan(M, eps)
        reps = tuple(Cone(F, [vs.point(k), vs.point(k + 1)]) for k in range(vs.period))
        explicit = FanDescription(
            kind="explicit", module_basis=M, units=(vs.unit,), orbit_cones=reps
        )
        tf = truncate(explicit, 1)
        with pytest.raises(UnsupportedFanKind):
            refine_insert_ray(tf, tf.top_cones[0].interior_point())

    def test_exterior_ray_rejected(self):
        F, M, eps = sqrt3_setup()
        desc, _ = build_quadratic_fan(M, eps)
        tf = truncate(desc, 1)
        with pytest.raises(RayOnExistingFace):
            refine_insert_ray(tf, F.element([1, -1]))  # outside the window


def _label_split(tf, ray):
    """Reference refinement of an unrefined quadratic truncation, from its
    vertex labels: each translate A_k A_{k+1} of the host residue class
    becomes A_k r and r A_{k+1}, with r = ray * eps^shift."""
    vs = tf.description.vertex_sequence
    m, eps = vs.period, vs.unit
    host = next(t for t in tf.top_cones if t.contains_strictly(ray))
    k_host = tf.labels[host.key()]
    tops = []
    for t in tf.top_cones:
        k = tf.labels[t.key()]
        if k % m == k_host % m:
            r = ray * eps ** ((k - k_host) // m)
            tops += [Cone(tf.field, [vs.point(k), r]), Cone(tf.field, [r, vs.point(k + 1)])]
        else:
            tops.append(t)
    return tops


class TestRefineDescription:
    @pytest.mark.parametrize("setup", FIVE_FIELDS + [positive_roots_setup])
    @pytest.mark.parametrize("window", [1, 2, 3, 4, 5])
    def test_matches_label_definition(self, setup, window):
        # a ray in the first, a middle and the last top of the window
        _, M, eps = setup()
        desc, _ = build_quadratic_fan(M, eps)
        tf = truncate(desc, window)
        n = len(tf.top_cones)
        for host in (tf.top_cones[0], tf.top_cones[n // 2], tf.top_cones[-1]):
            ray = host.interior_point()
            refined = refine_insert_ray(tf, ray)
            expected = _label_split(tf, ray)
            assert [t.generators for t in refined.top_cones] == [c.generators for c in expected]

    @pytest.mark.parametrize("setup", [sqrt3_setup, sqrt19_setup])
    def test_refine_twice(self, setup):
        # the second ray lies in a half of the first split
        F, M, eps = setup()
        desc, _ = build_quadratic_fan(M, eps)
        tf = truncate(desc, 3)
        r1 = tf.top_cones[1].interior_point()
        once = refine_insert_ray(tf, r1)
        half = next(t for t in once.top_cones if r1.ray_key() in t.key())
        twice = refine_insert_ray(once, half.interior_point())
        assert len(once.top_cones) == len(tf.top_cones) + 2 * tf.window
        assert len(twice.top_cones) == len(once.top_cones) + 2 * tf.window
        x0 = F.element([5, Fraction(2, 7)])
        assert partial_sum(twice, x0) == partial_sum(tf, x0)

    @pytest.mark.parametrize("setup", FIVE_FIELDS)
    def test_converge_rows_unchanged(self, setup):
        # Lemma 1 on the converge path; the ray lies in the last
        # representative, which is the first only when the period is 1
        F, M, eps = setup()
        desc, _ = build_quadratic_fan(M, eps)
        a, b = desc.orbit_cones[-1].generators
        x0 = F.element([5, Fraction(2, 7)])
        refined = refine(desc, a + b * 2)
        assert len(refined.orbit_cones) == len(desc.orbit_cones) + 1
        assert converge(refined, x0, 6, 0.0) == converge(desc, x0, 6, 0.0)

    def test_explicit_fan_rejected(self):
        desc = colmez_cubic_fan()
        with pytest.raises(UnsupportedFanKind):
            refine(desc, desc.orbit_cones[0].interior_point())

    def test_representative_generator_rejected(self):
        _, M, eps = sqrt3_setup()
        desc, _ = build_quadratic_fan(M, eps)
        with pytest.raises(RayOnExistingFace):
            refine(desc, desc.orbit_cones[0].generators[0])
