import itertools
import sys
from fractions import Fraction

import mpmath
import pytest

from conesum import unitsearch
from conesum.errors import (
    DegreeMismatch,
    DegreeTooSmall,
    InvalidBounds,
    NotAUnit,
    NotTotallyPositive,
    UnitRankMismatch,
    WindowTooSmall,
)
from conesum.field import UnitGroupData, make_field
from conesum.unitsearch import (
    AdmissibleCandidate,
    LogLattice,
    check_admissible,
    check_admissible_bounds,
    compare_places,
    convexity_check,
    exhaustion_contains,
    hull_chart,
    search_admissible,
    unit_region_conditions,
    verify_vertices,
)

CUBIC = [1, -2, -1, 1]
A_BOUND = Fraction(13, 10)
B_BOUND = Fraction(5, 2)  # b > a^3 = 2.197
RADIUS = 4  # smallest radius at which the search below succeeds


def cubic_units():
    F = make_field(CUBIC)
    th = F.theta
    return F, UnitGroupData((th * th, (th - F.one) * (th - F.one)))


@pytest.fixture(scope="module")
def found_candidate():
    _, V = cubic_units()
    cand = search_admissible(V, A_BOUND, B_BOUND, RADIUS)
    assert cand is not None
    return cand


class TestComparePlaces:
    def test_rational_element_all_equal(self):
        F, _ = cubic_units()
        x = F.from_rational(Fraction(7, 2))
        assert compare_places(x, 0, 1) == 0

    def test_generator_places_ordered(self):
        F, _ = cubic_units()
        # roots sorted increasing: place order is strict for the generator
        assert compare_places(F.theta, 0, 1) < 0
        assert compare_places(F.theta, 1, 2) < 0


class TestLogLattice:
    def test_regulator_nonzero_for_independent_units(self):
        _, V = cubic_units()
        assert LogLattice(V).regulator_nonzero()

    def test_log_vectors_sum_to_zero(self):
        import mpmath

        _, V = cubic_units()
        lat = LogLattice(V)
        vec = lat.log_vector((1, -2), 128)
        total = mpmath.iv.mpf(0)
        for entry in vec:
            total = total + entry
        assert 0 in total

    def test_empty_unit_group_is_a_rank_mismatch(self):
        with pytest.raises(UnitRankMismatch):
            LogLattice(UnitGroupData(()))


class TestSearch:
    def test_empty_unit_group_is_a_rank_mismatch(self):
        with pytest.raises(UnitRankMismatch):
            search_admissible(UnitGroupData(()), 2, 3, 2)

    def test_requires_degree_three(self):
        F2 = make_field([-3, 0, 1])
        from conesum.field import fundamental_unit_quadratic

        V2 = UnitGroupData((fundamental_unit_quadratic(3),))
        with pytest.raises(DegreeTooSmall):
            search_admissible(V2, A_BOUND, B_BOUND, 2)

    def test_admissibility_check_requires_degree_three(self):
        from conesum.field import fundamental_unit_quadratic

        u = fundamental_unit_quadratic(3)
        with pytest.raises(DegreeTooSmall):
            check_admissible((u, u))

    @pytest.mark.parametrize("a, b", [(3, 2), (1, 2), (2, 2)])
    def test_bounds_must_satisfy_b_above_a_above_one(self, a, b):
        _, V = cubic_units()
        with pytest.raises(InvalidBounds):
            search_admissible(V, Fraction(a), Fraction(b), RADIUS)

    def test_radius_zero_finds_nothing(self):
        _, V = cubic_units()
        assert search_admissible(V, A_BOUND, B_BOUND, 0) is None

    def test_search_finds_candidate(self, found_candidate):
        cand = found_candidate
        assert len(cand.units) == 3
        assert cand.b > cand.a**3 > 1

    def test_found_units_pass_bound_conditions(self, found_candidate):
        report = check_admissible_bounds(found_candidate)
        assert report.passed, report.as_dict()

    def test_found_units_are_admissible(self, found_candidate):
        report = check_admissible(found_candidate.units)
        assert report.passed, report.as_dict()

    def test_one_root_isolation_per_unit(self, found_candidate):
        # each of the three units and each of their six ratios has its
        # minimal polynomial's roots isolated once; calls are counted by code
        # object, however the function was imported
        from conesum.field import isolate_real_roots

        code = isolate_real_roots.__code__
        calls = []

        def profile(frame, event, arg):
            if event == "call" and frame.f_code is code:
                calls.append(frame.f_code.co_name)

        units = found_candidate.units
        sys.setprofile(profile)
        try:
            report = check_admissible(units)
        finally:
            sys.setprofile(None)
        assert report.passed
        assert len(calls) == len(units) + len(units) * (len(units) - 1)

    def test_limit_pairs_cycle_through_places(self, found_candidate):
        from conesum.field import limit_pair

        n = 3
        for i, eps in enumerate(found_candidate.units):
            mins, maxs = limit_pair(eps)
            assert mins == frozenset({i + 1})
            assert maxs == frozenset({(i + 1) % n + 1})

    def test_rational_unit_has_no_distinct_coordinates(self):
        F, _ = cubic_units()
        report = check_admissible((F.one, F.one, F.one))
        names = {c.name: c.passed for c in report.conditions}
        assert not report.passed
        assert not names["unit1-distinct-coordinates"]
        assert names["unit1-limit-pair"] is False  # ({1, 2, 3}, {1, 2, 3})

    def test_trivial_units_fail(self):
        F, _ = cubic_units()
        ones = (F.one, F.one, F.one)
        with pytest.raises(AssertionError):
            # 1 is a unit but fails the region conditions; candidate asserts TP
            cand = AdmissibleCandidate(units=ones, a=A_BOUND, b=B_BOUND)
            c1, _, _, _ = unit_region_conditions(ones[0], 0, A_BOUND, B_BOUND)
            assert c1

    @pytest.mark.parametrize("bad,error", [(2, NotAUnit), (-1, NotTotallyPositive)])
    def test_candidate_units_checked(self, bad, error):
        F, _ = cubic_units()
        with pytest.raises(error):
            AdmissibleCandidate(
                units=(F.one, F.from_rational(bad), F.one), a=A_BOUND, b=B_BOUND
            )

    def test_squared_unit_breaks_ratio_condition(self, found_candidate):
        # squaring one unit doubles its log vector: the ratio bound (a) for
        # the places away from the minimum is violated, and only that
        eps = found_candidate.units[0]
        c1, c2, c3, c4 = unit_region_conditions(
            eps * eps, 0, found_candidate.a, found_candidate.b
        )
        assert c1 and c2 and c4
        assert not c3


class TestHullChart:
    def test_exponents_certified_positive(self, found_candidate):
        for I in itertools.combinations(range(3), 2):
            chart = hull_chart(found_candidate, I, 3)
            assert all(lo > 0 for lo, _ in chart.exponents)

    def test_charted_points_on_boundary_surface(self, found_candidate):
        # the chart constructor certifies prod z_i^(a_i) = 1 within interval
        # width for every charted point; reaching here means it held
        chart = hull_chart(found_candidate, (0, 1), 3)
        assert len(chart.points) == 7  # exponents (k, -k), |k| <= 3

    def test_omitted_index_is_complement(self, found_candidate):
        chart = hull_chart(found_candidate, (0, 2), 3)
        assert chart.omitted == 1

    @pytest.mark.parametrize("I", [(0,), (0, 0), (0, 5)])
    def test_index_set_must_be_n_minus_one_places(self, found_candidate, I):
        with pytest.raises(DegreeMismatch):
            hull_chart(found_candidate, I, 3)

    def test_cache_holds_at_most_its_bound(self, found_candidate, monkeypatch):
        # the bound is lowered so that a few small charts overflow it
        bound = 3
        monkeypatch.setattr(unitsearch, "_chart_cache", {})
        monkeypatch.setattr(unitsearch, "_CHART_CACHE_SIZE", bound)
        windows = range(1, bound + 3)
        for window in windows:
            hull_chart(found_candidate, (0, 1), window)
        assert len(unitsearch._chart_cache) == bound
        # the oldest charts were evicted first
        assert [key[-1] for key in unitsearch._chart_cache] == list(windows)[-bound:]


class TestVerifyVertices:
    def test_window_three(self, found_candidate):
        for I in itertools.combinations(range(3), 2):
            chart = hull_chart(found_candidate, I, 3)
            assert verify_vertices(chart)

    def test_single_point_window(self, found_candidate):
        chart = hull_chart(found_candidate, (0, 1), 0)
        assert verify_vertices(chart)

    def test_non_vertex_point_detected(self, found_candidate):
        # adulterate a chart with the midpoint of two charted points: the
        # separation certificate must fail for it
        import copy

        chart = hull_chart(found_candidate, (0, 1), 2)
        fake = copy.deepcopy(chart)
        keys = sorted(fake.points)
        p, q = fake.points[keys[0]], fake.points[keys[1]]
        mid = tuple((a + b) / 2 for a, b in zip(p, q))
        fake.points[(99, -99)] = mid
        assert verify_vertices(fake) is False


class TestExhaustion:
    def test_monotone_and_eventually_true(self, found_candidate):
        F, _ = cubic_units()
        x = F.element([3, 1, 0])
        seen_true = False
        for N in range(0, 9):
            try:
                r = exhaustion_contains(found_candidate, N, x, window=5)
            except WindowTooSmall:
                assert not seen_true
                continue
            if seen_true:
                assert r  # monotone in N
            seen_true = seen_true or r
        assert seen_true

    def test_non_totally_positive_never_contained(self, found_candidate):
        F, _ = cubic_units()
        assert exhaustion_contains(found_candidate, 5, F.theta, window=4) is False

    def test_one_is_contained_quickly(self, found_candidate):
        F, _ = cubic_units()
        assert exhaustion_contains(found_candidate, 1, F.one, window=5)


class TestIntervalPrecision:
    """The interval code sets mpmath.iv.prec only for its own blocks."""

    def test_prec_restored(self, found_candidate, monkeypatch):
        F, V = cubic_units()
        monkeypatch.setattr(unitsearch, "_chart_cache", {})  # chart afresh
        monkeypatch.setattr(mpmath.iv, "prec", 37)
        chart = hull_chart(found_candidate, (0, 1), 3)
        assert mpmath.iv.prec == 37
        assert exhaustion_contains(found_candidate, 1, F.one, window=3)
        assert mpmath.iv.prec == 37
        assert LogLattice(V).regulator_nonzero()
        assert mpmath.iv.prec == 37
        assert verify_vertices(chart)
        assert mpmath.iv.prec == 37

    def test_vertices_certified_at_chart_precision(self, found_candidate, monkeypatch):
        chart = hull_chart(found_candidate, (0, 2), 3)
        seen = []
        real_sign = unitsearch._iv_sign
        monkeypatch.setattr(
            unitsearch, "_iv_sign", lambda iv: seen.append(mpmath.iv.prec) or real_sign(iv)
        )
        monkeypatch.setattr(mpmath.iv, "prec", 20)
        assert verify_vertices(chart)
        assert seen and set(seen) == {chart.prec}


class TestConvexityCheck:
    def test_reference_value_two_variables(self):
        # n = 4 gives two chart variables; at p = (1,1), z = (1,1) the first
        # leading minor is p1 (1 + p1) = 2
        assert convexity_check([1, 1], [[1.0, 1.0]])

    def test_grid(self):
        grid = [[0.7, 1.3], [1.0, 2.0], [2.5, 0.8], [1.1, 1.1]]
        assert convexity_check([Fraction(1, 2), Fraction(3, 2)], grid)

    def test_rejects_nonpositive_exponent(self):
        with pytest.raises(ValueError):
            convexity_check([1, 0], [[1.0, 1.0]])

    def test_finite_differences_match_closed_form(self):
        # the check itself enforces the 1e-6-relative agreement at step 1e-4
        assert convexity_check([2, 1], [[1.5, 0.9]], fd_step=1e-4, rel_tol=1e-6)
