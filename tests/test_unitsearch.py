import importlib.util
import io
import itertools
import json
import operator
import pickle
import sys
import types
from fractions import Fraction
from functools import reduce
from pathlib import Path

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conesum import cli, config, interval, unitsearch
from conesum.errors import (
    DegreeMismatch,
    DegreeTooSmall,
    EmptyInterval,
    InvalidBounds,
    NegativeIndex,
    NotAUnit,
    NotTotallyPositive,
    PrecisionExhausted,
    SingularMatrix,
    UnitRankMismatch,
    WindowTooSmall,
)
from conesum.field import (
    FieldElement,
    TotallyRealField,
    UnitGroupData,
    UnitPowers,
    is_totally_positive,
    is_unit,
    isolate_real_roots,
    limit_pair,
    make_field,
    min_poly_of,
    root_indices,
)
from conesum.fan import ConditionReport, LatticeFrame, ValidationReport
from conesum.interval import GUARD_BITS, Interval
from conesum.unitsearch import (
    PREC_SCHEDULE,
    AdmissibleCandidate,
    HullChart,
    LogLattice,
    check_admissible,
    check_admissible_bounds,
    compare_places,
    exhaustion_contains,
    hull_chart,
    search_admissible,
    unit_region_conditions,
    verify_vertices,
)

ROOT = Path(__file__).resolve().parents[1]
CUBIC = [1, -2, -1, 1]
A_BOUND = Fraction(13, 10)
B_BOUND = Fraction(5, 2)  # b > a^3 = 2.197
RADIUS = 4  # smallest radius at which the search below succeeds


def cubic_units():
    F = make_field(CUBIC)
    th = F.theta
    return F, UnitGroupData((th * th, (th - F.one) * (th - F.one)))


def candidate(units, a=A_BOUND, b=B_BOUND):
    """The candidate of these units; UnitGroupData checks that they are
    totally positive units."""
    return AdmissibleCandidate(LogLattice(UnitGroupData(units)), a, b)


def benchmark_bound_pairs():
    """The (a, b) pairs of the unitsearch benchmark, b > a^3 > 1."""
    path = ROOT / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return [
        (Fraction(a), Fraction(b))
        for a in workloads.UNITSEARCH_A
        for b in workloads.UNITSEARCH_B
        if Fraction(b) > Fraction(a) ** 3 > 1
    ]


def reference_search(V, a, b, radius):
    """The search with every (candidate, region) sent through the exact
    unit_region_conditions, in the search's order."""
    n = V.field.degree
    powers = UnitPowers(V.field, V.generators)
    box = itertools.product(range(-radius, radius + 1), repeat=V.rank)
    found = {}
    for exp in sorted(box, key=lambda e: (max(map(abs, e)), e)):
        if not any(exp) or len(found) == n:
            continue
        eps = powers(exp)
        for i in (i for i in range(n) if i not in found):
            try:
                if all(unit_region_conditions(eps, i, a, b, short_circuit=True)):
                    found[i] = eps
                    break
            except PrecisionExhausted:
                continue
    return tuple(found[i] for i in range(n)) if len(found) == n else None


def reference_check_admissible_bounds(cand):
    """check_admissible_bounds with every unit sent through the exact
    unit_region_conditions."""
    conditions = []
    for idx, eps in enumerate(cand.units):
        c1, c2, c3, c4 = unit_region_conditions(eps, idx, cand.a, cand.b)
        conditions += [
            ConditionReport(f"unit{idx+1}-below-above-one", c1),
            ConditionReport(f"unit{idx+1}-chain", c2),
            ConditionReport(f"unit{idx+1}-ratios-within-a", c3, f"a={cand.a}"),
            ConditionReport(f"unit{idx+1}-ratio-exceeds-b", c4, f"b={cand.b}"),
        ]
    return ValidationReport(conditions)


def reference_check_admissible(units):
    """check_admissible from exact root indices and exact ratios, with each
    independence minor certified from the units' own embedding intervals."""
    field_ = units[0].field
    n = field_.degree
    assignments = [root_indices(eps, range(n)) for eps in units]
    conditions = [
        ConditionReport(f"unit{idx+1}-distinct-coordinates", len(set(assignment)) == n)
        for idx, assignment in enumerate(assignments)
    ]
    for idx, eps in enumerate(units):
        mins, maxs = limit_pair(eps)
        want = (frozenset({idx + 1}), frozenset({(idx + 1) % n + 1}))
        conditions.append(ConditionReport(
            f"unit{idx+1}-limit-pair", (mins, maxs) == want, f"got ({sorted(mins)},{sorted(maxs)})"
        ))
    for i, j in itertools.permutations(range(len(units)), 2):
        ratio = units[i] * units[j].inverse()
        if ratio == field_.one:
            conditions.append(ConditionReport(f"ratio-{i+1}-{j+1}-limit-pair", False, "equal units"))
            continue
        mins, maxs = limit_pair(ratio)
        want = (frozenset({i + 1}), frozenset({j + 1}))
        conditions.append(ConditionReport(
            f"ratio-{i+1}-{j+1}-limit-pair", (mins, maxs) == want,
            f"got ({sorted(mins)},{sorted(maxs)})",
        ))
    for subset in itertools.combinations(range(len(units)), n - 1):
        ok = reference_regulator_nonzero([units[i] for i in subset])
        conditions.append(ConditionReport("independence-" + "".join(str(i + 1) for i in subset), ok))
    return ValidationReport(conditions)


def embedding_iv(x, place, prec):
    """The interval of x^(place) of absolute width about 2^-prec."""
    return Interval.of(*x.field.embed_at(x, place, prec).endpoints(), prec + GUARD_BITS)


def reference_regulator_nonzero(units):
    """Whether the minor of the units' logs on the first places, from
    embedding intervals of width 2^-prec, is certified nonzero at some
    precision of the schedule."""
    for prec in PREC_SCHEDULE:
        try:
            rows = [[embedding_iv(u, p, prec).log() for p in range(len(units))]
                    for u in units]
        except PrecisionExhausted:
            continue
        if unitsearch._iv_sign(unitsearch._iv_det(rows)) is not None:
            return True
    return False


def calls_to(functions, fn, *args):
    """(fn(*args), the names of the calls made to functions meanwhile);
    calls are counted by code object, however a function was imported."""
    codes = {f.__code__ for f in functions}
    calls = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in codes:
            calls.append(frame.f_code.co_name)

    sys.setprofile(profile)
    try:
        result = fn(*args)
    finally:
        sys.setprofile(None)
    return result, calls


def patched_log_matrix(monkeypatch, change, precs=PREC_SCHEDULE):
    """Replace each lattice's log matrix at the precisions precs by change(exp,
    M) of its (exp, M); returns the set of precisions asked for."""
    real_matrix = LogLattice.log_matrix
    asked = set()

    def log_matrix(self, prec):
        asked.add(prec)
        exp, M = real_matrix(self, prec)
        return (exp, change(exp, M)) if prec in precs else (exp, M)

    monkeypatch.setattr(LogLattice, "log_matrix", log_matrix)
    return asked


def widened(log_slack):
    """A change for patched_log_matrix: every bound moved outward by 2^log_slack."""
    def change(exp, M):
        slack = 1 << max(0, log_slack - exp)
        return [[(lo - slack, hi + slack) for lo, hi in row] for row in M]
    return change


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

    def test_log_bounds_sum_to_zero(self):
        _, V = cubic_units()
        bounds = LogLattice(V).log_bounds((1, -2), 128)
        assert all(isinstance(lo, int) and lo <= hi for lo, hi in bounds)
        assert sum(lo for lo, _ in bounds) <= 0 <= sum(hi for _, hi in bounds)

    def test_empty_unit_group_is_a_rank_mismatch(self):
        with pytest.raises(UnitRankMismatch):
            LogLattice(UnitGroupData(()))

    def test_exponent_count_must_match_the_rank(self):
        _, V = cubic_units()
        with pytest.raises(UnitRankMismatch):
            LogLattice(V).log_bounds((1, 2, 3), 64)

    @given(vectors=st.lists(st.tuples(*[st.integers(min_value=-40, max_value=40)] * 2),
                            min_size=1, max_size=30),
           prec=st.sampled_from(PREC_SCHEDULE[:2]))
    @settings(max_examples=50, deadline=None)
    def test_log_bounds_do_not_depend_on_the_walk(self, vectors, prec):
        # vectors in the drawn order on one lattice: each is the direct sum
        # of its generators' bounds, whichever vectors the walk has kept
        _, V = cubic_units()
        lat = LogLattice(V)
        _, M = lat.log_matrix(prec)
        for exp in vectors:
            direct = [(sum(e * b[e < 0] for e, b in zip(exp, row)),
                       sum(e * b[e >= 0] for e, b in zip(exp, row))) for row in M]
            assert list(lat.log_bounds(exp, prec)) == direct, exp

    @pytest.mark.parametrize("exp", [(1, 0), (0, -3), (-5, 0), (1, -2), (4, -3), (-5, 5)])
    def test_log_bounds_enclose_the_log_of_the_product(self, exp):
        # the integer sum of the generators' bounds against the log of the
        # exact product's embedding at 256 bits: both enclose log eps^(p)
        F, V = cubic_units()
        eps = UnitPowers(F, V.generators)(exp)
        lat = LogLattice(V)
        scale = Fraction(2) ** lat.log_matrix(64)[0]
        for p, (lo, hi) in enumerate(lat.log_bounds(exp, 64)):
            lo, hi = lo * scale, hi * scale
            ref_lo, ref_hi = embedding_iv(eps, p, 256).log().endpoints()
            assert lo <= hi and lo <= ref_hi and ref_lo <= hi, (exp, p)


class TestEmbeddingIvPositive:
    @pytest.mark.parametrize("prec", [64, 256, 1024])
    @pytest.mark.parametrize("exp", [(0, 0), (1, 0), (0, -3), (4, -3), (-9, 9), (40, 0)])
    def test_encloses_with_relative_width(self, exp, prec):
        # exactly lo <= x^(p) <= hi, and (hi - lo) / lo <= 2^-prec up to the
        # outward rounding to prec + GUARD_BITS bits
        F, V = cubic_units()
        x = UnitPowers(F, V.generators)(exp) * Fraction(3, 7)
        for p in range(F.degree):
            lo, hi = unitsearch._embedding_iv_positive(x, p, prec).endpoints()
            assert F.sign_at(x - lo, p) >= 0 and F.sign_at(hi - x, p) >= 0
            assert (hi - lo) * 2**prec <= lo * (1 + Fraction(1, 2 ** (GUARD_BITS - 3)))

    def test_negative_embedding_and_zero_raise(self):
        F, _ = cubic_units()
        for x in (-F.one, F.theta - 10, F.zero):
            for p in range(F.degree):
                with pytest.raises(PrecisionExhausted):
                    unitsearch._embedding_iv_positive(x, p, 64)
        # theta is negative at the first place only
        with pytest.raises(PrecisionExhausted):
            unitsearch._embedding_iv_positive(F.theta, 0, 64)
        assert unitsearch._embedding_iv_positive(F.theta, 1, 64).lo > 0


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
            check_admissible(candidate((u, u)))

    @pytest.mark.parametrize("a, b", [(3, 2), (1, 2), (2, 2)])
    def test_bounds_must_satisfy_b_above_a_above_one(self, a, b):
        _, V = cubic_units()
        with pytest.raises(InvalidBounds):
            search_admissible(V, Fraction(a), Fraction(b), RADIUS)

    def test_radius_zero_finds_nothing(self):
        _, V = cubic_units()
        assert search_admissible(V, A_BOUND, B_BOUND, 0) is None

    def test_negative_radius_is_a_negative_index(self):
        _, V = cubic_units()
        with pytest.raises(NegativeIndex):
            search_admissible(V, A_BOUND, B_BOUND, -1)

    def test_regions_decided_only_below_one(self, monkeypatch):
        # c1's first quantities are -log eps^(i) and log eps^(j) for j != i:
        # a region where the bounds make one of them nonpositive is False
        # there, so the search skips it
        _, V = cubic_units()
        lattice, prec = LogLattice(V), PREC_SCHEDULE[0]
        real_decision = unitsearch._region_decision

        def c1_can_hold(logs, i):
            return logs[i][0] < 0 and all(logs[j][1] > 0 for j in range(3) if j != i)

        skipped = 0
        for a, b in benchmark_bound_pairs():
            log_a, log_b = (lattice.rational_log(x, prec) for x in (a, b))
            for exp in itertools.product(range(-RADIUS, RADIUS + 1), repeat=V.rank):
                logs = lattice.log_bounds(exp, prec)
                for i in range(3):
                    if not c1_can_hold(logs, i):
                        skipped += 1
                        assert real_decision(logs, i, log_a, log_b) is False, (a, b, exp, i)
        assert skipped
        decided = []

        def decision(logs, i, log_a, log_b):
            decided.append(c1_can_hold(logs, i))
            return real_decision(logs, i, log_a, log_b)

        monkeypatch.setattr(unitsearch, "_region_decision", decision)
        assert search_admissible(V, A_BOUND, B_BOUND, RADIUS)
        assert len(decided) == 27 and all(decided)

    @pytest.mark.parametrize("radius", [2, 3, 4, 5])
    def test_same_units_as_the_exact_reference(self, radius):
        _, V = cubic_units()
        for a, b in benchmark_bound_pairs():
            cand = search_admissible(V, a, b, radius)
            assert (cand and cand.units) == reference_search(V, a, b, radius), (a, b)

    def test_intervals_open_at_every_precision_exhaust_the_schedule(self, monkeypatch):
        # a log matrix known only to within 2^200 of its scale at every
        # precision leaves every interval around 0: each (candidate, region)
        # is asked at every precision of the schedule, stays open, and is
        # skipped, with no exact region test and no escaping error
        _, V = cubic_units()
        real_matrix = LogLattice.log_matrix
        real_decision = unitsearch._region_decision
        decisions = []

        def coarse_matrix(self, prec):
            exp, M = real_matrix(self, prec)
            slack = 1 << max(0, 200 - exp)
            return exp, [[(lo - slack, hi + slack) for lo, hi in row] for row in M]

        def decision(*args):
            decisions.append(real_decision(*args))
            return decisions[-1]

        monkeypatch.setattr(LogLattice, "log_matrix", coarse_matrix)
        monkeypatch.setattr(unitsearch, "_region_decision", decision)
        exact = (unit_region_conditions, compare_places, unitsearch._ratio_vs_rational)
        cand, calls = calls_to(exact, search_admissible, V, A_BOUND, B_BOUND, RADIUS)
        assert cand is None and calls == []
        assert decisions and set(decisions) == {None}
        nonzero_exponents = (2 * RADIUS + 1) ** V.rank - 1
        assert len(decisions) == len(PREC_SCHEDULE) * nonzero_exponents * 3

    def test_search_finds_candidate(self, found_candidate):
        cand = found_candidate
        assert len(cand.units) == 3
        assert cand.b > cand.a**3 > 1

    def test_found_units_pass_bound_conditions(self, found_candidate):
        report = check_admissible_bounds(found_candidate)
        assert report.passed, report.as_dict()

    def test_found_units_are_admissible(self, found_candidate):
        report = check_admissible(found_candidate)
        assert report.passed, report.as_dict()

    @pytest.mark.parametrize("radius", [4, 5])
    def test_certificates_match_the_exact_references(self, radius):
        # the found sets pass; the same units one place on, and with the
        # first one squared, fail some conditions
        _, V = cubic_units()
        for a, b in benchmark_bound_pairs():
            found = search_admissible(V, a, b, radius)
            u = found.units
            for units in (u, u[1:] + u[:1], (u[0] * u[0],) + u[1:]):
                cand = candidate(units, a, b)
                assert (check_admissible_bounds(cand).as_dict()
                        == reference_check_admissible_bounds(cand).as_dict()), (a, b, units)
                assert (check_admissible(cand).as_dict()
                        == reference_check_admissible(units).as_dict()), (a, b, units)

    def test_no_exact_test_on_the_certified_path(self, found_candidate):
        # the found units' log intervals are disjoint at every place, so no
        # minimal polynomial, root isolation or inverse is computed
        cand = candidate(found_candidate.units)
        exact = (min_poly_of, isolate_real_roots, FieldElement.inverse)
        report, calls = calls_to(exact, check_admissible, cand)
        assert report.passed and calls == []
        report, calls = calls_to((*exact, unit_region_conditions), check_admissible_bounds, cand)
        assert report.passed and calls == []

    def test_intervals_open_at_the_first_precision_are_decided_at_the_next(
            self, found_candidate, monkeypatch):
        # a log matrix known only to within 2^200 of its scale at the first
        # precision leaves every comparison open there; the next precision
        # of the schedule decides each region, bound, limit pair and
        # independence minor, with no exact test
        real_matrix = LogLattice.log_matrix
        asked = set()

        def coarse_matrix(self, prec):
            asked.add(prec)
            exp, M = real_matrix(self, prec)
            if prec != PREC_SCHEDULE[0]:
                return exp, M
            slack = 1 << max(0, 200 - exp)
            return exp, [[(lo - slack, hi + slack) for lo, hi in row] for row in M]

        monkeypatch.setattr(LogLattice, "log_matrix", coarse_matrix)
        cand = candidate(found_candidate.units)
        exact = (unit_region_conditions, compare_places, unitsearch._ratio_vs_rational,
                 limit_pair, root_indices, min_poly_of)
        (bounds, admissible), calls = calls_to(
            (*exact, FieldElement.inverse),
            lambda: (check_admissible_bounds(cand), check_admissible(cand)))
        assert calls == [] and asked == set(PREC_SCHEDULE[:2])
        assert bounds.as_dict() == reference_check_admissible_bounds(cand).as_dict()
        assert admissible.as_dict() == reference_check_admissible(cand.units).as_dict()
        assert admissible.passed
        _, V = cubic_units()
        found, calls = calls_to(exact, search_admissible, V, A_BOUND, B_BOUND, RADIUS)
        assert calls == [] and found.units == found_candidate.units

    def test_units_of_proper_subfields_are_decided_by_their_root_indices(self):
        # in the field of x^4 - 10x^2 + 1, theta = sqrt2 + sqrt3: units of
        # Q(sqrt2), Q(sqrt3) and Q(sqrt6), each with two pairs of equal
        # embeddings, which no precision of the schedule separates; their
        # chains and place orders are read off root_indices
        F = make_field([1, 0, -10, 0, 1])
        u = F.element([3, -9, 0, 1])  # 3 + 2 sqrt2 = 3 + theta^3 - 9 theta
        v = F.element([2, Fraction(11, 2), 0, Fraction(-1, 2)])  # 2 + sqrt3
        w = F.theta * F.theta  # 5 + 2 sqrt6
        assert min_poly_of(u) == [1, -6, 1]
        assert root_indices(u, range(4)) == [0, 1, 0, 1]
        assert limit_pair(u) == (frozenset({1, 3}), frozenset({2, 4}))
        cand = candidate((u, v, w))
        exact = (unit_region_conditions, compare_places)
        bounds, calls = calls_to(exact, check_admissible_bounds, cand)
        assert calls == []
        assert bounds.as_dict() == reference_check_admissible_bounds(cand).as_dict()
        admissible, calls = calls_to(exact, check_admissible, cand)
        assert calls == []
        assert admissible.as_dict() == reference_check_admissible(cand.units).as_dict()
        names = {c.name: c.passed for c in bounds.conditions + admissible.conditions}
        for k in range(1, 4):
            assert names[f"unit{k}-chain"] is False
            assert names[f"unit{k}-distinct-coordinates"] is False
        # v's chain in region 2 and w's in region 3 meet a tie, so only the
        # exact end decides them
        _, tied = calls_to((root_indices,), check_admissible_bounds, candidate((u, v, w)))
        assert tied == ["root_indices"] * 2

    def test_limit_pairs_cycle_through_places(self, found_candidate):
        from conesum.field import limit_pair

        n = 3
        for i, eps in enumerate(found_candidate.units):
            mins, maxs = limit_pair(eps)
            assert mins == frozenset({i + 1})
            assert maxs == frozenset({(i + 1) % n + 1})

    def test_rational_unit_has_no_distinct_coordinates(self):
        F, _ = cubic_units()
        report = check_admissible(candidate((F.one, F.one, F.one)))
        names = {c.name: c.passed for c in report.conditions}
        assert not report.passed
        assert not names["unit1-distinct-coordinates"]
        assert names["unit1-limit-pair"] is False  # ({1, 2, 3}, {1, 2, 3})

    def test_trivial_units_fail(self):
        # 1 is a totally positive unit, so the candidate builds, but it is
        # not below 1 at the first place
        F, _ = cubic_units()
        ones = (F.one, F.one, F.one)
        cand = candidate(ones)
        assert cand.units == ones
        c1, _, _, _ = unit_region_conditions(ones[0], 0, A_BOUND, B_BOUND)
        assert c1 is False
        assert check_admissible_bounds(cand).as_dict() == reference_check_admissible_bounds(
            cand
        ).as_dict()

    def test_c1_of_one_open_at_every_precision_is_false(self, monkeypatch):
        # log matrices within 2^-8 of the truth leave c1 and the chain of the
        # unit 1 open at every precision, and decide c3 and c4; c1 is settled
        # False at eps = 1 and the chain by root_indices, as the exact
        # reference decides them
        F, _ = cubic_units()
        cand = candidate((F.one, F.one, F.one))
        patched_log_matrix(monkeypatch, widened(-8))
        region = unitsearch._regions(cand.lattice, cand.a, cand.b)((1, 0, 0), 0)
        c1, chain, c3, c4 = map(unitsearch._decide,
                                unitsearch._region_quantities(*region(PREC_SCHEDULE[-1])))
        assert (c1, chain, c3, c4) == (None, None, True, False)
        report, calls = calls_to((root_indices, unit_region_conditions),
                                 check_admissible_bounds, cand)
        assert calls == ["root_indices"] * 3
        assert report.as_dict() == reference_check_admissible_bounds(cand).as_dict()
        assert [c.passed for c in report.conditions] == [False, False, True, False] * 3

    def test_lattices_of_equal_units_are_equal(self, found_candidate):
        cand = found_candidate
        again = candidate(cand.units, cand.a, cand.b)
        assert again.lattice is not cand.lattice
        assert again == cand and hash(again) == hash(cand)
        assert candidate(cand.units[::-1], cand.a, cand.b) != cand

    @pytest.mark.parametrize("bad,error", [(2, NotAUnit), (-1, NotTotallyPositive)])
    def test_candidate_units_checked(self, bad, error):
        F, _ = cubic_units()
        with pytest.raises(error):
            candidate((F.one, F.from_rational(bad), F.one))

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
        # the chart constructor checks that sum_p a_p log z_p = 0 can hold
        # at every charted point, on the log matrix's integer bounds;
        # reaching here means it did
        chart = hull_chart(found_candidate, (0, 1), 3)
        assert len(chart.points) == 7  # exponents (k, -k), |k| <= 3

    def test_no_log_of_a_chart_point(self, found_candidate):
        # the boundary check reads the log matrix: the only logs are the
        # lattice's own, one per generator and place at the chart precision
        cand = candidate(found_candidate.units)
        charts, calls = calls_to((Interval.log,), lambda: [
            hull_chart(cand, I, 3) for I in itertools.combinations(range(3), 2)])
        assert {c.prec for c in charts} == {PREC_SCHEDULE[0]}
        assert len(calls) == 3 * 3

    @staticmethod
    def boundary_loop_raises(a_vec, z):
        """Whether the interval loop the chart ran before the integer check
        certifies the point z off sum_p a_p log z_p = 0."""
        form = reduce(operator.add, (ai * zi.log() for ai, zi in zip(a_vec, z)))
        return unitsearch._iv_sign(form) is not None

    @staticmethod
    def boundary_check_raises(cand, chart, a_vec, exp):
        try:
            unitsearch._check_on_boundary(
                cand.lattice, chart.index_set, chart.omitted, a_vec, chart.prec, [exp])
        except PrecisionExhausted:
            return True
        return False

    @pytest.mark.parametrize("window", range(6))
    def test_integer_boundary_check_agrees_with_the_interval_loop(self, found_candidate, window):
        for I in itertools.combinations(range(3), 2):
            chart = hull_chart(found_candidate, I, window)
            for exp, z in chart.points.items():
                assert not self.boundary_loop_raises(chart.a_vec, z), (I, exp)
                assert not self.boundary_check_raises(found_candidate, chart, chart.a_vec, exp)

    @pytest.mark.parametrize("push", [(1, 0), (0, -1), (1, -1)])
    def test_integer_boundary_check_raises_where_the_interval_loop_does(self, found_candidate,
                                                                         push):
        # a pushed off by a relative 2^-20 at some places: wherever the
        # interval loop certifies a point off the surface, the integer sum
        # does too; only the zero vector's point stays on it
        for I in itertools.combinations(range(3), 2):
            chart = hull_chart(found_candidate, I, 3)
            a_vec = [ai * (1 + Fraction(s, 2**20)) for ai, s in zip(chart.a_vec, push)]
            for exp, z in chart.points.items():
                loop = self.boundary_loop_raises(a_vec, z)
                assert loop == any(exp), (I, exp)
                assert self.boundary_check_raises(found_candidate, chart, a_vec, exp) == loop

    @pytest.mark.parametrize("window", [0, 3, 5])
    def test_monomial_points_meet_the_exact_products(self, found_candidate, window):
        units = found_candidate.units
        F = units[0].field
        for I in itertools.combinations(range(3), 2):
            chart = hull_chart(found_candidate, I, window)
            powers = UnitPowers(F, [units[q] for q in I])
            for exp, z in chart.points.items():
                exact = unitsearch._chart_point(powers(exp), chart.omitted, chart.prec)
                for zi, ei in zip(z, exact):
                    (lo, hi), (elo, ehi) = zi.endpoints(), ei.endpoints()
                    assert lo <= ehi and elo <= hi, (I, exp)

    def test_no_exact_product(self, found_candidate):
        cand = candidate(found_candidate.units)  # chart afresh
        exact = (FieldElement.__mul__, FieldElement.inverse, UnitPowers.__init__)
        chart, calls = calls_to(exact, hull_chart, cand, (1, 2), 3)
        assert len(chart.points) == 7 and calls == []

    def test_chart_open_at_the_first_precision_is_decided_at_the_next(self, found_candidate,
                                                                       monkeypatch):
        # a log matrix known only to within 2^200 at 64 bits leaves an
        # interval pivot around 0 there; the chart is read at 128 bits
        asked = patched_log_matrix(monkeypatch, widened(200), PREC_SCHEDULE[:1])
        cand = candidate(found_candidate.units)
        for I in itertools.combinations(range(3), 2):
            chart = hull_chart(cand, I, 3)
            assert chart.prec == PREC_SCHEDULE[1] and len(chart.points) == 7
            assert all(lo > 0 for lo, _ in chart.exponents) and verify_vertices(chart)
        assert asked == set(PREC_SCHEDULE[:2])

    @pytest.mark.parametrize("change, cause", [
        # the elimination's last divisor straddles 0 at every precision
        (widened(1), "divisor interval contains zero"),
        # logs of the opposite sign certify every exponent negative
        (lambda exp, M: [[(-hi, -lo) for lo, hi in row] for row in M],
         "exponents not certified positive"),
    ])
    def test_chart_open_at_every_precision_is_exhausted(self, found_candidate, monkeypatch,
                                                         change, cause):
        asked = patched_log_matrix(monkeypatch, change)
        cand = candidate(found_candidate.units)
        with pytest.raises(PrecisionExhausted,
                           match=f"hull chart failed at all precisions: {cause}"):
            hull_chart(cand, (0, 1), 3)
        assert asked == set(PREC_SCHEDULE) and not cand.lattice._charts

    def test_singular_pivot_at_every_precision_is_raised(self, found_candidate, monkeypatch):
        asked = patched_log_matrix(monkeypatch, widened(200))
        cand = candidate(found_candidate.units)
        with pytest.raises(SingularMatrix, match="interval pivot contains zero"):
            hull_chart(cand, (0, 1), 3)
        assert asked == set(PREC_SCHEDULE)

    def test_omitted_index_is_complement(self, found_candidate):
        chart = hull_chart(found_candidate, (0, 2), 3)
        assert chart.omitted == 1

    def test_negative_window_is_a_negative_index(self, found_candidate):
        F, _ = cubic_units()
        with pytest.raises(NegativeIndex):
            hull_chart(found_candidate, (0, 1), -1)
        with pytest.raises(NegativeIndex):
            exhaustion_contains(found_candidate, 1, F.one, window=-1)

    @pytest.mark.parametrize("I", [(0,), (0, 0), (0, 5)])
    def test_index_set_must_be_n_minus_one_places(self, found_candidate, I):
        with pytest.raises(DegreeMismatch):
            hull_chart(found_candidate, I, 3)

    def test_second_chart_refines_nothing(self, found_candidate):
        # a chart is kept on its lattice by (index set, window)
        cand = candidate(found_candidate.units)
        chart = hull_chart(cand, (0, 2), 3)
        again, calls = calls_to((TotallyRealField._refine,), hull_chart, cand, (0, 2), 3)
        assert again is chart and calls == []
        assert hull_chart(cand, (0, 2), 2) is not chart
        # no chart is shared through module state
        assert hull_chart(candidate(cand.units), (0, 2), 3) is not chart


class TestCertifiedOnce:
    def test_unitsearch_refines_each_generator_once_per_place(self):
        # the search lattice's 2 generators and the found set's 3 units, at
        # the 3 places and the first precision; the charts reuse the latter
        cfg = config.load_config(str(ROOT / "configs" / "cubic49.json"))
        args = types.SimpleNamespace(a=None, b=None, radius=None)
        code, calls = calls_to((unitsearch._embedding_iv_positive,),
                               cli.cmd_unitsearch, cfg, args, io.StringIO())
        assert code == 0 and len(calls) == 2 * 3 + 3 * 3

    def test_unitsearch_takes_each_log_once(self):
        # the two lattices' generator logs, 2 * 3 + 3 * 3, and log a and log b
        # once, shared by the search's lattice and the found set's
        cfg = config.load_config(str(ROOT / "configs" / "cubic49.json"))
        args = types.SimpleNamespace(a=None, b=None, radius=None)
        unitsearch._rational_log.cache_clear()
        code, calls = calls_to((Interval.log,), cli.cmd_unitsearch, cfg, args, io.StringIO())
        assert code == 0 and len(calls) == 2 * 3 + 3 * 3 + 2


class TestEachUnitCheckedOnce:
    """A config's module units are checked only by the module's frame, and
    the units the search finds, products of checked generators, not at all."""

    CHECKS = (is_unit, is_totally_positive, LatticeFrame.__init__)

    def counts(self, fn, *args):
        _, calls = calls_to(self.CHECKS, fn, *args)
        return [calls.count(f.__name__) for f in self.CHECKS]

    @pytest.mark.parametrize("name, frames", [("sqrt3", 2), ("cubic49", 1)])
    def test_config_load(self, name, frames):
        # sqrt3: its one unit in the module's frame and in the quadratic fan's
        raw = json.loads((ROOT / "configs" / f"{name}.json").read_text())
        assert self.counts(config.build_config, raw) == [0, 2, frames]

    def test_found_units_not_checked_again(self):
        _, V = cubic_units()
        assert self.counts(search_admissible, V, A_BOUND, B_BOUND, RADIUS) == [0, 0, 0]

    def test_found_units_record_is_the_checked_one(self, found_candidate):
        units = found_candidate.lattice.units
        checked = UnitGroupData(found_candidate.units)
        assert units == checked and hash(units) == hash(checked)
        again = pickle.loads(pickle.dumps(units))
        assert again == checked and hash(again) == hash(checked)


def _mpf(q: Fraction):
    return mpmath.mpf(q.numerator) / q.denominator


class TestExponentIntervals:
    def test_contain_a_high_precision_solve(self, found_candidate):
        # sum_p a_p (log eps_q^(j) - log eps_q^(p)) = 1 for each unit q of the
        # chart, solved at 300 bits from embeddings refined to 2^-400; the
        # stored endpoints are exact, so the true exponent lies between them
        units = found_candidate.units
        F = units[0].field
        with mpmath.workprec(300):
            logs = [
                [mpmath.log(_mpf(F.embed_at(u, p, 400).midpoint())) for p in range(3)]
                for u in units
            ]
            for window in range(2, 6):
                for I in itertools.combinations(range(3), 2):
                    chart = hull_chart(found_candidate, I, window)
                    j = chart.omitted
                    places = [p for p in range(3) if p != j]
                    E = mpmath.matrix(
                        [[logs[q][j] - logs[q][p] for p in places] for q in I]
                    )
                    a = mpmath.lu_solve(E, mpmath.matrix([1, 1]))
                    for (lo, hi), ai in zip(chart.exponents, a):
                        assert _mpf(Fraction(lo)) <= ai <= _mpf(Fraction(hi)), (window, I)


def fraction_rounding(lo: Fraction, hi: Fraction, prec: int) -> Interval:
    """[lo, hi] rounded outward to prec bits on Fractions, the scale taken
    from the larger end in lowest terms: Interval.of as it was before
    Interval.scaled."""
    big = max(abs(lo), abs(hi))
    s = prec + big.denominator.bit_length() - big.numerator.bit_length()
    up, down = max(s, 0), max(-s, 0)
    return Interval((lo.numerator << up) // (lo.denominator << down),
                    -((-hi.numerator << up) // (hi.denominator << down)), -s, prec)


def fields(iv: Interval) -> tuple[int, int, int, int]:
    return iv.lo, iv.hi, iv.exp, iv.prec


class TestIntervalArithmetic:
    """Every operation encloses the exact result on any points of its
    operands; log is checked against mpmath at 3000 bits."""

    precs = st.sampled_from([80, 144, 272, 1040])
    unit = st.fractions(min_value=0, max_value=1, max_denominator=1000)

    @staticmethod
    @st.composite
    def intervals(draw, positive=False):
        prec = draw(TestIntervalArithmetic.precs)
        lo = draw(st.integers(min_value=1 if positive else -(2**prec), max_value=2**prec))
        hi = lo + draw(st.integers(min_value=0, max_value=2 ** (prec // 2)))
        return Interval(lo, hi, draw(st.integers(min_value=-400, max_value=400)), prec)

    @staticmethod
    def point(iv, t):
        lo, hi = iv.endpoints()
        return lo + t * (hi - lo)

    @given(a=intervals(), b=intervals(), s=unit, t=unit, r=st.fractions())
    @settings(max_examples=300, deadline=None)
    def test_arithmetic_encloses_point_results(self, a, b, s, t, r):
        x, y = self.point(a, s), self.point(b, t)
        assert x in a and y in b
        assert x + y in a + b
        assert x - y in a - b
        assert x * y in a * b
        assert -x in -a
        assert x + r in a + r and r - x in r - a and x * r in r * a
        if b.lo > 0 or b.hi < 0:
            assert x / y in a / b
        else:
            with pytest.raises(PrecisionExhausted):
                a / b
        if r:
            assert x / r in a / r

    @given(a=intervals(positive=True), t=unit)
    @settings(max_examples=300, deadline=None)
    def test_log_encloses_the_log(self, a, t):
        x = self.point(a, t)
        log = a.log()
        lo, hi = log.endpoints()
        with mpmath.workprec(3000):
            exact = mpmath.log(_mpf(x))
            assert _mpf(lo) <= exact <= _mpf(hi)

    @given(
        p=st.integers(min_value=0, max_value=2**1100),
        m=st.integers(min_value=1, max_value=2**1100),
        e=st.integers(min_value=-3000, max_value=3000),
        w=st.integers(min_value=64, max_value=1100),
    )
    @settings(max_examples=300, deadline=None)
    def test_fixed_point_kernels_bound_the_exact_values(self, p, m, e, w):
        # the kernels' own bounds in units of 2^-w, before an interval
        # rounds them outward to its precision
        q = 3 * p + m
        s, err = interval._atanh_fixed(p, q, w)
        lo, hi = interval._log_fixed(m, e, w)
        with mpmath.workprec(3000):
            assert s <= mpmath.atanh(mpmath.mpf(p) / q) * 2**w <= s + err
            assert lo <= mpmath.log(mpmath.mpf(m) * mpmath.mpf(2) ** e) * 2**w <= hi

    @pytest.mark.parametrize("prec", [80, 144, 272, 1040])
    def test_log_of_a_point_is_tight(self, prec):
        for m, e in ((3, 0), (2**prec - 1, -prec), (12345, 900), (1, -3000)):
            lo, hi = Interval(m, m, e, prec).log().endpoints()
            scale = max(1, abs(lo))
            assert (hi - lo) / scale < Fraction(1, 2 ** (prec - 4))

    @pytest.mark.parametrize("prec", [64, 256, 1024])
    def test_log_of_a_rational_encloses_the_log(self, prec):
        # mantissas m / 2^bitlen(m) on both sides of 1/sqrt 2, where the
        # argument reduction switches, and exact powers of two
        values = [Fraction(1), Fraction(2), Fraction(1, 2), Fraction(3, 7), Fraction(4, 7),
                  Fraction(11, 20), Fraction(7, 10), Fraction(5, 7), Fraction(70, 99),
                  Fraction(99, 140), Fraction(10**6 + 1), Fraction(1, 3**40), Fraction(2**90, 3)]
        for q in values:
            lo, hi = Interval.of(q, q, prec).log().endpoints()
            with mpmath.workprec(2048):
                exact = mpmath.log(_mpf(q))
                assert _mpf(lo) <= exact <= _mpf(hi)

    def test_log_needs_a_positive_interval(self):
        with pytest.raises(PrecisionExhausted):
            Interval(0, 1, 0, 80).log()

    bounds = st.integers(min_value=-(2**300), max_value=2**300)

    @given(lo=bounds, hi=bounds, s=st.integers(min_value=1, max_value=2**300),
           prec=st.integers(min_value=2, max_value=1100))
    @settings(max_examples=300, deadline=None)
    def test_scaled_is_of_on_the_fractions(self, lo, hi, s, prec):
        # field by field, whatever common factor lo, hi and s share
        if lo > hi:
            with pytest.raises(EmptyInterval):
                Interval.scaled(lo, hi, s, prec)
            with pytest.raises(EmptyInterval):
                Interval.of(Fraction(lo, s), Fraction(hi, s), prec)
            return
        a, b = Fraction(lo, s), Fraction(hi, s)
        want = fields(fraction_rounding(a, b, prec))
        assert fields(Interval.of(a, b, prec)) == want
        for k in (1, 3 * 2**5):
            assert fields(Interval.scaled(lo * k, hi * k, s * k, prec)) == want

    def test_repr_is_the_constructor_call(self):
        iv = Interval.of(Fraction(1, 3), Fraction(1, 2), 8)
        assert repr(iv) == "Interval(85, 128, -8, 8)"
        assert fields(eval(repr(iv))) == fields(iv)

    def test_rationals_round_outward(self):
        third = Interval.of(Fraction(1, 3), Fraction(1, 3), 80)
        lo, hi = third.endpoints()
        assert lo < Fraction(1, 3) < hi and hi - lo < Fraction(1, 2**79)
        assert Interval.of(5, 5, 80).endpoints() == (5, 5)


def interval_separations(chart):
    """(key of P, key of Q, sign) for every ordered pair of distinct charted
    points: the separation sum_i (a_i / P_i)(Q_i - P_i) summed in Intervals,
    None where they leave its sign open (the interval loop that
    verify_vertices ran on every pair before the integer bounds)."""
    a_vec = [Interval.of(lo, hi, chart.prec + GUARD_BITS) for lo, hi in chart.exponents]
    keys = sorted(chart.points)
    for key in keys:
        P = chart.points[key]
        grad = [ai / zi for ai, zi in zip(a_vec, P)]
        for other in keys:
            if other != key:
                Q = chart.points[other]
                terms = [g * (qi - pi) for g, qi, pi in zip(grad, Q, P)]
                yield key, other, unitsearch._iv_sign(sum(terms[1:], terms[0]))


def interval_verdict(chart):
    """The interval loop's verdict: False at the first pair certified
    inside, PrecisionExhausted at the first pair left open."""
    for key, other, s in interval_separations(chart):
        if s is None:
            raise PrecisionExhausted(f"cannot certify separation of {key} from {other}")
        if s < 0:
            return False
    return True


def adulterated(chart, kind):
    """A copy of the chart with one point added or moved."""
    import copy

    fake = copy.deepcopy(chart)
    keys = sorted(fake.points)
    p, q = fake.points[keys[0]], fake.points[keys[1]]
    if kind == "midpoint":
        fake.points[(99, -99)] = tuple((a + b) / 2 for a, b in zip(p, q))
    elif kind == "duplicate":
        fake.points[(99, -99)] = p
    else:  # a middle point moved into the hull region by 2^-40
        mid = keys[len(keys) // 2]
        fake.points[mid] = tuple(z + Fraction(1, 2**40) for z in fake.points[mid])
    return fake


class TestVerifyVertices:
    def test_window_three(self, found_candidate):
        for I in itertools.combinations(range(3), 2):
            chart = hull_chart(found_candidate, I, 3)
            assert verify_vertices(chart)

    def test_single_point_window(self, found_candidate):
        chart = hull_chart(found_candidate, (0, 1), 0)
        assert verify_vertices(chart)

    def test_non_vertex_point_detected(self, found_candidate):
        # the midpoint of two charted points: the separation certificate
        # must fail for it
        fake = adulterated(hull_chart(found_candidate, (0, 1), 2), "midpoint")
        assert verify_vertices(fake) is False

    @pytest.mark.parametrize("window", range(6))
    def test_integer_bounds_decide_every_pair_of_a_chart(self, found_candidate, window):
        # and agree with the interval loop, which decides every pair too
        for I in itertools.combinations(range(3), 2):
            chart = hull_chart(found_candidate, I, window)
            ints = list(unitsearch._integer_separations(chart))
            assert ints == list(interval_separations(chart)), (I, window)
            assert all(s == 1 for _, _, s in ints)
            assert len(ints) == len(chart.points) * (len(chart.points) - 1)

    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_integer_signs_hold_at_every_corner(self, data):
        # sum_i a_i (Q_i - P_i) prod_{r != i} P_r is multilinear in a, P and
        # Q, so over their boxes it takes its extremes at the corners
        def box():
            lo = data.draw(st.integers(min_value=1, max_value=2**12))
            width = data.draw(st.integers(min_value=0, max_value=2**8))
            return Interval(lo, lo + width, data.draw(st.integers(min_value=-3, max_value=3)), 64)

        a, P, Q = (tuple(box() for _ in range(2)) for _ in range(3))
        chart = HullChart((0, 1), 2, a, 0, {(0, 0): P, (1, -1): Q}, 48)
        for key, other, s in unitsearch._integer_separations(chart):
            corners = itertools.product(
                *(iv.endpoints() for iv in a + chart.points[key] + chart.points[other]))
            values = [a0 * (y0 - x0) * x1 + a1 * (y1 - x1) * x0
                      for a0, a1, x0, x1, y0, y1 in corners]
            if s is not None:
                assert all(v * s > 0 for v in values), (key, other)

    @pytest.mark.parametrize("a0, signs", [
        ((0, 1), [1, None]),  # 3 a_0 - 3/4 straddles 0: open
        ((0, Fraction(1, 8)), [1, -1]),  # and lies below 0: not a vertex
    ])
    def test_uncertified_weights_take_the_interval_test(self, monkeypatch, a0, signs):
        # a_0 = 0 is not certified positive, so the integer sums leave both
        # pairs open and each is tested in intervals, with the interval
        # loop's verdict
        def exact(lo, hi):
            return Interval.of(Fraction(lo), Fraction(hi), 64)

        a = (exact(*a0), exact(1, 1))
        P, Q = (exact(4, 4), exact(1, 1)), (exact(1, 1), exact(4, 4))
        chart = HullChart((0, 1), 2, a, 0, {(0, 0): P, (1, -1): Q}, 48)
        assert [s for _, _, s in unitsearch._integer_separations(chart)] == [None, None]
        assert [s for _, _, s in interval_separations(chart)] == signs
        seen, real_sign = [], unitsearch._iv_sign
        monkeypatch.setattr(unitsearch, "_iv_sign", lambda iv: seen.append(real_sign(iv))
                            or seen[-1])
        if signs[-1] is None:
            with pytest.raises(PrecisionExhausted, match=r"separation of \(1, -1\) from"):
                verify_vertices(chart)
        else:
            assert verify_vertices(chart) is False
        assert seen == signs

    @pytest.mark.parametrize("kind", ["midpoint", "duplicate", "inward"])
    @pytest.mark.parametrize("I", list(itertools.combinations(range(3), 2)))
    def test_agrees_with_the_interval_loop_on_adulterated_charts(self, found_candidate, kind, I):
        # wherever the interval loop decides a pair, the integer bounds leave
        # it open or give the same sign; the verdicts agree wherever the loop
        # gives one
        fake = adulterated(hull_chart(found_candidate, I, 3), kind)
        pairs = zip(interval_separations(fake), unitsearch._integer_separations(fake))
        for (key, other, s), (ikey, iother, t) in pairs:
            assert (key, other) == (ikey, iother)
            assert s is None or t in (None, s), (kind, I, key, other)
        try:
            verdict = interval_verdict(fake)
        except PrecisionExhausted:
            verdict = None
        if verdict is None:  # the duplicate: its separation from itself is 0
            with pytest.raises(PrecisionExhausted):
                verify_vertices(fake)
        else:
            assert verify_vertices(fake) is verdict
        assert verdict is {"midpoint": False, "duplicate": None, "inward": True}[kind]


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


class TestPolylineCertificate:
    """The two-dimensional chart's edge certificate, on exact dyadic points
    around the chart point (1, 1) of y = 1, where the log form is 0 and no
    point is strictly below (1, 1) in both coordinates."""

    @staticmethod
    def chart(*coords):
        exact = [tuple(Interval.of(Fraction(c), Fraction(c), 64) for c in p) for p in coords]
        one = Interval.of(1, 1, 64)
        return HullChart((0, 1), 2, (one, one), 1, dict(zip([(-1, 1), (1, -1)], exact)), 64)

    @pytest.mark.parametrize("edge, inside", [
        (((Fraction(1, 2), 1), (2, Fraction(1, 2))), True),  # 5/6 at z0 = 1: above
        (((Fraction(1, 2), 2), (2, Fraction(1, 2))), False),  # 3/2 at z0 = 1: below
    ])
    def test_side_of_the_bracketing_edge(self, edge, inside):
        F, _ = cubic_units()
        chart = self.chart(*edge)
        z = unitsearch._chart_point(F.one, chart.omitted, chart.prec)
        assert [zi.endpoints() for zi in z] == [(1, 1), (1, 1)]
        assert unitsearch._iv_sign(unitsearch._log_form(chart.a_vec, z)) is None
        assert not any(all(unitsearch._iv_sign(zi - pi) == 1 for zi, pi in zip(z, P))
                       for P in chart.points.values())
        assert unitsearch._chart_region_contains(chart, F.one) is inside

    def test_unbracketed_point_is_undecided(self):
        F, _ = cubic_units()
        chart = self.chart((2, Fraction(1, 2)), (4, Fraction(1, 4)))
        assert unitsearch._chart_region_contains(chart, F.one) is None


class TestCertifyInSimplex:
    """The simplex certificate of charts of dimension d != 2 (degree >= 4),
    on exact dyadic points of a 3-dimensional chart."""

    @staticmethod
    def points(*coords):
        return [[Interval.of(c, c, 64) for c in p] for p in coords]

    SIMPLEX = ((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1))

    @pytest.mark.parametrize("z, inside", [
        ((Fraction(1, 4), Fraction(1, 4), Fraction(1, 8)), True),
        ((1, Fraction(1, 2), Fraction(1, 2)), False),
        ((1, 0, 0), False),  # a vertex: its signed volumes vanish
    ])
    def test_strict_interior_only(self, z, inside):
        (z,) = self.points(z)
        assert unitsearch._certify_in_simplex(self.points(*self.SIMPLEX), z) is inside

    def test_degenerate_simplex_certifies_nothing(self):
        flat = self.points((0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0))
        (z,) = self.points((Fraction(1, 4), Fraction(1, 4), 0))
        assert unitsearch._certify_in_simplex(flat, z) is False


class TestIntervalPrecision:
    """The intervals carry their own precision: no result depends on the
    global precision of mpmath."""

    @staticmethod
    def results(cand):
        F, V = cubic_units()
        cand = candidate(cand.units, cand.a, cand.b)  # chart afresh
        chart = hull_chart(cand, (0, 1), 3)
        points = {k: [z.endpoints() for z in v] for k, v in chart.points.items()}
        return (
            chart.exponents,
            points,
            chart.prec,
            verify_vertices(chart),
            exhaustion_contains(cand, 1, F.one, window=3),
            LogLattice(V).regulator_nonzero(),
        )

    def test_prec_restored(self, found_candidate, monkeypatch):
        default = self.results(found_candidate)
        monkeypatch.setattr(mpmath.mp, "prec", 20)
        monkeypatch.setattr(mpmath.iv, "prec", 20)
        assert self.results(found_candidate) == default
        assert default[3:] == (True, True, True)

    def test_vertices_certified_at_chart_precision(self, found_candidate, monkeypatch):
        # the integer bounds decide every pair of a found chart, with no
        # Interval arithmetic; a pair they leave open is tested in intervals
        # at the chart's precision
        chart = hull_chart(found_candidate, (0, 2), 3)
        ok, calls = calls_to((Interval.__init__, unitsearch._iv_sign), verify_vertices, chart)
        assert ok and calls == []
        seen = []
        real_sign, real_separations = unitsearch._iv_sign, unitsearch._integer_separations
        monkeypatch.setattr(
            unitsearch, "_iv_sign", lambda iv: seen.append(iv.prec) or real_sign(iv)
        )
        monkeypatch.setattr(unitsearch, "_integer_separations",
                            lambda c: ((k, o, None) for k, o, _ in real_separations(c)))
        assert verify_vertices(chart)
        assert len(seen) == 7 * 6 and set(seen) == {chart.prec + GUARD_BITS}

