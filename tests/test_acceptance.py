"""Acceptance criteria, one test per criterion.

Each test prints a single pass/fail line (visible with -s or in the -v log);
tolerances and window thresholds are frozen from the pre-build oracle runs
and asserted exactly as stated.
"""

import math
import random
import time
from fractions import Fraction

import pytest

from conesum import linalg
from conesum.arith import (
    SQRT3_EXPECTED,
    SQRT3_REFERENCE,
    IntersectionData,
    LatticeModule,
    lvalue_numeric,
    satake_rhs,
)
from conesum.cli import (
    RunConfig,
    suite_cocycle,
    suite_hurwitz,
    suite_theorem2,
)
from conesum.config import build_config
from conesum.fan import build_quadratic_fan, refine_insert_ray, truncate
from conesum.field import (
    ScaledRational,
    UnitGroupData,
    det_scaled,
    fundamental_unit_quadratic,
    make_field,
    trace_pairing,
)
from conesum.summation import (
    cone_term,
    converge,
    dual_basis,
    partial_sum,
    sum_via_dual_cycle,
)
from conesum.unitsearch import (
    check_admissible,
    check_admissible_bounds,
    hull_chart,
    search_admissible,
    verify_vertices,
)

QUADRATIC = [-3, 0, 1]
CUBIC = [1, -2, -1, 1]
QUARTIC = [1, 1, -4, 0, 1]


def _report(num, name, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    print(f"criterion {num:2d} [{name}]: {status}  {detail}")
    assert passed, f"criterion {num} ({name}) failed: {detail}"


def _config(seed=0) -> RunConfig:
    return build_config(
        {"field": {"min_poly": QUADRATIC}, "seed": seed, "format": "json"}
    )


def sqrt3_setup():
    F = make_field(QUADRATIC)
    basis = (F.one, F.theta / 3)
    eps = fundamental_unit_quadratic(3)
    desc, vs = build_quadratic_fan(basis, eps)
    return F, basis, eps, desc, vs


def sqrt2_setup():
    F = make_field([-2, 0, 1])
    basis = (F.one, F.theta)
    eps = fundamental_unit_quadratic(2)
    desc, vs = build_quadratic_fan(basis, eps)
    return F, basis, eps, desc, vs


def test_criterion_1_cocycle_exactness():
    start = time.monotonic()
    results = suite_cocycle(_config())
    elapsed = time.monotonic() - start
    ok = all(r["pass"] for r in results) and elapsed < 10.0
    _report(
        1,
        "cocycle exactness",
        ok,
        f"3 degrees x 100 tuples x 20 points, all sums exactly zero; {elapsed:.1f}s",
    )


def test_criterion_2_cycle_duality():
    start = time.monotonic()
    results = suite_theorem2(_config())
    elapsed = time.monotonic() - start
    ok = all(r["pass"] for r in results) and elapsed < 30.0
    names = ", ".join(r["name"] for r in results)
    _report(2, "boundary-cycle duality", ok, f"{names}; {elapsed:.1f}s")


def test_criterion_3_dual_cycle_bridge():
    start = time.monotonic()
    checked = 0
    for setup in (sqrt3_setup, sqrt2_setup):
        F, basis, eps, desc, vs = setup()
        m = vs.period
        x0 = F.element([4, 1])
        tf = truncate(desc, 3)
        by_label = {tf.labels[t.key()]: t for t in tf.top_cones}
        spans = [(-1, 1), (-2, 2), (-3, 3), (0, 2), (-2, 0), (-3, 1), (-1, 3), (0, 3), (-3, 0), (1, 3)]
        for lo, hi in spans:
            cones = [by_label[k] for k in range(lo * m, hi * m)]
            direct = ScaledRational.rational(0, F.disc_abs)
            for t in cones:
                direct = direct + cone_term(t, basis, x0).value
            assert sum_via_dual_cycle(cones, x0) == direct
            checked += 1
    elapsed = time.monotonic() - start
    ok = checked == 20 and elapsed < 5.0
    _report(3, "window sums via dual cycles", ok, f"{checked} windows exact; {elapsed:.1f}s")


def test_criterion_4_convergence_to_norm_reciprocal():
    # window thresholds frozen from the oracle run: N*=6 (sqrt3), N*=4 (sqrt2)
    start = time.monotonic()
    F3, _, _, desc3, _ = sqrt3_setup()
    rows3 = converge(desc3, F3.element([3, 1]), 10, 1e-6)
    t3 = time.monotonic() - start
    ok3 = (
        rows3[0].target == Fraction(1, 6)
        and rows3[-1].window == 6
        and rows3[-1].abs_error < 1e-6
        and all(a.abs_error > b.abs_error for a, b in zip(rows3, rows3[1:]))
        and t3 < 5.0
    )
    start = time.monotonic()
    F2, _, _, desc2, _ = sqrt2_setup()
    rows2 = converge(desc2, F2.element([3, 1]), 10, 1e-6)
    t2 = time.monotonic() - start
    ok2 = (
        rows2[0].target == Fraction(1, 7)
        and rows2[-1].window == 4
        and rows2[-1].abs_error < 1e-6
        and all(a.abs_error > b.abs_error for a, b in zip(rows2, rows2[1:]))
        and t2 < 5.0
    )
    _report(
        4,
        "convergence to 1/N(x0)",
        ok3 and ok2,
        f"sqrt3: err {rows3[-1].abs_error:.2e} at N=6 ({t3:.1f}s); "
        f"sqrt2: err {rows2[-1].abs_error:.2e} at N=4 ({t2:.1f}s)",
    )


def test_criterion_5_singular_point_grouping():
    F, basis, eps, desc, vs = sqrt3_setup()
    x0 = vs.point(1) * 3  # 3 + sqrt3 lies on the ray through A_1
    finite_all = True
    for window in range(1, 7):
        tf = truncate(desc, window)
        groups = tf.group_singular_terms(x0)
        starred = [g for g in groups if not g.is_singleton]
        row = partial_sum(tf, x0)
        finite_all = finite_all and len(starred) == 1 and row.value.q != 0
    rows = converge(desc, x0, 10, 1e-6)
    ok = finite_all and rows[-1].abs_error < 1e-6 and rows[-1].window == 6
    _report(
        5,
        "singular-point grouping",
        ok,
        f"star group finite on all windows, err {rows[-1].abs_error:.2e} at N=6",
    )


def test_criterion_6_fan_independence():
    F, basis, eps, desc, vs = sqrt3_setup()
    x0 = F.element([3, 1])
    ok = True
    details = []
    for window in (4, 6):
        tf = truncate(desc, window)
        refined = refine_insert_ray(tf, tf.top_cones[0].interior_point())
        a = partial_sum(tf, x0)
        b = partial_sum(refined, x0)
        ok = ok and a.value == b.value and abs(a.abs_error - b.abs_error) < 1e-8
        details.append(f"N={window}: exact match")
    _report(6, "refinement invariance", ok, "; ".join(details))


def test_criterion_7_lvalue_table():
    start = time.monotonic()
    F = make_field(QUADRATIC)
    module = LatticeModule(
        basis=(F.one, F.theta / 3),
        rho=F.zero,
        units=UnitGroupData((fundamental_unit_quadratic(3),)),
    )
    r3 = math.sqrt(3)
    v1 = lvalue_numeric(module, 1, 6e5)
    e1 = abs(v1 + math.pi**2 * r3 / 6)
    v2 = lvalue_numeric(module, 2, 8e6)
    e2 = abs(v2 - math.pi**4 * r3 / 6)
    v3 = lvalue_numeric(module, 3, 1e5)
    e3 = abs(v3 + math.pi**6 * r3 / 36)
    elapsed = time.monotonic() - start
    ok = e1 < 1e-3 and e2 < 1e-6 and e3 < 1e-6 and elapsed < 60.0
    _report(
        7,
        "numeric L-values",
        ok,
        f"s=1: {e1:.1e} (<1e-3), s=2: {e2:.1e}, s=3: {e3:.1e} (<1e-6); {elapsed:.1f}s",
    )


def test_criterion_8_intersection_identities():
    start = time.monotonic()
    F = make_field(QUADRATIC)
    module = LatticeModule(
        basis=(F.one, F.theta / 3),
        rho=F.zero,
        units=UnitGroupData((fundamental_unit_quadratic(3),)),
    )
    ok = True
    for s in (1, 2, 3):
        data = IntersectionData(s=s, components=2, entries=dict(SQRT3_REFERENCE[s]))
        pred = satake_rhs(data, s, 2, module.d_M)
        coeff, power = SQRT3_EXPECTED[s]
        ok = ok and pred.coeff == coeff and pred.pi_power == power
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 1.0
    _report(
        8,
        "intersection-number identities",
        ok,
        f"three exact rational identities (s=2 against pi^4); {elapsed:.2f}s",
    )


def test_criterion_9_area_oracle():
    start = time.monotonic()
    results = suite_hurwitz(_config())
    elapsed = time.monotonic() - start
    ok = all(r["pass"] for r in results) and elapsed < 60.0
    _report(9, "projective area oracle", ok, f"{results[0]['detail']}; {elapsed:.1f}s")


def test_criterion_10_admissible_units():
    start = time.monotonic()
    F = make_field(CUBIC)
    th = F.theta
    V = UnitGroupData((th * th, (th - F.one) * (th - F.one)))
    a, b = Fraction(13, 10), Fraction(5, 2)
    assert b > a**3 > 1
    cand = search_admissible(V, a, b, 4)  # radius frozen from the oracle run
    found = cand is not None
    ok = found
    if found:
        ok = ok and check_admissible_bounds(cand).passed
        ok = ok and check_admissible(cand).passed
        import itertools

        for I in itertools.combinations(range(3), 2):
            chart = hull_chart(cand, I, 3)
            ok = ok and all(lo > 0 for lo, _ in chart.exponents)
            ok = ok and verify_vertices(chart)
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 120.0
    _report(
        10,
        "admissible unit search",
        ok,
        f"radius 4, b > a^3 > 1, charts certified; {elapsed:.1f}s",
    )


def test_criterion_11_exactness_backbone():
    rng = random.Random(123)
    count = 0
    for poly in (QUADRATIC, CUBIC, QUARTIC):
        F = make_field(poly)
        n = F.degree
        for _ in range(167):
            A = [
                F.element(
                    [Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(n)]
                )
                for _ in range(n)
            ]
            d = det_scaled(A)
            gram = [[trace_pairing(x, y) for y in A] for x in A]
            assert d * d == ScaledRational.rational(linalg.det(gram), F.disc_abs)
            if not d.is_zero():
                B = dual_basis(A)
                for i, x in enumerate(A):
                    for j, y in enumerate(B):
                        assert trace_pairing(x, y) == (1 if i == j else 0)
            count += 1
    _report(
        11,
        "exactness backbone",
        count >= 500,
        f"{count} random tuples: Gram consistency and dual-basis identity exact",
    )
