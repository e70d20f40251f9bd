"""Layer microbenchmarks, the L-value enumerator, the set-up of the shipped
configs, seven in-process commands, a cold import and a cold ``converge``,
merged into a BENCH file.

    python bench/layers.py --src src --label change --out BENCH_20.json
    python bench/layers.py --parent ../parent/src --out BENCH_30.json

``--src`` names the ``src`` directory that ``conesum`` is imported from, so
the same script can measure a checkout of another commit.  With
``--parent``, the script runs itself PAIRS times on each side, parent and
change (``--src``) alternating in fresh processes, the change first in
every second pair, and writes the first pair under ``runs`` and
``ratio``, and each case's change / parent ratio of every pair
(``pair_ratios``), their median (``pair_ratio_median``) and their lowest
and highest (``pair_ratio_range``).  Every case runs through calls that
both sides have.  Each case is
timed with ``time.perf_counter``: a repeat runs the case ``loops`` times,
with ``loops`` chosen so that a repeat lasts at least ``MIN_REPEAT_S``, and
the reported time per call is the median over ``REPEATS`` repeats, next to
the lowest and highest.  The result is stored under ``runs[label]`` of the
output file; the runs already there are kept, and when both ``parent`` and
``change`` are present, ``ratio`` holds change / parent per case.

The commands are timed as a fresh process would run them after set-up: the
field cache is emptied and the configuration is loaded again before every
call, and only the command itself is timed; two
of the converge commands are ops of the benchmark's ``converge`` workload, and
one runs the shipped Q(sqrt 3) config at the edge-ray point 2 + sqrt 3, where
``converge`` finds the open star's pole and raises ``SingularAtX0`` naming a
trace-dual point of its first top.  The
cold import runs ``import conesum.cli`` in a new interpreter REPEATS times,
after one run that writes the bytecode cache, and reports the wall time of
the whole process; the cold converge does the same for ``python -m
conesum.cli converge configs/sqrt3.json``.
"""

from __future__ import annotations

import argparse
import io
import itertools
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CUBIC = [1, -2, -1, 1]  # x^3 - x^2 - 2x + 1, discriminant 49
QUARTIC = [1, 1, -4, 0, 1]  # totally real quartic used by the field tests
REPEATS = 7
MIN_REPEAT_S = 0.05
PAIRS = 5


def timed(fn) -> dict:
    fn()  # warm caches that a long-lived process would hold
    loops = 1
    while True:
        start = time.perf_counter()
        for _ in range(loops):
            fn()
        elapsed = time.perf_counter() - start
        if elapsed >= MIN_REPEAT_S:
            break
        loops *= 2
    samples = [elapsed / loops]
    for _ in range(REPEATS - 1):
        start = time.perf_counter()
        for _ in range(loops):
            fn()
        samples.append((time.perf_counter() - start) / loops)
    return {
        "median_s": statistics.median(samples),
        "min_s": min(samples),
        "max_s": max(samples),
        "loops": loops,
        "repeats": REPEATS,
    }


def command_timed(setup, command) -> dict:
    """Median over REPEATS of one command call, each after a fresh setup."""
    samples = []
    for _ in range(REPEATS + 1):  # the first call warms the imports
        state = setup()
        start = time.perf_counter()
        command(state)
        samples.append(time.perf_counter() - start)
    samples = samples[1:]
    return {
        "median_s": statistics.median(samples),
        "min_s": min(samples),
        "max_s": max(samples),
        "loops": 1,
        "repeats": REPEATS,
    }


def layer_cases():
    from conesum import field, linalg

    cases = {}
    for name, poly in (("cubic", CUBIC), ("quartic", QUARTIC)):
        F = field.make_field(poly)
        n = F.degree
        x = F.element([Fraction(3, 7), -2, Fraction(5, 3), Fraction(-1, 4)][:n])
        y = F.element([Fraction(1, 2), 4, -1, Fraction(2, 9)][:n])
        # a power with large coordinates, as the unit search builds them
        u = (F.theta + F.one) ** 6
        cases[f"field.multiply.{name}"] = lambda x=x, y=y: x * y
        cases[f"field.inverse.{name}"] = lambda x=x: x.inverse()
        tup = [x, y, u, F.one][:n]
        cases[f"field.det_scaled.{name}"] = lambda tup=tup: field.det_scaled(tup)
        cases[f"field.min_poly_of.{name}"] = lambda u=u: field.min_poly_of(u)
        mp = field.min_poly_of(u)
        cases[f"field.isolate_real_roots.{name}"] = lambda mp=mp: field.isolate_real_roots(mp)
        z = u - F.from_rational(Fraction(1, 3))
        cases[f"field.sign_at.{name}"] = lambda F=F, z=z: [
            F.sign_at(z, place) for place in range(F.degree)
        ]
        # a den-1 unit power (dyadic bounds) and x (a non-dyadic denominator)
        cases[f"field.embed_at.{name}"] = lambda F=F, u=u, x=x: [
            F.embed_at(v, place, 64) for v in (u, x) for place in range(F.degree)
        ]
    # a field built anew on every call (not through make_field's cache), so
    # its irreducibility check runs
    for name, poly in (("sqrt3", [-3, 0, 1]), ("sqrt19", [-19, 0, 1]), ("cubic49", CUBIC),
                       ("quartic", QUARTIC)):
        cases[f"field.make_field.{name}"] = lambda poly=tuple(poly): field.TotallyRealField(poly)
    q = Fraction(3, 7)
    cases["field.scaled_rational.new"] = lambda: field.ScaledRational(q, 1, 12)
    m = [[Fraction(i * j + 1, i + j + 2) - (i == j) * 3 for j in range(4)] for i in range(4)]
    cases["linalg.det.4x4"] = lambda: linalg.det(m)
    cases["linalg.rref.4x4"] = lambda: linalg.rref(m)
    return cases


def polyhedral_cases() -> dict:
    """Facets of a fresh cube cone, the intersection of two fresh cubic cones,
    the extreme rays of a fresh simplicial cubic cone, membership in the
    relative interior of a fresh simplicial cubic cone and in a fresh
    2-dimensional face of it, the boundary and dual cycles of the cube and
    the boundary cycle of the octahedron (whose facets are all simplices)
    in P^3, and the trace-dual basis of four cube vertices (through
    ``summation.dual_basis`` where ``geometry.trace_duals`` is missing)."""
    from conesum import cycles, field, geometry, summation
    from conesum.geometry import Cone, ProjPolyhedron

    Q = field.make_field(QUARTIC)
    cube = [Q.element([sx, sy, sz, 1]) for sx in (1, -1) for sy in (1, -1) for sz in (1, -1)]
    octahedron = [Q.element([s * (k == i) for k in range(3)] + [1])
                  for i in range(3) for s in (1, -1)]
    C = field.make_field(CUBIC)
    a = [C.element(v) for v in ([2, 1, 0], [0, 2, 1], [1, 0, 2])]
    b = [C.element(v) for v in ([3, 1, 1], [1, 3, 1], [1, 1, 3], [2, 2, -1])]
    inside, on_face = a[0] + a[1] * 2 + a[2], a[0] + a[1] * 2
    z = cycles.boundary_cycle(ProjPolyhedron.from_points(Q, cube))
    trace_duals = getattr(geometry, "trace_duals", summation.dual_basis)
    return {
        "geometry.facet_data.cube": lambda: Cone(Q, cube)._facet_data,
        "geometry.intersection.cubic": lambda: Cone(C, a).intersection(Cone(C, b)),
        "geometry.extreme_rays.cubic": lambda: Cone(C, a).extreme_rays,
        "geometry.contains.cubic": lambda: Cone(C, a).contains_strictly(inside),
        "geometry.contains.face.cubic": lambda: Cone(C, a[:2]).contains(on_face),
        "cycles.boundary_cycle.cube": lambda: cycles.boundary_cycle(
            ProjPolyhedron.from_points(Q, cube)
        ),
        "cycles.boundary_cycle.octahedron": lambda: cycles.boundary_cycle(
            ProjPolyhedron.from_points(Q, octahedron)
        ),
        "cycles.dual_cycle.cube": lambda: cycles.dual_cycle(z),
        "geometry.trace_duals.quartic": lambda: trace_duals(cube[:3] + cube[4:5]),
    }


def cubic_fan():
    """The explicit fan C(1, e1, e1 e2), C(1, e2, e1 e2) of the cubic field."""
    from conesum import field
    from conesum.fan import FanDescription
    from conesum.geometry import Cone

    F = field.make_field(CUBIC)
    e1, e2 = F.theta**2, F.element([1, -2, 1])
    return FanDescription(
        kind="explicit", module_basis=(F.one, F.theta, F.theta**2), units=(e1, e2),
        orbit_cones=(Cone(F, [F.one, e1, e1 * e2]), Cone(F, [F.one, e2, e1 * e2])),
    )


def fan_summation_cases() -> dict:
    """The star grouping of a point on a fan ray over one window-6
    truncation of the shipped Q(sqrt 3) fan, built once and grouped again on
    every call, and the partial sum at that point over the same truncation,
    alone and followed by the one at a generic point, the
    primal value of a pair of points of the shipped module, the cocycle
    value at that ray point of the dual star cycle around it, the value of
    the star around it and of the star of six tops around a ray of window 1
    of the explicit cubic fan (each star's ``summation.Star`` read once by a
    ``summation.WindowSum`` over its truncation's pairs, and valued once per
    call by ``WindowSum.total`` with its value cleared, or by
    ``summation.stars_value`` on a tree without ``Star``), the hull
    construction and the window-4 truncation of the Q(sqrt 19) fan of
    Z[sqrt 19], and the insertion of a ray into the first top cone of that
    window-4 truncation and of the window-5 truncation of the Q(sqrt 3)
    fan (both truncations built once), the good-fan validation of
    windows 1 and 2 of the explicit cubic fan and window 3 of the shipped
    Q(sqrt 3) fan (each truncation built once), and the window sum of that
    window 3 through the boundary cycle of its convex union
    (``summation.sum_via_dual_cycle``, tiling check included, on its top
    cones read once) at 4 + sqrt 3."""
    from conesum import config, cycles, summation
    from conesum.fan import build_quadratic_fan, refine_insert_ray, truncate, validate_good_fan
    from conesum.geometry import ProjPolyhedron

    cfg = config.load_config(str(ROOT / "configs/sqrt3.json"))
    desc, F = cfg.fan, cfg.field
    sqrt19 = config.build_config({
        "field": {"min_poly": [-19, 0, 1]},
        "module": {"basis": [["1", "0"], ["0", "1"]], "rho": ["0", "0"],
                   "units": [["170", "39"]]},
        "fan": {"type": "quadratic-auto"},
    }).fan
    w6 = truncate(desc, 6)
    x0 = w6.top_cones[3].extreme_rays[0] * 3
    pair = [F.element([1, Fraction(-1, 3)]), F.element([1, Fraction(1, 3)])]
    point = F.element([4, Fraction(1, 3)])
    w4, w5 = truncate(sqrt19, 4), truncate(desc, 5)
    ray4, ray5 = (tf.top_cones[0].interior_point() for tf in (w4, w5))
    (star,) = [g for g in w6.group_singular_terms(x0) if not g.is_singleton]
    star_cycle = cycles.dual_cycle(sum(
        (cycles.boundary_cycle(ProjPolyhedron(t, check=False)) for t in star.cones[1:]),
        cycles.boundary_cycle(ProjPolyhedron(star.cones[0], check=False)),
    ))
    cubic_w1, cubic_w2 = truncate(cubic_fan(), 1), truncate(cubic_fan(), 2)
    w3 = truncate(desc, 3)
    w3_tops = w3.top_cones
    cubic_x0 = cubic_w1.top_cones[1].extreme_rays[1]
    (cubic_star,) = [g for g in cubic_w1.group_singular_terms(cubic_x0) if not g.is_singleton]

    def star_value(tf, x, tops):
        """A call that values the one star of the truncation's singular tops
        (its tops the group's), read once by a WindowSum over its pairs."""
        terms = summation.WindowSum(tf.description, x)
        terms.add(tf.pairs)
        if not hasattr(summation, "Star"):
            assert len(terms.singular) == len(tops)
            return lambda: summation.stars_value(terms.singular, terms.frame, x)
        (kept,) = terms.stars.values()
        assert len(kept.members) == len(tops)

        def value():
            kept.value = None
            return terms.total()

        return value

    return {
        "fan.group_singular_terms.sqrt3.w6": lambda: w6.group_singular_terms(x0),
        "summation.partial_sum.sqrt3.w6.ray": lambda: summation.partial_sum(w6, x0),
        "summation.partial_sum.sqrt3.w6.two_points": lambda: [
            summation.partial_sum(w6, x) for x in (x0, F.element([7, 1]))
        ],
        "summation.cocycle_value.sqrt3": lambda: summation.cocycle_value(pair, point),
        "summation.evaluate_cycle.sqrt3.star": lambda: summation.evaluate_cycle(star_cycle, x0),
        "summation.star_group_value.sqrt3.w6.ray": star_value(w6, x0, star.cones),
        "summation.star_group_value.cubic.w1": star_value(cubic_w1, cubic_x0, cubic_star.cones),
        "fan.build_quadratic_fan.sqrt19": lambda: build_quadratic_fan(
            sqrt19.module_basis, sqrt19.units[0]
        ),
        "fan.truncate.sqrt19.w4": lambda: truncate(sqrt19, 4),
        "fan.refine_insert_ray.sqrt19.w4": lambda: refine_insert_ray(w4, ray4),
        "fan.refine_insert_ray.sqrt3.w5": lambda: refine_insert_ray(w5, ray5),
        "fan.validate_good_fan.cubic.w1": lambda: validate_good_fan(cubic_w1),
        "fan.validate_good_fan.cubic.w2": lambda: validate_good_fan(cubic_w2),
        "fan.validate_good_fan.sqrt3.w3": lambda: validate_good_fan(w3),
        "summation.sum_via_dual_cycle.sqrt3": lambda: summation.sum_via_dual_cycle(
            w3_tops, F.element([4, 1])
        ),
    }


def converge_cases() -> dict:
    """``converge`` with its fan built once: Q(sqrt 5) at 7/2 + sqrt(5)/2,
    14 windows of one orbit representative, and Q(sqrt 19) at 7 +
    sqrt(19)/3, 3 windows of seven representatives, both to 1e-12, the
    latter also on a description rebuilt from its fields on every call, as
    a new command builds it (so its frame is built on every call); the
    explicit rank-two fan of the cubic field at 5 + theta + theta^2, all 5
    windows, and at the wall point theta + 2 theta^2, all 5 windows, two of
    which add singular tops; ``surd_float`` on the error of the last Q(sqrt 5) row; and the
    quadrature area of the shipped Q(sqrt 3) module basis at its x0."""
    from conesum import config, field, summation

    def built(d, basis, unit, x0):
        raw = {
            "field": {"min_poly": [-d, 0, 1]},
            "module": {"basis": basis, "rho": ["0", "0"], "units": [unit]},
            "fan": {"type": "quadratic-auto"},
        }
        cfg = config.build_config(raw, {"x0": x0})
        return cfg.fan, cfg.x0

    def rebuilt(desc):
        return type(desc)(desc.kind, desc.module_basis, desc.units, desc.vertex_sequence,
                          desc.orbit_cones)

    sqrt3 = config.load_config(str(ROOT / "configs/sqrt3.json"))
    sqrt5 = built(5, [["1", "0"], ["1/2", "1/2"]], ["3/2", "1/2"], ["7/2", "1/2"])
    sqrt19 = built(19, [["1", "0"], ["0", "1"]], ["170", "39"], ["7", "1/3"])
    cubic = cubic_fan()
    cubic_field = cubic.module_basis[0].field
    cubic_x0, cubic_wall = cubic_field.element([5, 1, 1]), cubic_field.element([0, 1, 2])
    last = summation.converge(*sqrt5, 20, 1e-12)[-1]
    rational, coef = last.value.parts()
    error = (rational - last.target, coef, last.value.disc)
    return {
        "summation.converge.sqrt5.generic": lambda: summation.converge(*sqrt5, 20, 1e-12),
        "summation.converge.sqrt19.generic": lambda: summation.converge(*sqrt19, 20, 1e-12),
        "summation.converge.sqrt19.fresh": lambda: summation.converge(
            rebuilt(sqrt19[0]), sqrt19[1], 20, 1e-12
        ),
        "summation.converge.cubic.explicit": lambda: summation.converge(cubic, cubic_x0, 5, 0.0),
        "summation.converge.cubic.wall.w5": lambda: summation.converge(cubic, cubic_wall, 5, 0.0),
        "field.surd_float": lambda: field.surd_float(*error),
        "summation.hurwitz_area.sqrt3": lambda: summation.hurwitz_area(
            sqrt3.module.basis, sqrt3.x0
        ),
    }


def unitsearch_cases() -> dict:
    """The admissible-unit search on the cubic field at the shipped a, b and
    radius (each call builds its own ``UnitPowers``), the bound and the
    limit-pair checks of the units it finds, the hull chart and its vertex
    certificate at window 3 and the three window-3 charts alone (each call on
    a new candidate of those units, as a new command finds them), the vertex
    certificate alone on one chart built once, the log bounds of every
    exponent vector of the radius-5 box on a new lattice of the generators
    (its certified log matrix copied in), the relative-width embedding
    intervals of the generators and the found units at every place and
    precision of the schedule, the interval log of a point at the first and
    last precision of the schedule, and the error of one converge row whose
    error cancels below 1e-30."""
    from conesum import config, summation, unitsearch
    from conesum.field import ScaledRational

    units = config.load_config(str(ROOT / "configs/cubic49.json")).module.units
    a, b = Fraction(13, 10), Fraction(5, 2)
    cand = unitsearch.search_admissible(units, a, b, 4)

    def fresh():
        return unitsearch.AdmissibleCandidate(unitsearch.LogLattice(cand.lattice.units), a, b)

    def chart_and_vertices():
        return unitsearch.verify_vertices(unitsearch.hull_chart(fresh(), (0, 1), 3))

    def certified(check):
        return lambda: check(fresh())

    def log_walk():  # a new lattice on the kept one's certified matrix
        lattice = unitsearch.LogLattice(units)
        lattice._certified = dict(certified_lattice._certified)
        return [lattice.log_bounds(e, first) for e in box]

    chart = unitsearch.hull_chart(fresh(), (0, 1), 3)
    certified_lattice, first = unitsearch.LogLattice(units), unitsearch.PREC_SCHEDULE[0]
    certified_lattice.log_matrix(first)
    box = list(itertools.product(range(-5, 6), repeat=units.rank))

    cases = {
        "unitsearch.search_admissible.cubic49": lambda: unitsearch.search_admissible(
            units, a, b, 4
        ),
        "unitsearch.check_admissible.cubic49": certified(unitsearch.check_admissible),
        "unitsearch.check_admissible_bounds.cubic49": certified(
            unitsearch.check_admissible_bounds
        ),
        "unitsearch.hull_chart_verify.cubic49.w3": chart_and_vertices,
        "unitsearch.hull_chart.cubic49.w3": lambda: [
            unitsearch.hull_chart(cand, I, 3)
            for cand in (fresh(),) for I in itertools.combinations(range(3), 2)
        ],
        "unitsearch.log_bounds.cubic49.r5": log_walk,
        "unitsearch.verify_vertices.cubic49.w3": lambda: unitsearch.verify_vertices(chart),
        "unitsearch.embedding_iv_positive.cubic49": lambda: [
            unitsearch._embedding_iv_positive(x, p, prec)
            for x in (*units.generators, *cand.units)
            for p in range(3)
            for prec in unitsearch.PREC_SCHEDULE
        ],
    }
    for prec in (64, 1024):
        m = (3 << prec) // 7  # a point near 3/7 with prec bits
        if hasattr(unitsearch, "Interval"):
            iv = unitsearch.Interval(m, m, -prec, prec + unitsearch.GUARD_BITS)
            cases[f"unitsearch.log.{prec}"] = lambda iv=iv: iv.log()
        else:  # mpmath intervals, before the dyadic ones
            import mpmath

            def mp_log(prec=prec, m=m):
                with unitsearch._iv_precision(prec):
                    return mpmath.iv.log(mpmath.iv.mpf(m) / 2**prec)

            cases[f"unitsearch.log.{prec}"] = mp_log
    value = ScaledRational(
        Fraction(6921524866628675854881021986016, 11772407243860061574569575541873), -1, 28
    )
    cases["summation.abs_error.sqrt7"] = lambda: summation._abs_error(value, Fraction(1, 9))
    return cases


def cold_run(src: Path, *args: str) -> dict:
    """Wall time of a new interpreter running ``python *args`` from the root
    of the checkout, with bytecode caching on as in an installed package."""
    env = dict(os.environ, PYTHONPATH=str(src))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    samples = []
    for _ in range(REPEATS + 1):  # the first run warms the file cache
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, *args], env=env, cwd=ROOT, stdout=subprocess.DEVNULL, check=True
        )
        samples.append(time.perf_counter() - start)
    samples = samples[1:]
    return {
        "median_s": statistics.median(samples),
        "min_s": min(samples),
        "max_s": max(samples),
        "loops": 1,
        "repeats": REPEATS,
    }


def lvalue_cases() -> dict:
    """The L-value enumerator on the Q(sqrt 3) module at the three shipped
    (s, cutoff) points, and at the largest cutoff its row stage alone and
    its point stage alone: ``lvalue_numeric`` at s = 2 with
    ``kept_intervals`` answered by its result, built outside the timing."""
    from unittest import mock

    from conesum import arith, config

    module = config.load_config(str(ROOT / "configs/sqrt3.json")).module
    cases = {
        f"arith.lvalue_numeric.s{s}": lambda s=s, cutoff=cutoff: arith.lvalue_numeric(
            module, s, cutoff
        )
        for s, cutoff in ((1, 6e5), (2, 8e6), (3, 1e5))
    }
    enum = arith._QuadraticEnumerator(module)
    Xi = 8 * 10**6 * enum.den**2
    cases["arith.kept_intervals.8e6"] = lambda: enum.kept_intervals(8e6, Xi)
    kept = enum.kept_intervals(8e6, Xi)

    def point_stage():
        with mock.patch.object(arith._QuadraticEnumerator, "kept_intervals",
                               lambda self, cutoff, Xi: kept):
            return arith.lvalue_numeric(module, 2, 8e6)

    cases["arith.interval_norms.8e6"] = point_stage
    return cases


def setup_cases() -> dict:
    """A shipped config's module and whole set-up, each on a new field: the
    field cache is emptied on every call."""
    from conesum import arith, config, field

    cases = {}
    for name in ("sqrt3", "cubic49"):
        raw = json.loads((ROOT / f"configs/{name}.json").read_text())

        def module(poly=raw["field"]["min_poly"], m=raw["module"]):
            field._field_cache.cache_clear()
            F = field.make_field(poly)
            return arith.LatticeModule(
                config.parse_elements(F, m["basis"], "module basis"),
                config.parse_element(F, m["rho"]),
                field.UnitGroupData(config.parse_elements(F, m["units"], "module units")),
            )

        def build(raw=raw):
            field._field_cache.cache_clear()
            return config.build_config(raw)

        cases[f"arith.lattice_module.{name}"] = module
        cases[f"config.build_config.{name}"] = build
    return cases


def command_cases() -> dict:
    from conesum import cli, config, field
    from conesum.errors import SingularAtX0

    def fresh(path):
        def setup():
            field._field_cache.cache_clear()
            return config.load_config(str(ROOT / path))

        return setup

    def sqrt13_op(x0):
        # a converge op of the benchmark: Q(sqrt 13), its maximal order
        raw = {
            "field": {"min_poly": [-13, 0, 1]},
            "module": {"basis": [["1", "0"], ["1/2", "1/2"]], "rho": ["0", "0"],
                       "units": [["11/2", "3/2"]]},
            "fan": {"type": "quadratic-auto"},
        }

        def setup():
            field._field_cache.cache_clear()
            overrides = {"x0": x0, "N_max": 20, "tolerance": 1e-12, "format": "json"}
            return config.build_config(raw, overrides)

        return setup

    args = argparse.Namespace(a=None, b=None, radius=None)

    def converge_cmd(cfg):
        return cli.cmd_converge(cfg, out=io.StringIO())

    def edge_cmd(cfg):
        # 2 + sqrt 3 lies on the outer ray of window 1, whose star is open
        try:
            cli.cmd_converge(cfg, out=io.StringIO())
        except SingularAtX0:
            return
        raise AssertionError("the edge-ray op no longer raises SingularAtX0")

    def sqrt3_edge():
        field._field_cache.cache_clear()
        return config.load_config(str(ROOT / "configs/sqrt3.json"), {"x0": ["2", "1"]})

    return {
        "cli.cmd_converge.sqrt3": command_timed(fresh("configs/sqrt3.json"), converge_cmd),
        # a generic point, and 5 + sqrt 13 on the ray of a hull vertex
        "cli.cmd_converge.sqrt13.generic": command_timed(
            sqrt13_op(["7/2", "1/2"]), converge_cmd
        ),
        "cli.cmd_converge.sqrt13.ray": command_timed(sqrt13_op(["5", "1"]), converge_cmd),
        "cli.cmd_converge.sqrt3.edge": command_timed(sqrt3_edge, edge_cmd),
        "cli.cmd_unitsearch.cubic49": command_timed(
            fresh("configs/cubic49.json"),
            lambda cfg: cli.cmd_unitsearch(cfg, args, out=io.StringIO()),
        ),
        "cli.cmd_verify.theorem2.sqrt3": command_timed(
            fresh("configs/sqrt3.json"),
            lambda cfg: cli.cmd_verify(cfg, "theorem2", out=io.StringIO()),
        ),
        "cli.suite_lemma1.sqrt3": command_timed(fresh("configs/sqrt3.json"), cli.suite_lemma1),
    }


def line_counts(src: Path) -> dict:
    counts = {
        p.name: sum(1 for _ in p.open()) for p in sorted((src / "conesum").glob("*.py"))
    }
    counts["total"] = sum(counts.values())
    return counts


def ratios(parent: dict, change: dict) -> dict:
    """change / parent of the median time of every case both runs hold."""
    return {
        name: change[group][name]["median_s"] / parent[group][name]["median_s"]
        for group in ("layers", "commands")
        for name in change[group]
        if name in parent[group]
    }


def paired(src: Path, parent: Path) -> dict:
    """PAIRS parent/change pairs of runs, each in a fresh process."""
    pairs = []
    with tempfile.TemporaryDirectory() as tmp:
        for i in range(PAIRS):
            sides = [("parent", parent), ("change", src)]
            pair = {}
            for label, side in sides[::-1] if i % 2 else sides:
                out = Path(tmp) / f"{i}-{label}.json"
                subprocess.run([sys.executable, __file__, "--src", str(side), "--label", label,
                                "--out", str(out)], check=True)
                pair[label] = json.loads(out.read_text())["runs"][label]
            pairs.append(pair)
    each = [ratios(pair["parent"], pair["change"]) for pair in pairs]
    return {
        "runs": pairs[0],
        "ratio": each[0],
        "pair_ratios": {name: [r[name] for r in each] for name in each[0]},
        "pair_ratio_median": {name: statistics.median(r[name] for r in each) for name in each[0]},
        "pair_ratio_range": {name: [min(r[name] for r in each), max(r[name] for r in each)]
                             for name in each[0]},
        "pairs_note": f"{PAIRS} pairs of fresh processes, the change first in the second, "
                      "fourth, ... pair; runs and ratio hold the first pair",
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=str(ROOT / "src"))
    parser.add_argument("--label")
    parser.add_argument("--parent", help="src of the parent: run paired parent/change runs")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    src, out = Path(args.src).resolve(), Path(args.out)
    bench = {"python": platform.python_version(), "nproc": os.cpu_count(),
             "machine": platform.machine()}
    if args.parent:
        bench.update(paired(src, Path(args.parent).resolve()))
        out.write_text(json.dumps(bench, indent=2, sort_keys=True) + "\n")
        return 0
    if not args.label:
        parser.error("--label is needed without --parent")
    sys.path.insert(0, str(src))
    run = {
        "layers": {
            name: timed(fn)
            for name, fn in {
                **layer_cases(),
                **polyhedral_cases(),
                **fan_summation_cases(),
                **converge_cases(),
                **unitsearch_cases(),
                **lvalue_cases(),
                **setup_cases(),
            }.items()
        },
        "commands": {
            **command_cases(),
            "import.conesum.cli": cold_run(src, "-c", "import conesum.cli"),
            "process.converge.sqrt3": cold_run(
                src, "-m", "conesum.cli", "converge", "configs/sqrt3.json"
            ),
        },
        "src_lines": line_counts(src),
    }

    bench = {**(json.loads(out.read_text()) if out.exists() else {}), **bench}
    bench.setdefault("runs", {})[args.label] = run
    runs = bench["runs"]
    if "parent" in runs and "change" in runs:
        bench["ratio"] = ratios(runs["parent"], runs["change"])
    out.write_text(json.dumps(bench, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
