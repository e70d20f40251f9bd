"""Command-line interface: convergence runs, verification suites, unit search.

Output is deterministic for a fixed config and seed: verification suites
draw all randomness from one seeded generator recorded in the report, and
no timestamps or environment data are emitted.
"""

from __future__ import annotations

import itertools
import json
import random
import sys
from fractions import Fraction

from . import __version__
from .arith import LatticeModule, satake_report
from .config import ConfigError, RunConfig, load_config, parse_rational
from .errors import ConesumError, DegreeTooSmall, DependentTuple
from .fan import build_quadratic_fan, refine_insert_ray, truncate, validate_good_fan
from .field import (
    UnitGroupData,
    fundamental_unit_quadratic,
    is_totally_positive,
    make_field,
)
from .geometry import ProjPolyhedron
from .cycles import duality_check
from .summation import cocycle_value, converge, hurwitz_area, partial_sum
from .unitsearch import (
    check_admissible,
    check_admissible_bounds,
    hull_chart,
    search_admissible,
    verify_vertices,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_CONFIG = 2
EXIT_NOT_FOUND = 3

_TEST_FIELDS = ([-3, 0, 1], [1, -2, -1, 1], [1, 1, -4, 0, 1])


# ---------------------------------------------------------------------------
# verification suites


def _rand_elem(field, rng, span=5):
    while True:
        coords = [rng.randint(-span, span) for _ in range(field.degree)]
        if any(coords):
            return field.element(coords)


def suite_cocycle(config: RunConfig) -> list[dict]:
    from .summation import TermForm

    rng = random.Random(config.seed)
    results = []
    for poly in _TEST_FIELDS:
        field = make_field(poly)
        n = field.degree
        checked = 0
        failures = 0
        for _ in range(100):
            tup = [_rand_elem(field, rng) for _ in range(n + 1)]
            # the value and the dual value of each independent sub-tuple, as
            # forms precomputed once per tuple; within one sum every term
            # carries the same power of sqrt(D), so the sums are rationals
            subs = []
            for i in range(n + 1):
                sub = tup[:i] + tup[i + 1 :]
                try:
                    subs.append(((-1) ** i, TermForm.primal(sub), TermForm(sub)))
                except DependentTuple:
                    continue
            points_done = 0
            attempts = 0
            while points_done < 20 and attempts < 300:
                attempts += 1
                x = tuple(rng.randint(-5, 5) for _ in range(n))
                if not any(x):
                    continue
                tot_h = tot_hs = Fraction(0)
                singular = False
                for sign, form, dual_form in subs:
                    h = form.coefficient(x)
                    dual = dual_form.coefficient(x)
                    if h is None or dual is None:
                        singular = True
                        break
                    tot_h += sign * h
                    tot_hs += sign * dual
                if singular:
                    continue
                if tot_h != 0 or tot_hs != 0:
                    failures += 1
                points_done += 1
                checked += 1
        results.append(
            {
                "name": f"alternating-sums-degree-{n}",
                "pass": failures == 0 and checked >= 1500,
                "detail": f"{checked} exact evaluations, {failures} failures",
            }
        )
    return results


def suite_theorem2(config: RunConfig) -> list[dict]:
    rng = random.Random(config.seed)
    results = []
    for poly in _TEST_FIELDS:
        field = make_field(poly)
        n = field.degree
        pts = [field.element([1 if i == j else 0 for j in range(n)]) for i in range(n)]
        ok = duality_check(ProjPolyhedron.from_points(field, pts))
        results.append(
            {"name": f"simplex-P{n-1}", "pass": ok, "detail": "coordinate simplex"}
        )
    F3 = make_field(_TEST_FIELDS[1])
    square = [
        F3.element([1, 0, 1]),
        F3.element([-1, 0, 1]),
        F3.element([0, 1, 1]),
        F3.element([0, -1, 1]),
    ]
    results.append(
        {
            "name": "square-P2",
            "pass": duality_check(ProjPolyhedron.from_points(F3, square)),
            "detail": "",
        }
    )
    for trial in range(4):
        ts = sorted(rng.sample(range(-8, 9), rng.randint(3, 8)))
        poly_pts = [F3.element([t * t, t, 1]) for t in ts]
        ok = duality_check(ProjPolyhedron.from_points(F3, poly_pts))
        results.append(
            {
                "name": f"random-polygon-{trial}",
                "pass": ok,
                "detail": f"{len(ts)} vertices",
            }
        )
    F4 = make_field(_TEST_FIELDS[2])
    cube = [
        F4.element([sx, sy, sz, 1])
        for sx in (1, -1)
        for sy in (1, -1)
        for sz in (1, -1)
    ]
    results.append(
        {
            "name": "cube-P3",
            "pass": duality_check(ProjPolyhedron.from_points(F4, cube)),
            "detail": "",
        }
    )
    octa = []
    for i in range(3):
        for sgn in (1, -1):
            coords = [0, 0, 0, 1]
            coords[i] = sgn
            octa.append(F4.element(coords))
    results.append(
        {
            "name": "octahedron-P3",
            "pass": duality_check(ProjPolyhedron.from_points(F4, octa)),
            "detail": "",
        }
    )
    return results


def suite_hurwitz(config: RunConfig) -> list[dict]:
    from .field import trace_pairing

    rng = random.Random(config.seed)
    nodes = 64 * 64  # the full tensor rule on the triangle
    field = make_field(_TEST_FIELDS[1])
    basis = [field.element([1 if i == j else 0 for j in range(3)]) for i in range(3)]
    done = 0
    worst = 0.0
    while done < 50:
        tup = []
        for i in range(3):
            wobble = field.element([Fraction(rng.randint(-2, 2), 7) for _ in range(3)])
            tup.append(basis[i] * 3 + wobble)
        x0 = field.element(
            [rng.randint(1, 4), rng.randint(-1, 1), rng.randint(-1, 1)]
        )
        try:
            exact = float(cocycle_value(tup, x0))
        except ConesumError:
            continue
        # the quadrature error scales with the spikiness of the integrand:
        # keep instances with well-separated pairings and a moderate value
        if abs(exact) > 10:
            continue
        if any(abs(trace_pairing(x0, a)) < Fraction(1, 2) for a in tup):
            continue
        area = hurwitz_area(tup, x0, samples=nodes)
        worst = max(worst, abs(area - exact))
        done += 1
    return [
        {
            "name": "area-matches-value-50-instances",
            "pass": worst <= 1e-3,
            "detail": f"max |difference| = {worst:.2e} at {nodes} nodes",
        }
    ]


def _sqrt3_module() -> LatticeModule:
    field = make_field([-3, 0, 1])
    return LatticeModule(
        basis=(field.one, field.theta / 3),
        rho=field.zero,
        units=UnitGroupData._checked((fundamental_unit_quadratic(3),)),  # by the module's frame
    )


def suite_satake(config: RunConfig) -> list[dict]:
    module = _sqrt3_module()
    _, vs = build_quadratic_fan(module.basis, module.units.generators[0])
    report = satake_report(module, vs)
    for entry in report["results"]:
        detail = entry.get("detail")
        if isinstance(detail, dict):
            entry["detail"] = json.dumps(detail, sort_keys=True, default=str)
    return report["results"]


def _check_x0(config: RunConfig) -> None:
    # zero is not totally positive, though is_totally_positive refuses to judge it
    if config.x0.is_zero() or not is_totally_positive(config.x0):
        raise ConfigError("x0 must be totally positive")


def suite_lemma1(config: RunConfig) -> list[dict]:
    if config.fan is None or config.x0 is None:
        raise ConfigError("the fan-refinement suite needs a fan and x0")
    _check_x0(config)
    results = []
    for window in (3, 5):
        tf = truncate(config.fan, window)
        ray = tf.top_cones[0].interior_point()
        refined = refine_insert_ray(tf, ray)
        base = partial_sum(tf, config.x0)
        ref = partial_sum(refined, config.x0)
        agree = base.value == ref.value
        results.append(
            {
                "name": f"refined-window-{window}",
                "pass": agree and abs(base.abs_error - ref.abs_error) < 1e-8,
                "detail": f"sum {base.value.exact_str()} vs {ref.value.exact_str()}",
            }
        )
    return results


def suite_goodfan(config: RunConfig) -> list[dict]:
    if config.fan is None:
        raise ConfigError("the fan validation suite needs a fan")
    return validate_good_fan(truncate(config.fan, min(config.n_max, 3))).as_dict()["conditions"]


def _admissible_search(config: RunConfig, a=None, b=None, radius=None):
    """(a, b, radius, found) of the config's unit search, with any a, b and
    radius given in place of the config's; found is None or (candidate, bound
    conditions, limit-pair conditions)."""
    params = config.unitsearch
    a = parse_rational(params.get("a", "13/10") if a is None else a)
    b = parse_rational(params.get("b", "5/2") if b is None else b)
    radius = int(params.get("radius", 4)) if radius is None else radius
    if radius < 0:
        raise ConfigError("unitsearch radius must be an integer >= 0")
    cand = search_admissible(config.module.units, a, b, radius)
    if cand is None:
        return a, b, radius, None
    return a, b, radius, (cand, check_admissible_bounds(cand), check_admissible(cand))


def suite_lemma3(config: RunConfig) -> list[dict]:
    if config.module is None or not config.module.units.generators:
        raise ConfigError("the admissibility suite needs a module with units")
    a, b, radius, found = _admissible_search(config)
    if found is None:
        return [
            {
                "name": "search",
                "pass": False,
                "detail": f"no admissible set within radius {radius}",
            }
        ]
    cand, bounds, admissible = found
    return [
        {
            "name": "search",
            "pass": True,
            "detail": json.dumps(
                [[str(c) for c in u.coords] for u in cand.units]
            ),
        },
        {
            "name": "bound-conditions",
            "pass": bounds.passed,
            "detail": f"a={a}, b={b}",
        },
        {"name": "limit-pair-conditions", "pass": admissible.passed, "detail": ""},
    ]


SUITE_RUNNERS = {
    "cocycle": suite_cocycle,
    "theorem2": suite_theorem2,
    "hurwitz": suite_hurwitz,
    "satake": suite_satake,
    "lemma1": suite_lemma1,
    "goodfan": suite_goodfan,
    "lemma3": suite_lemma3,
}
SUITES = tuple(SUITE_RUNNERS)


# ---------------------------------------------------------------------------
# commands


def cmd_converge(config: RunConfig, out=None) -> int:
    out = out or sys.stdout
    if config.fan is None:
        raise ConfigError("converge needs a fan")
    if config.x0 is None:
        raise ConfigError("converge needs x0")
    _check_x0(config)
    rows = converge(config.fan, config.x0, config.n_max, config.tolerance)
    if config.output_format == "csv":
        print("N,partial_sum_decimal,target_decimal,abs_error", file=out)
        for row in rows:
            print(
                f"{row.window},{float(row.value)!r},{float(Fraction(row.target))!r},"
                f"{row.abs_error!r}",
                file=out,
            )
    else:
        payload = {
            "target": str(rows[0].target),
            "rows": [row.as_dict() for row in rows],
        }
        print(json.dumps(payload, sort_keys=True), file=out)
    return EXIT_OK if rows[-1].abs_error < config.tolerance else EXIT_FAIL


def cmd_verify(config: RunConfig, suite: str, out=None) -> int:
    out = out or sys.stdout
    if suite not in SUITE_RUNNERS:
        raise ConfigError(f"unknown suite {suite!r}; choose from {', '.join(SUITES)}")
    results = SUITE_RUNNERS[suite](config)
    report = {"suite": suite, "seed": config.seed, "results": results}
    if config.output_format == "json":
        print(json.dumps(report, sort_keys=True, default=str), file=out)
    else:
        for entry in results:
            status = "pass" if entry["pass"] else "FAIL"
            print(f"{status}  {entry['name']}  {entry.get('detail', '')}", file=out)
    return EXIT_OK if all(r["pass"] for r in results) else EXIT_FAIL


def cmd_unitsearch(config: RunConfig, args, out=None) -> int:
    out = out or sys.stdout
    if config.module is None or not config.module.units.generators:
        raise ConfigError("unitsearch needs a module with unit generators")
    if config.field.degree < 3:
        raise DegreeTooSmall("unitsearch requires a field of degree at least 3")
    a, b, radius, found = _admissible_search(config, args.a, args.b, args.radius)
    window = int(config.unitsearch.get("window", 3))
    if found is None:
        print(
            json.dumps(
                {"found": False, "radius": radius, "a": str(a), "b": str(b)},
                sort_keys=True,
            ),
            file=out,
        )
        return EXIT_NOT_FOUND

    cand, bounds, admissible = found
    charts = []
    vertices_ok = True
    n = config.field.degree
    for I in itertools.combinations(range(n), n - 1):
        chart = hull_chart(cand, I, window)
        ok = verify_vertices(chart)
        vertices_ok = vertices_ok and ok
        charts.append(
            {
                "index_set": [i + 1 for i in chart.index_set],
                "omitted_place": chart.omitted + 1,
                "exponent_intervals": [[float(lo), float(hi)] for lo, hi in chart.exponents],
                "points": len(chart.points),
                "vertices_certified": ok,
            }
        )
    payload = {
        "found": True,
        "a": str(a),
        "b": str(b),
        "radius": radius,
        "units": [[str(c) for c in u.coords] for u in cand.units],
        "bound_conditions": bounds.as_dict(),
        "limit_pair_conditions": admissible.as_dict(),
        "charts": charts,
    }
    print(json.dumps(payload, sort_keys=True), file=out)
    ok = bounds.passed and admissible.passed and vertices_ok
    return EXIT_OK if ok else EXIT_FAIL


# ---------------------------------------------------------------------------
# entry point


def _add_common(parser):
    parser.add_argument("config", help="path to the JSON run configuration")
    parser.add_argument("--x0", help="override x0 as comma-separated rationals")
    parser.add_argument("--N-max", dest="n_max", type=int)
    parser.add_argument("--tol", dest="tolerance", type=float)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--format", dest="output_format", choices=("csv", "json"))


def build_parser() -> "argparse.ArgumentParser":
    import argparse  # only the entry point parses arguments; importing stays cheap

    parser = argparse.ArgumentParser(
        prog="conesum",
        description="Exact cone sums over unit-periodic fans and L-value checks",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_conv = sub.add_parser("converge", help="window sums against 1/N(x0)")
    _add_common(p_conv)

    p_ver = sub.add_parser("verify", help="run a named verification suite")
    p_ver.add_argument("suite", help=f"one of: {', '.join(SUITES)}")
    _add_common(p_ver)

    p_us = sub.add_parser("unitsearch", help="search for an admissible unit set")
    _add_common(p_us)
    p_us.add_argument("--a", help="ratio bound a > 1 (rational)")
    p_us.add_argument("--b", help="gap bound b > a^n (rational)")
    p_us.add_argument("--radius", type=int, help="exponent box radius")

    return parser


def _overrides_from_args(args) -> dict:
    overrides: dict = {}
    for key in ("n_max", "tolerance", "seed", "output_format"):
        value = getattr(args, key, None)
        if value is not None:
            config_key = {
                "n_max": "N_max",
                "output_format": "format",
            }.get(key, key)
            overrides[config_key] = value
    if getattr(args, "x0", None):
        overrides["x0"] = [part.strip() for part in args.x0.split(",")]
    return overrides


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = load_config(args.config, _overrides_from_args(args))
        if args.command == "converge":
            return cmd_converge(config)
        if args.command == "verify":
            return cmd_verify(config, args.suite)
        return cmd_unitsearch(config, args)
    except ConfigError as exc:
        print(json.dumps({"error": str(exc), "kind": "config"}), file=sys.stderr)
        return EXIT_CONFIG
    except ConesumError as exc:
        print(
            json.dumps(
                {"error": str(exc), "kind": type(exc).__name__}, sort_keys=True
            ),
            file=sys.stderr,
        )
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
