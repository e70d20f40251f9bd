"""The benchmark's operations, generated from the workload seed.

Each op is a JSON-able dict that ``child.py`` turns into one call of a public
conesum command.  Pass ``i`` of a run draws its ops from
``random.Random(f"{workload}:{seed}:{i}")``, so the same seed gives the same
ops, pass by pass.  Why each workload exists is recorded in
``BENCHMARK.json`` and in ``README.md`` next to this file.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

SQRT3_CONFIG = "configs/sqrt3.json"
CUBIC_CONFIG = "configs/cubic49.json"

# converge: real quadratic fields Q(sqrt d).  Per field: the module basis and
# the totally positive unit generating V (power-basis coordinates), and the
# hull vertices A_k with |k| < period, i.e. the rays strictly inside window 1
# (read off the vertex sequences; 1 is a hull vertex of every module here, so
# it stands in for Q(sqrt 19), whose fan does not build in time).  Q(sqrt 3)
# uses the shipped module Z + Z*sqrt(3)/3; the others their maximal order.
FIELDS = {
    2: ([["1", "0"], ["0", "1"]], ["3", "2"], [[1, 0], [2, 1], [3, 2]]),
    3: (
        [["1", "0"], ["0", "1/3"]],
        ["2", "1"],
        [[1, Fraction(-1, 3)], [1, 0], [1, Fraction(1, 3)]],
    ),
    5: ([["1", "0"], ["1/2", "1/2"]], ["3/2", "1/2"], [[1, 0]]),
    6: ([["1", "0"], ["0", "1"]], ["5", "2"], [[1, 0], [3, 1], [5, 2]]),
    7: ([["1", "0"], ["0", "1"]], ["8", "3"], [[1, 0], [3, 1], [8, 3]]),
    13: (
        [["1", "0"], ["1/2", "1/2"]],
        ["11/2", "3/2"],
        [
            [Fraction(5, 2), Fraction(-1, 2)],
            [1, 0],
            [Fraction(5, 2), Fraction(1, 2)],
            [4, 1],
            [Fraction(11, 2), Fraction(3, 2)],
        ],
    ),
    19: ([["1", "0"], ["0", "1"]], ["170", "39"], [[1, 0]]),
}
# 1e-12 makes Q(sqrt 3) run 10-11 windows and Q(sqrt 5) 14-15; every field
# whose fan builds gets there well before N_max.
CONVERGE_N_MAX = 20
CONVERGE_TOL = 1e-12
# x0 on the edge ray A_period of window 1: converge raises SingularAtX0 there.
# Run in every pass so that this failure is counted on every seed.
EDGE_RAY_OPS = [(3, [2, 1])]

LVALUE_POINTS = ((1, 6e5), (2, 8e6), (3, 1e5))  # the shipped `verify satake` table

UNITSEARCH_SHIPPED = ("13/10", "5/2", 4, 3)
UNITSEARCH_A = ("6/5", "5/4", "13/10", "4/3", "7/5")
UNITSEARCH_B = ("5/2", "3", "7/2", "4")
# one draw of (a, b) per (radius, window).  For this unit group the search
# finds a set at exponent max-norm 4, so radius 4 and 5 both succeed and cost
# about the same; radius 3 would end in exit 3 after a fraction of the time,
# and such a mix makes the median op flip between the two costs from seed to
# seed.  An exit 3 answer is still accepted when it comes.
UNITSEARCH_STRATA = ((4, 2), (5, 2), (5, 3))


def _coords(values) -> list[str]:
    return [str(Fraction(v)) for v in values]


def _field_raw(d: int) -> dict:
    basis, unit, _ = FIELDS[d]
    return {
        "field": {"min_poly": [-d, 0, 1]},
        "module": {"basis": basis, "rho": ["0", "0"], "units": [unit]},
        "fan": {"type": "quadratic-auto"},
    }


def _converge_op(d: int, x0, draw: str) -> dict:
    return {
        "kind": "converge",
        "field": d,
        "draw": draw,
        "raw": _field_raw(d),
        "x0": _coords(x0),
        "n_max": CONVERGE_N_MAX,
        "tol": CONVERGE_TOL,
    }


def _generic_point(d: int, rng: random.Random) -> list[Fraction]:
    """x0 = a*m1 + b*m2 with b in {-2,-1,1,2} and a one to six above the
    smallest a that makes x0 totally positive (power-basis coordinates)."""
    basis = [[Fraction(c) for c in row] for row in FIELDS[d][0]]
    b = rng.choice((-2, -1, 1, 2))
    a = 0
    while True:
        p = a * basis[0][0] + b * basis[1][0]
        q = a * basis[0][1] + b * basis[1][1]
        if p > 0 and p * p > d * q * q:
            break
        a += 1
    a += rng.randint(1, 6)
    return [a * basis[0][0] + b * basis[1][0], a * basis[0][1] + b * basis[1][1]]


def converge_ops(rng: random.Random) -> list[dict]:
    generic, ray = [], []
    for d in sorted(FIELDS):
        generic.append(_converge_op(d, _generic_point(d, rng), "generic"))
        vertex = rng.choice(FIELDS[d][2])
        c = rng.randint(1, 3)
        ray.append(_converge_op(d, [c * Fraction(v) for v in vertex], "ray"))
    edge = [_converge_op(d, x0, "edge-ray") for d, x0 in EDGE_RAY_OPS]
    # a field's two ops run half a pass apart, so that a slow spell of this
    # shared machine does not hit both
    return generic + edge + ray


def lvalue_ops(rng: random.Random) -> list[dict]:
    return [
        {"kind": "lvalue", "config": SQRT3_CONFIG, "s": s, "cutoff": cutoff}
        for s, cutoff in LVALUE_POINTS
    ]


def _unitsearch_op(a: str, b: str, radius: int, window: int) -> dict:
    return {
        "kind": "unitsearch",
        "config": CUBIC_CONFIG,
        "a": a,
        "b": b,
        "radius": radius,
        "window": window,
    }


def unitsearch_ops(rng: random.Random) -> list[dict]:
    ops = [_unitsearch_op(*UNITSEARCH_SHIPPED)]
    pairs = [
        (a, b)
        for a in UNITSEARCH_A
        for b in UNITSEARCH_B
        if Fraction(b) > Fraction(a) ** 3 > 1
    ]
    for radius, window in UNITSEARCH_STRATA:
        a, b = rng.choice(pairs)
        ops.append(_unitsearch_op(a, b, radius, window))
    return ops


GENERATORS = {
    "converge": converge_ops,
    "lvalue": lvalue_ops,
    "unitsearch": unitsearch_ops,
}

# per-op deadline in nominal seconds from spawn (see ``run.spawn``); an op
# still running then is killed and counted as failed.  The slowest converge
# op that finishes, on Q(sqrt 13), takes about 2.5 nominal seconds (its fan
# build alone about 1.8) and about 3 when traced, so 6 leaves twice that.
# Q(sqrt 19) reaches it on every pass.
DEADLINE_S = {"converge": 6.0, "lvalue": 60.0, "unitsearch": 15.0}

# passes per run at --seconds 30; --seconds scales them (at least one).  The
# count does not depend on how fast the machine or the program is, so every
# run of a workload pools the same number of samples.  About 45 s, 25 s and
# 30 s of wall time on a 2-core machine.
PASSES_AT_30S = {"converge": 1, "lvalue": 1, "unitsearch": 3}


def passes_for(workload: str, seconds: float) -> int:
    return max(1, round(PASSES_AT_30S[workload] * seconds / 30))


def ops_for_pass(workload: str, seed: int, index: int) -> list[dict]:
    return GENERATORS[workload](random.Random(f"{workload}:{seed}:{index}"))


def norm_of(d: int, x0: list[str]) -> Fraction:
    """N(p + q*sqrt d) = p^2 - d*q^2, the benchmark's own reference."""
    p, q = (Fraction(c) for c in x0)
    return p * p - d * q * q


def lvalue_reference(s: int) -> tuple[float, float]:
    """(value, tolerance) for the Q(sqrt 3) module at s = 1, 2, 3."""
    r3 = math.sqrt(3)
    pi = math.pi
    return {
        1: (-(pi**2) * r3 / 6, 1e-3),
        2: (pi**4 * r3 / 6, 1e-6),
        3: (-(pi**6) * r3 / 36, 1e-6),
    }[s]
