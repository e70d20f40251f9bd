"""The package's records (``conesum.record``): construction by position or
keyword with fresh defaults, field-wise equality, hash and repr, frozen
records that refuse assignment, mutable records that are unhashable, and
copies."""

import copy
import pickle
from fractions import Fraction
from pathlib import Path

import pytest

from conesum import arith, config, cycles, fan, field, summation, unitsearch
from conesum.errors import MixedExponents, NotFullRank

ROOT = Path(__file__).resolve().parents[1]
MUTABLE = {"RunConfig", "ConditionReport", "ValidationReport", "HullChart"}


@pytest.fixture(scope="module")
def records():
    """One instance of each record, built through the library."""
    cfg = config.load_config(str(ROOT / "configs" / "sqrt3.json"))
    cubic = config.load_config(str(ROOT / "configs" / "cubic49.json"))
    F = cfg.field
    tf = fan.truncate(cfg.fan, 1)
    data = arith.quadratic_intersections(cfg.fan.vertex_sequence)
    report = fan.validate_good_fan(tf)
    term = summation.cone_term(tf.top_cones[0], cfg.fan.module_basis, cfg.x0)
    cand = unitsearch.search_admissible(cubic.module.units, Fraction(13, 10), Fraction(5, 2), 4)
    found = [
        cfg,
        cfg.module,
        cfg.module.units,
        cfg.fan,
        cfg.fan.vertex_sequence,
        data,
        arith.satake_rhs(data, 1, 2, cfg.module.d_M),
        cycles.dual_point_function(F),
        tf.group_singular_terms(cfg.x0)[0],
        report,
        report.conditions[0],
        term.value,
        term,
        summation.partial_sum(tf, cfg.x0),
        cand,
        unitsearch.hull_chart(cand, (0, 1), 1),
    ]
    return {type(r).__name__: r for r in found}


def test_every_record_is_covered(records):
    assert len(records) == 16
    assert all(type(r).__module__.startswith("conesum.") for r in records.values())


def _fields(r):
    return {name: getattr(r, name) for name in type(r).__slots__}


@pytest.mark.parametrize("name", sorted(MUTABLE))
def test_mutable_records_assign_and_are_unhashable(records, name):
    r = copy.copy(records[name])
    first = type(r).__slots__[0]
    setattr(r, first, "changed")
    assert getattr(r, first) == "changed" and r != records[name]
    with pytest.raises(TypeError):
        hash(r)


def test_construction_by_position_and_keyword(records):
    for name, r in records.items():
        fields = _fields(r)
        by_position = type(r)(*fields.values())
        by_keyword = type(r)(**fields)
        assert by_position == r and by_keyword == r and by_position is not r, name
        assert r != tuple(fields.values()) and r != object(), name
        frozen = name not in MUTABLE and name != "IntersectionData"  # a dict field
        if frozen:
            assert hash(by_keyword) == hash(r), name


def test_frozen_records_refuse_assignment(records):
    for name, r in records.items():
        if name in MUTABLE:
            continue
        first = type(r).__slots__[0]
        before = getattr(r, first)
        with pytest.raises(AttributeError):
            setattr(r, first, None)
        with pytest.raises(AttributeError):
            delattr(r, first)
        with pytest.raises(AttributeError):
            r.not_a_field = 1
        assert getattr(r, first) is before, name


def test_equality_is_field_wise():
    row = summation.ConvergenceRow(1, None, Fraction(1, 6), 0.5)
    assert row == summation.ConvergenceRow(1, None, Fraction(1, 6), 0.5)
    assert row != summation.ConvergenceRow(2, None, Fraction(1, 6), 0.5)
    assert hash(row) == hash(summation.ConvergenceRow(1, None, Fraction(1, 6), 0.5))
    with pytest.raises(TypeError):
        hash(arith.IntersectionData(1, 2, {}))


def test_repr_names_every_field(records):
    assert repr(summation.ConvergenceRow(1, None, Fraction(1, 6), 0.5)) == (
        "ConvergenceRow(window=1, value=None, target=Fraction(1, 6), abs_error=0.5)"
    )
    assert repr(fan.ConditionReport("c", True)) == (
        "ConditionReport(name='c', passed=True, detail='')"
    )
    assert repr(fan.ValidationReport()) == "ValidationReport(conditions=[])"
    for name, r in records.items():
        if name != "ScaledRational":
            assert repr(r) == f"{name}(" + ", ".join(
                f"{k}={v!r}" for k, v in _fields(r).items()
            ) + ")"


def test_scaled_rational_keeps_its_own_methods():
    # 1/2 sqrt3 == (3/2)/sqrt3: equal values, with different fields
    a = field.ScaledRational(Fraction(1, 2), 1, 3)
    b = field.ScaledRational(Fraction(3, 2), -1, 3)
    assert (a.q, a.e) != (b.q, b.e)
    assert a == b and hash(a) == hash(b)
    assert repr(a) == "ScaledRational(1/2√3)"
    # a square discriminant folds the root in as it did
    assert _fields(field.ScaledRational(1, 1, 4)) == {"q": 2, "e": 0, "disc": 4}


def test_defaults_are_fresh_per_instance():
    assert cycles.CPDFunction(2, len, 0).name == "cpd"
    assert fan.ConditionReport("c", False).detail == ""
    first, second = fan.ValidationReport(), fan.ValidationReport()
    first.add("c", True)
    assert second.conditions == [] and first.passed
    cfgs = [config.RunConfig(None, None, None, None, 1, 0.0, 0, "csv") for _ in range(2)]
    assert cfgs[0].unitsearch == {}
    assert cfgs[0].unitsearch is not cfgs[1].unitsearch


def test_a_kept_frame_is_not_a_field(records):
    # a description keeps the frame it builds when first read outside its
    # fields: ==, hash, repr, copies and pickles match a fresh description's,
    # and a copy builds a frame of its own
    desc = records["FanDescription"]
    frame = desc.frame
    assert desc.frame is frame
    fresh = fan.FanDescription(*_fields(desc).values())
    for twin in (desc, copy.copy(desc), copy.deepcopy(desc), pickle.loads(pickle.dumps(desc))):
        assert twin == fresh and hash(twin) == hash(fresh) and repr(twin) == repr(fresh)
        assert twin.__reduce__() == fresh.__reduce__()
        assert pickle.dumps(twin) == pickle.dumps(fresh)
        if twin is not desc:
            assert twin.frame is not frame
            assert (twin.frame.units, twin.frame.reps) == (frame.units, frame.reps)


def test_validation_still_runs_in_init(records):
    with pytest.raises(MixedExponents):
        field.ScaledRational(1, 2, 3)
    module = records["LatticeModule"]
    with pytest.raises(NotFullRank):
        arith.LatticeModule(module.basis[:1], module.rho, module.units)


def test_copies(records):
    for name, r in records.items():
        assert copy.copy(r) == r, name
    for name in ("ScaledRational", "ConvergenceRow", "ConditionReport"):
        assert copy.deepcopy(records[name]) == records[name]
    chart = records["HullChart"]
    fake = copy.deepcopy(chart)
    assert fake.points is not chart.points
    assert sorted(fake.points) == sorted(chart.points)
    assert (fake.index_set, fake.exponents, fake.window) == (
        chart.index_set, chart.exponents, chart.window
    )
    fake.points[(99, -99)] = fake.points[sorted(fake.points)[0]]
    assert (99, -99) not in chart.points


def test_a_star_is_a_mutable_record(records):
    # the star of a window sum at a ray point: built by position and
    # keyword, copied field-wise, unhashable, and revalued in place
    desc = records["FanDescription"]
    terms = summation.WindowSum(desc, desc.field.element([3, 1]))
    terms.add(fan.truncate(desc, 2).pairs)
    total = terms.total()
    (star,) = terms.stars.values()
    fields = _fields(star)
    assert type(star)(*fields.values()) == star == type(star)(**fields) == copy.copy(star)
    assert repr(star).startswith(f"Star(carrier={star.carrier!r}, members=")
    with pytest.raises(TypeError):
        hash(star)
    value, star.value = star.value, None
    assert terms.total() == total and star.value == value
