"""Mutated shipped configs end in typed errors, never in a traceback.

Each example takes ``configs/sqrt3.json`` or ``configs/cubic49.json`` and
applies one or two mutations at random places of its JSON tree: a dropped
key or list entry, a value of the wrong type, a non-numeric or empty string,
or a list one entry too long or too short.  ``build_config`` must either
accept the result or raise a ``ConesumError``; ``cli.main`` must return an
exit code, 1 or 2 when the config was rejected, and let no exception out.
"""

import contextlib
import copy
import io
import json
import os
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from conesum.cli import main
from conesum.config import build_config
from conesum.errors import ConesumError

ROOT = Path(__file__).resolve().parents[1]
SHIPPED = {
    name: json.loads((ROOT / "configs" / f"{name}.json").read_text())
    for name in ("sqrt3", "cubic49")
}
# cheap commands on each config, with no flag that overrides a config key,
# so that a config that survives runs quickly
COMMANDS = {
    "sqrt3": ["converge"],
    "cubic49": ["unitsearch", "--radius", "1"],
}
BAD_VALUES = [
    None, True, 0, -1, 2.5, "", "x", "1/0", "2/", [], {}, ["1"], ["x", "0"], {"a": 1},
]


def _paths(tree, prefix=()):
    """Every path of keys and indices below the root of a JSON tree."""
    items = tree.items() if isinstance(tree, dict) else (
        enumerate(tree) if isinstance(tree, list) else ()
    )
    for key, value in items:
        yield prefix + (key,)
        yield from _paths(value, prefix + (key,))


@st.composite
def mutated(draw, name):
    raw = copy.deepcopy(SHIPPED[name])
    for _ in range(draw(st.integers(1, 2))):
        paths = list(_paths(raw))
        if not paths:
            break
        path = draw(st.sampled_from(paths))
        parent = raw
        for key in path[:-1]:
            parent = parent[key]
        key, value = path[-1], parent[path[-1]]
        op = draw(st.sampled_from(["drop", "replace", "longer", "shorter"]))
        if op == "drop":
            del parent[key]
        elif op == "longer" and isinstance(value, list):
            value.append(copy.deepcopy(draw(st.sampled_from(["1", 1, *BAD_VALUES]))))
        elif op == "shorter" and isinstance(value, list) and value:
            value.pop()
        else:
            parent[key] = copy.deepcopy(draw(st.sampled_from(BAD_VALUES)))
    return raw


def check_typed_failure(name, raw):
    try:
        build_config(raw)
        rejected = False
    except ConesumError:
        rejected = True

    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "config.json")
        with open(path, "w") as fh:
            json.dump(raw, fh)
        command, *flags = COMMANDS[name]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command, path, *flags])
    if rejected:
        assert code in (1, 2)
        assert "error" in json.loads(err.getvalue())
    else:
        assert code in (0, 1, 2, 3)


@pytest.mark.parametrize("name", sorted(SHIPPED))
@given(data=st.data())
@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_mutated_config_ends_in_a_typed_error(name, data):
    check_typed_failure(name, data.draw(mutated(name)))


@pytest.mark.parametrize(
    "name, path, value",
    [
        # each raised an untyped exception in build_config or cmd_unitsearch
        ("sqrt3", ("module", "basis"), None),
        ("sqrt3", ("module", "units"), []),
        ("sqrt3", ("fan",), {"type": "explicit", "cones": 3, "unit_action": []}),
        ("sqrt3", ("fan",), {"type": "explicit", "cones": [None], "unit_action": []}),
        # accepted before; `verify lemma1` then raised IndexError
        ("sqrt3", ("fan",), {"type": "explicit", "cones": [], "unit_action": [["2", "1"]]}),
        ("cubic49", ("module", "units"), 2.5),
        ("cubic49", ("unitsearch",), ["x"]),
        ("cubic49", ("unitsearch", "radius"), ""),
        ("cubic49", ("unitsearch", "window"), None),
    ],
)
def test_mutations_found_by_fuzzing(name, path, value):
    raw = copy.deepcopy(SHIPPED[name])
    parent = raw
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    with pytest.raises(ConesumError):
        build_config(raw)
    check_typed_failure(name, raw)
