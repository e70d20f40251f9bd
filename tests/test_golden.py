"""stdout, stderr and exit code of a fixed list of CLI runs, byte for byte
against tests/golden/ (regenerated by tests/regen_golden.py)."""

import json

import pytest

from regen_golden import GOLDEN_DIR, ROOT, run_case

FILES = sorted(GOLDEN_DIR.glob("*.json"))
CASES = [(path.stem, case) for path in FILES for case in json.loads(path.read_text())]


def first_difference(got: str, want: str) -> str:
    got_lines, want_lines = got.splitlines(), want.splitlines()
    for i in range(max(len(got_lines), len(want_lines))):
        g = got_lines[i] if i < len(got_lines) else "<end>"
        w = want_lines[i] if i < len(want_lines) else "<end>"
        if g != w:
            return f"line {i + 1}: got {g!r}, golden {w!r}"
    return "line endings differ"


@pytest.mark.parametrize("command,case", CASES,
                         ids=[case["name"] for _, case in CASES])
def test_output_matches_golden(command, case, tmp_path):
    got = run_case(command, case, tmp_path)
    for stream in ("stdout", "stderr"):
        assert got[stream] == case[stream], f"{stream}, {first_difference(got[stream], case[stream])}"
    assert got["exit"] == case["exit"]


def test_every_command_is_pinned():
    assert [path.stem for path in FILES] == ["converge", "unitsearch", "verify"]


@pytest.mark.parametrize("path", FILES, ids=[path.name for path in FILES])
def test_no_entry_names_the_checkout(path):
    assert str(ROOT) not in path.read_text()
