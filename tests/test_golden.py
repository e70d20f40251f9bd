"""stdout, stderr and exit code of a fixed list of CLI runs, byte for byte
against tests/golden/ (regenerated by tests/regen_golden.py)."""

import json

import pytest

from regen_golden import GOLDEN, run_case

CASES = json.loads(GOLDEN.read_text())


def first_difference(got: str, want: str) -> str:
    got_lines, want_lines = got.splitlines(), want.splitlines()
    for i in range(max(len(got_lines), len(want_lines))):
        g = got_lines[i] if i < len(got_lines) else "<end>"
        w = want_lines[i] if i < len(want_lines) else "<end>"
        if g != w:
            return f"line {i + 1}: got {g!r}, golden {w!r}"
    return "line endings differ"


@pytest.mark.parametrize("case", CASES, ids=[case["name"] for case in CASES])
def test_output_matches_golden(case, tmp_path):
    got = run_case(case, tmp_path)
    for stream in ("stdout", "stderr"):
        assert got[stream] == case[stream], f"{stream}, {first_difference(got[stream], case[stream])}"
    assert got["exit"] == case["exit"]
