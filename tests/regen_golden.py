"""Regenerate the golden CLI outputs in tests/golden/converge.json.

    PYTHONPATH=src python tests/regen_golden.py

Each case is one ``conesum converge`` run, made in process through
``conesum.cli.main`` with the field and hull-chart caches emptied; the file
holds its stdout, stderr and exit code, and ``tests/test_golden.py`` runs
the cases again and compares.  The cases are the shipped Q(sqrt 3) config
in csv and json and at four x0, and the converge ops of the benchmark's
first pass at seeds 1, 2, 29 and 83 (``perfbench/workloads.py``), run with the x0,
N_max, tolerance and json format that its child sets.  A change meant to
alter an output regenerates the file and names every changed case.
"""

from __future__ import annotations

import contextlib
import importlib.util
import io
import json
import random
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden" / "converge.json"
SQRT3_CASES = (
    ("sqrt3-csv", []),
    ("sqrt3-json", ["--format", "json"]),
    ("sqrt3-x0-2,1", ["--x0", "2,1"]),
    ("sqrt3-x0-3,1-N6", ["--x0", "3,1", "--N-max", "6"]),
    ("sqrt3-x0-5,2-N6", ["--x0", "5,2", "--N-max", "6"]),
    ("sqrt3-x0-1,0", ["--x0", "1,0"]),
)
SEEDS = (1, 2, 29, 83)


def benchmark_ops(seed: int) -> list[dict]:
    """The converge ops of pass 0 of a benchmark run at the seed."""
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads.converge_ops(random.Random(f"converge:{seed}:0"))


def cases() -> list[dict]:
    out = [{"name": name, "config": "configs/sqrt3.json", "options": options}
           for name, options in SQRT3_CASES]
    for seed in SEEDS:
        for i, op in enumerate(benchmark_ops(seed)):
            out.append({
                "name": f"seed{seed}-op{i:02d}-sqrt{op['field']}-{op['draw']}",
                "config": op["raw"],
                "options": [f"--x0={','.join(op['x0'])}", f"--N-max={op['n_max']}",
                            f"--tol={op['tol']!r}", "--format=json"],
            })
    return out


def run_case(case: dict, tmp_dir) -> dict:
    """stdout, stderr and exit code of the case's converge run; a config
    given inline is written to tmp_dir first."""
    from conesum import cli, field, unitsearch

    config = case["config"]
    if isinstance(config, dict):
        path = Path(tmp_dir) / "config.json"
        path.write_text(json.dumps(config))
    else:
        path = ROOT / config
    field._field_cache.cache_clear()
    unitsearch._chart_cache.clear()
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main(["converge", str(path), *case["options"]])
    return {"stdout": stdout.getvalue(), "stderr": stderr.getvalue(), "exit": code}


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        golden = [dict(case, **run_case(case, tmp)) for case in cases()]
    GOLDEN.write_text(json.dumps(golden, indent=1) + "\n")
    print(f"wrote {len(golden)} cases to {GOLDEN.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
