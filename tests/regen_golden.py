"""Regenerate the golden CLI outputs in tests/golden/<command>.json.

    PYTHONPATH=src python tests/regen_golden.py

Each case is one ``conesum <command>`` run, the command being the stem of
its file, made in process through ``conesum.cli.main`` from the root of the
checkout, with the config path relative to it and the field cache
emptied; the file holds its stdout, stderr and exit code, and
``tests/test_golden.py`` runs the cases again and compares.  The cases:

- converge: the shipped Q(sqrt 3) config in csv and json and at four x0,
  the cubic config (it has no fan), and the converge ops of the benchmark's
  first pass at seeds 1, 2, 29 and 83 (``perfbench/workloads.py``), run with
  the x0, N_max, tolerance and json format that its child sets;
- verify: the seven suites on both shipped configs;
- unitsearch: the cubic config, and the distinct unitsearch ops of the
  benchmark's passes 0 to 2 at seeds 1, 2 and 7, each the cubic config with
  the op's window, run with its a, b and radius and the json format that its
  child sets.

A change meant to alter an output regenerates the files and names every
changed case; the script prints the names of the cases whose stdout, stderr
or exit code changed.
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
GOLDEN_DIR = ROOT / "tests" / "golden"
SQRT3_CASES = (
    ("sqrt3-csv", []),
    ("sqrt3-json", ["--format", "json"]),
    ("sqrt3-x0-2,1", ["--x0", "2,1"]),
    ("sqrt3-x0-3,1-N6", ["--x0", "3,1", "--N-max", "6"]),
    ("sqrt3-x0-5,2-N6", ["--x0", "5,2", "--N-max", "6"]),
    ("sqrt3-x0-1,0", ["--x0", "1,0"]),
)
SEEDS = (1, 2, 29, 83)
UNITSEARCH_SEEDS = (1, 2, 7)
UNITSEARCH_PASSES = 3
CONFIGS = ("sqrt3", "cubic49")


def benchmark_ops(workload: str, seed: int, index: int = 0) -> list[dict]:
    """The ops of a workload's pass at this index of a benchmark run at the seed."""
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads.GENERATORS[workload](random.Random(f"{workload}:{seed}:{index}"))


def converge_cases() -> list[dict]:
    out = [{"name": name, "config": "configs/sqrt3.json", "options": options}
           for name, options in SQRT3_CASES]
    for seed in SEEDS:
        for i, op in enumerate(benchmark_ops("converge", seed)):
            out.append({
                "name": f"seed{seed}-op{i:02d}-sqrt{op['field']}-{op['draw']}",
                "config": op["raw"],
                "options": [f"--x0={','.join(op['x0'])}", f"--N-max={op['n_max']}",
                            f"--tol={op['tol']!r}", "--format=json"],
            })
    out.append({"name": "cubic49-no-fan", "config": "configs/cubic49.json", "options": []})
    return out


def unitsearch_cases() -> list[dict]:
    shipped = ROOT / "configs" / "cubic49.json"
    out = [{"name": "unitsearch-cubic49", "config": "configs/cubic49.json", "options": []}]
    seen = set()
    for seed in UNITSEARCH_SEEDS:
        for index in range(UNITSEARCH_PASSES):
            for op in benchmark_ops("unitsearch", seed, index):
                key = op["a"], op["b"], op["radius"], op["window"]
                if key in seen:
                    continue
                seen.add(key)
                raw = json.loads(shipped.read_text())
                raw["unitsearch"] = dict(raw["unitsearch"], window=op["window"])
                out.append({
                    "name": "op-a{}-b{}-r{}-w{}".format(*key).replace("/", "_"),
                    "config": raw,
                    "options": [f"--a={op['a']}", f"--b={op['b']}",
                                f"--radius={op['radius']}", "--format=json"],
                })
    return out


def cases() -> dict[str, list[dict]]:
    """The cases of each golden file, by command."""
    from conesum.cli import SUITES

    return {
        "converge": converge_cases(),
        "verify": [{"name": f"verify-{suite}-{name}", "config": f"configs/{name}.json",
                    "options": [suite]} for name in CONFIGS for suite in SUITES],
        "unitsearch": unitsearch_cases(),
    }


def run_case(command: str, case: dict, tmp_dir) -> dict:
    """stdout, stderr and exit code of the command on the case, run from the
    root of the checkout; a config given inline is written to tmp_dir
    first."""
    from conesum import cli, field

    config = case["config"]
    if isinstance(config, dict):
        config = str(Path(tmp_dir) / "config.json")
        Path(config).write_text(json.dumps(case["config"]))
    field._field_cache.cache_clear()
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.chdir(ROOT), contextlib.redirect_stdout(stdout), \
            contextlib.redirect_stderr(stderr):
        code = cli.main([command, *case["options"], config])
    return {"stdout": stdout.getvalue(), "stderr": stderr.getvalue(), "exit": code}


def golden_path(command: str) -> Path:
    return GOLDEN_DIR / f"{command}.json"


def load(command: str) -> list[dict]:
    path = golden_path(command)
    return json.loads(path.read_text()) if path.exists() else []


def main() -> int:
    outputs = ("stdout", "stderr", "exit")
    with tempfile.TemporaryDirectory() as tmp:
        for command, runs in cases().items():
            old = {case["name"]: case for case in load(command)}
            golden = [dict(case, **run_case(command, case, tmp)) for case in runs]
            golden_path(command).write_text(json.dumps(golden, indent=1) + "\n")
            print(f"wrote {len(golden)} cases to {golden_path(command).relative_to(ROOT)}")
            for case in golden:
                before = old.get(case["name"])
                if before is None:
                    print(f"  new: {case['name']}")
                elif any(before[k] != case[k] for k in outputs):
                    print(f"  changed: {case['name']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
