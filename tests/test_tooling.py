"""The traced benchmark run wraps conesum functions by name; every name it
lists must still resolve, or a deletion breaks the benchmark silently."""

import importlib
import importlib.util
from pathlib import Path

LAYERTRACE = Path(__file__).resolve().parents[1] / "perfbench" / "layertrace.py"


def test_layertrace_targets_resolve():
    spec = importlib.util.spec_from_file_location("layertrace", LAYERTRACE)
    layertrace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layertrace)
    assert layertrace.TARGETS
    for target in layertrace.TARGETS:
        module, *path = target.split(".")
        obj = importlib.import_module(f"conesum.{module}")
        for attr in path:
            assert hasattr(obj, attr), f"{target} no longer resolves"
            obj = getattr(obj, attr)
