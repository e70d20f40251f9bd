"""Checks on the program as a tool: the names the traced benchmark run
wraps must still resolve (a deletion would break it silently), its count
of truncated cones reads the top cones that a truncation builds when
first read, output may not depend on ``python -O``, importing it stays
free of sympy, field construction and ``converge`` stay free of numpy,
the library never loads mpmath, and importing the CLI loads none of
``dataclasses`` (with ``inspect``), ``argparse`` and ``typing``."""

import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

from conesum import __version__

ROOT = Path(__file__).resolve().parents[1]
LAYERTRACE = ROOT / "perfbench" / "layertrace.py"


def _python(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, cwd=ROOT, env=env
    )


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


def test_optimized_mode_gives_the_same_output():
    # asserts vanish under -O; no result may depend on them
    args = ["-m", "conesum.cli", "converge", "configs/sqrt3.json"]
    plain = _python(*args)
    optimized = _python("-O", *args)
    assert plain.returncode == 0, plain.stderr
    assert (optimized.stdout, optimized.returncode) == (plain.stdout, plain.returncode)


def test_field_construction_does_not_import_sympy():
    probe = _python(
        "-c",
        "import sys, conesum; conesum.make_field([-3, 0, 1]); "
        "print('sympy' in sys.modules)",
    )
    assert probe.returncode == 0, probe.stderr
    assert probe.stdout.strip() == "False"


def test_field_and_converge_do_not_import_numpy():
    # numpy is imported only by the L-value enumerator and the area oracle;
    # the library never imports mpmath, so neither the import, nor converge
    # in either format, nor unitsearch, nor the area suite loads it
    probe = _python(
        "-c",
        "import contextlib, io, sys\n"
        "import conesum, conesum.config\n"
        "from conesum import cli\n"
        "print('mpmath' in sys.modules)\n"
        "conesum.make_field([-3, 0, 1])\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [cli.main(['converge', 'configs/sqrt3.json', '--format', 'json']),\n"
        "             cli.main(['unitsearch', 'configs/cubic49.json'])]\n"
        "print(codes, 'mpmath' in sys.modules)\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = cli.main(['converge', 'configs/sqrt3.json'])\n"
        "print(code, 'numpy' in sys.modules, 'mpmath' in sys.modules)\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = cli.main(['verify', 'hurwitz', 'configs/sqrt3.json'])\n"
        "print(code, 'mpmath' in sys.modules)\n",
    )
    assert probe.returncode == 0, probe.stderr
    assert probe.stdout.splitlines() == ["False", "[0, 0] False", "0 False False", "0 False"]


def test_cli_import_skips_dataclasses_inspect_and_argparse():
    # -S: no site hooks, so only what conesum itself imports is counted;
    # argparse loads when main parses arguments; annotations are never
    # evaluated, so typing is not needed for them
    probe = _python(
        "-S",
        "-c",
        "import sys\n"
        "import conesum.cli\n"
        "print([m for m in ('dataclasses', 'inspect', 'argparse', 'typing') if m in sys.modules])\n"
        "try:\n"
        "    conesum.cli.main(['--version'])\n"
        "except SystemExit as exc:\n"
        "    print(exc.code, 'argparse' in sys.modules)\n",
    )
    assert probe.returncode == 0, probe.stderr
    assert probe.stdout.splitlines() == ["[]", __version__, "0 True"]


def test_traced_lvalue_run_counts_certified_points():
    # the traced benchmark run wraps slice_masks and norm_scaled and counts
    # the points of their array arguments; the enumerator calls them only
    # from certify, on the two ends and two outer neighbours of each interval
    probe = _python(
        "-c",
        "import sys\n"
        "sys.path.insert(0, 'perfbench')\n"
        "import layertrace\n"
        "from conesum import arith, cli, config, cycles, fan, field, geometry\n"
        "from conesum import linalg, summation, unitsearch\n"
        "cfg = config.load_config('configs/sqrt3.json')\n"
        "tracer = layertrace.Tracer()\n"
        "tracer.install()\n"
        "arith.lvalue_numeric(cfg.module, 2, 1e4)\n"
        "tracer.uninstall()\n"
        "enum = arith._QuadraticEnumerator(cfg.module)\n"
        "intervals = len(enum.kept_intervals(1e4, 9 * 10**4)[0])\n"
        "c = tracer.summary()['counters']\n"
        "print(c['arith.candidates'] == c['arith.kept'] == 4 * intervals > 0)\n",
    )
    assert probe.returncode == 0, probe.stderr
    assert probe.stdout.strip() == "True"


def test_traced_lemma1_counts_the_truncated_cones():
    # the traced benchmark run reads len(result.top_cones) on return of
    # fan.truncate, and a truncation builds its top cones when first read:
    # the count is the top cones of the truncations the suite made, two
    # windows and their refinements
    probe = _python(
        "-c",
        "import sys\n"
        "sys.path.insert(0, 'perfbench')\n"
        "import layertrace\n"
        "from conesum import arith, cli, config, cycles, fan, field, geometry\n"
        "from conesum import linalg, summation, unitsearch\n"
        "made = []\n"
        "def recorded(*args, _truncate=fan.truncate):\n"
        "    made.append(_truncate(*args))\n"
        "    return made[-1]\n"
        "fan.truncate = cli.truncate = recorded\n"
        "cfg = config.load_config('configs/sqrt3.json')\n"
        "tracer = layertrace.Tracer()\n"
        "tracer.install()\n"
        "results = cli.suite_lemma1(cfg)\n"
        "tracer.uninstall()\n"
        "c = tracer.summary()['counters']\n"
        "cones = sum(len(tf.top_cones) for tf in made)\n"
        "print(len(made), all(r['pass'] for r in results), c['fan.cones_truncated'] == cones > 0)\n",
    )
    assert probe.returncode == 0, probe.stderr
    assert probe.stdout.strip() == "4 True True"
