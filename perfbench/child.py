"""Run one benchmark operation in a fresh interpreter.

    python3 perfbench/child.py '<op as JSON>' [--trace]

Run from the root of a conesum checkout.  The child imports ``conesum`` from
``./src``, builds the run configuration with ``conesum.config`` (field,
module and fan), then calls the public command function and captures what it
prints.  Progress goes to the real stdout as JSON lines, each stamped with
``time.perf_counter()`` (a system-wide monotonic clock on Linux, so the
parent can compare the stamps with its own):

    {"ev": "start", ...}         before ``import conesum``
    {"ev": "setup_done", ...}    after the configuration is built
    {"ev": "done", ...}          exit code, typed error, captured stdout,
                                 command start and end, command CPU time

``start`` carries the time of a pure-Python calibration loop, run before
``import conesum``.  The same loop runs again right before and right after
the command (a numpy kernel instead, for ops whose command is numpy work,
``NUMPY_KINDS``); ``done`` carries those two times.  The parent turns them
into speed factors.

With ``--trace`` the public functions of each layer are wrapped (see
``layertrace.py``) and the ``done`` record carries the per-layer summary.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import time
import traceback
import types

# exit codes of the conesum CLI
EXIT_CONFIG = 2
EXIT_FAIL = 1
# the child itself broke (an untyped exception or a foreign conesum)
EXIT_CRASH = 70
# about 15 ms per round on a 2 GHz core when nothing else shares it
CALIBRATION_LOOPS = 200_000
NOMINAL_CALIBRATION_S = 0.015
# a memory-bound int64 numpy kernel, about 25 ms per round on the same core;
# it stands in for the loop around the command of ops whose work is numpy
NUMPY_CALIBRATION_N = 2_000_000
NUMPY_CALIBRATION_ROUNDS = 5
NOMINAL_NUMPY_CALIBRATION_S = 0.025
NUMPY_KINDS = {"lvalue"}


def emit(ev: str, **fields) -> None:
    fields["ev"] = ev
    fields["t"] = time.perf_counter()
    sys.__stdout__.write(json.dumps(fields, sort_keys=True) + "\n")
    sys.__stdout__.flush()


def _load_raw(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def build(op: dict, config):
    """Build the RunConfig for an op; returns the command to run on it."""
    kind = op["kind"]
    if kind == "converge":
        overrides = {
            "x0": op["x0"],
            "N_max": op["n_max"],
            "tolerance": op["tol"],
            "format": "json",
        }
        cfg = config.build_config(op["raw"], overrides)
        return lambda cli, out: cli.cmd_converge(cfg, out=out)
    if kind == "unitsearch":
        raw = _load_raw(op["config"])
        raw["unitsearch"] = dict(raw.get("unitsearch", {}), window=op["window"])
        cfg = config.build_config(raw, {"format": "json"})
        # a, b and radius travel as the CLI's --a/--b/--radius flags
        args = types.SimpleNamespace(a=op["a"], b=op["b"], radius=op["radius"])
        return lambda cli, out: cli.cmd_unitsearch(cfg, args, out=out)
    if kind == "lvalue":
        cfg = config.load_config(op["config"])

        def run(cli, out):
            from conesum import arith

            value = arith.lvalue_numeric(cfg.module, op["s"], op["cutoff"])
            print(repr(value), file=out)
            return 0

        return run
    raise ValueError(f"unknown op kind {kind!r}")


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop: the machine's speed right now."""
    best = float("inf")
    for _ in range(3):
        t = time.perf_counter()
        acc = 0
        for i in range(CALIBRATION_LOOPS):
            acc += i * i % 7
        best = min(best, time.perf_counter() - t)
    return best


def calibrate_numpy() -> float:
    """Seconds for a fixed numpy kernel shaped like the L-value enumerator
    (int64 tile, affine forms, sign masks, masked sum)."""
    import numpy as np

    best = float("inf")
    for _ in range(NUMPY_CALIBRATION_ROUNDS):
        t = time.perf_counter()
        a = np.arange(NUMPY_CALIBRATION_N, dtype=np.int64)
        b = np.tile(a[:1000], NUMPY_CALIBRATION_N // 1000)
        keep = (3 * a + 7 * b > 5) & (a * a - 3 * b * b < 0)
        int(a[keep].sum())
        best = min(best, time.perf_counter() - t)
    return best


def main(argv: list[str]) -> int:
    op = json.loads(argv[0])
    traced = "--trace" in argv[1:]
    src = os.path.join(os.getcwd(), "src")
    sys.path.insert(0, src)
    emit("start", calibration_s=calibrate())

    import conesum
    from conesum import cli, config
    from conesum.errors import ConesumError

    if not os.path.abspath(conesum.__file__).startswith(src + os.sep):
        emit("done", rc=EXIT_CRASH, error={"kind": "ForeignConesum", "msg": conesum.__file__})
        return EXIT_CRASH

    tracer = None
    if traced:
        from layertrace import Tracer

        tracer = Tracer()
        tracer.install()

    # whatever conesum prints, in set-up or in the command, is the op's output
    buf = io.StringIO()
    error = None
    phase = "setup"
    # the machine's speed right before and right after the command
    command_calibrate = calibrate_numpy if op["kind"] in NUMPY_KINDS else calibrate
    command_calibration = []
    t_command = cpu_command = None
    try:
        with contextlib.redirect_stdout(buf):
            command = build(op, config)
            emit("setup_done")
            phase = "command"
            command_calibration.append(command_calibrate())
            t_command, cpu_command = time.perf_counter(), time.process_time()
            rc = command(cli, buf)
    except ConesumError as exc:
        rc = EXIT_CONFIG if isinstance(exc, config.ConfigError) else EXIT_FAIL
        error = {"kind": type(exc).__name__, "msg": str(exc), "phase": phase}
    except Exception as exc:  # reported to the parent, which fails the run
        rc = EXIT_CRASH
        error = {
            "kind": type(exc).__name__,
            "msg": str(exc),
            "phase": phase,
            "traceback": traceback.format_exc(),
        }
    t_end, cpu_end = time.perf_counter(), time.process_time()
    if phase == "setup":
        emit("setup_done")
    if t_command is None:  # failed before the command started
        t_command, cpu_command = t_end, cpu_end
    command_calibration.append(command_calibrate())
    text = buf.getvalue()
    record = {
        "rc": rc,
        "error": error,
        "stdout": text,
        "sha256": hashlib.sha256(text.encode()).hexdigest(),
        "t_command": t_command,
        "t_end": t_end,
        "command_cpu_s": cpu_end - cpu_command,
        "command_calibration_s": command_calibration,
    }
    if tracer is not None:
        tracer.uninstall()
        record["trace"] = tracer.summary()
    emit("done", **record)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
