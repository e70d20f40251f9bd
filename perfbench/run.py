"""conesum benchmark: CLI workloads measured end to end, one process per op.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a conesum checkout.  Every operation runs in a fresh
child interpreter (``child.py``), one at a time (closed loop, one client):
the child imports ``conesum`` from ``./src``, builds the config and calls
one public command.  A pass is the workload's list of ops; ``--seconds``
sets how many passes a run makes (``workloads.passes_for``) and the run
reports medians over them.  Every answer is checked against a reference computed
here (``checks.py``); stdout digests must repeat for the same op and code.
Every time is scaled to nominal seconds by speed factors each child measures
with calibration loops that never touch conesum (``run_op``).

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the first
pass untraced, then again with every layer traced, and prints the per-layer
metrics plus the tracing overhead.  The last stdout line is the result:
{"correct", "attempted", "failed", "metrics"}; the line before it holds the
environment, the op tail's sample count, each op's set-up and command time,
and every failed op with its input and reason.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import select
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata

import mpmath

import checks
import child
import layertrace
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "child.py")
STATE_DIR = ".perfbench"
THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}
EXPECTED_EXIT = {"converge": {0}, "lvalue": {0}, "unitsearch": {0, 3}}
TAIL_BEYOND = 10
# a deadline in nominal seconds never stretches beyond this many raw ones
MAX_DEADLINE_STRETCH = 4.0


# ---------------------------------------------------------------------------
# one op in one child process


def _child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env.update(THREAD_ENV)
    return env


def speed_factor(start: dict | None) -> float:
    """The machine's speed when the op started, as a factor onto a nominal
    machine: nominal seconds = raw seconds * factor."""
    if start is None:
        return 1.0
    return child.NOMINAL_CALIBRATION_S / start["calibration_s"]


def spawn(op: dict, trace: bool, deadline: float, env: dict) -> dict:
    """Run the child to completion or to the deadline; reap it with wait4 to
    get its own CPU time and peak RSS.  The deadline is in nominal seconds
    from spawn: once the child reports its calibration, the raw deadline
    becomes ``deadline / speed`` (at most MAX_DEADLINE_STRETCH times the
    nominal one), so a slow spell of the machine does not kill an op."""
    argv = [sys.executable, CHILD, json.dumps(op, sort_keys=True)]
    if trace:
        argv.append("--trace")
    t_spawn = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    out_fd, err_fd = proc.stdout.fileno(), proc.stderr.fileno()
    chunks = {out_fd: [], err_fd: []}
    open_fds = set(chunks)
    kill_at = t_spawn + deadline  # until the child reports its speed
    calibrated = False
    t_kill = None
    try:
        while open_fds:
            if not calibrated and b"\n" in b"".join(chunks[out_fd]):
                first = json.loads(b"".join(chunks[out_fd]).split(b"\n", 1)[0])
                speed = max(speed_factor(first), 1.0 / MAX_DEADLINE_STRETCH)
                kill_at = t_spawn + deadline / speed
                calibrated = True
            remaining = kill_at - time.perf_counter()
            if t_kill is None and remaining <= 0:
                proc.kill()
                t_kill = time.perf_counter()
            timeout = None if t_kill is not None else remaining
            ready, _, _ = select.select(list(open_fds), [], [], timeout)
            for fd in ready:
                data = os.read(fd, 1 << 16)
                if data:
                    chunks[fd].append(data)
                else:
                    open_fds.discard(fd)
    finally:
        if t_kill is None and open_fds:  # interrupted while the child runs
            proc.kill()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        t_exit = time.perf_counter()
        proc.stdout.close()
        proc.stderr.close()
    events = {}
    for line in b"".join(chunks[out_fd]).decode().splitlines():
        record = json.loads(line)
        events[record["ev"]] = record
    return {
        "events": events,
        "stderr": b"".join(chunks[err_fd]).decode(errors="replace"),
        "exit": proc.returncode,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "maxrss_mb": usage.ru_maxrss / 1024.0,
        "t_spawn": t_spawn,
        "t_exit": t_exit,
        "t_kill": t_kill,
    }


def _check(op: dict, rc: int, out: str, min_poly: list[int]):
    kind = op["kind"]
    if kind == "converge":
        return checks.check_converge(op, rc, out)
    if kind == "lvalue":
        return checks.check_lvalue(op, rc, out)
    return checks.check_unitsearch(op, rc, out, min_poly)


def run_op(op: dict, trace: bool, deadline: float, env: dict, min_poly) -> dict:
    """One op, with its times in nominal seconds.  Everything but the
    command is scaled by the speed factor the child measured at start; the
    command by the mean of the calibrations right before and after it
    (``child.NUMPY_KINDS`` use the numpy kernel there).  ``raw`` keeps the
    unscaled times."""
    r = spawn(op, trace, deadline, env)
    ev = r["events"]
    start, setup, done = ev.get("start"), ev.get("setup_done"), ev.get("done")
    speed = speed_factor(start)
    command_cal = (done or {}).get("command_calibration_s") or []
    nominal = (child.NOMINAL_NUMPY_CALIBRATION_S if op["kind"] in child.NUMPY_KINDS
               else child.NOMINAL_CALIBRATION_S)
    command_speed = nominal / statistics.fmean(command_cal) if command_cal else speed
    wall = r["t_exit"] - r["t_spawn"]
    if start is None:
        setup_s = 0.0
    elif setup is not None:
        setup_s = setup["t"] - start["t"]
    else:
        setup_s = (r["t_kill"] or r["t_exit"]) - start["t"]
    command = command_cpu = 0.0
    if done is not None and "t_end" in done:
        command = done["t_end"] - done["t_command"]
        command_cpu = done["command_cpu_s"]
    result = {
        "op": op,
        "speed": speed,
        "command_speed": command_speed,
        "wall_s": (wall - command) * speed + command * command_speed,
        "setup_s": setup_s * speed,
        "command_s": command * command_speed,
        "cpu_s": (r["cpu_s"] - command_cpu) * speed + command_cpu * command_speed,
        "maxrss_mb": r["maxrss_mb"],
        "raw": {"wall_s": wall, "setup_s": setup_s, "command_s": command},
        "digest": None,
        "trace": None,
    }

    if r["t_kill"] is not None and done is None:
        # the op's command sample is the deadline itself
        result.update(status="deadline", command_s=deadline,
                      reason=f"killed at the {deadline:g} s (nominal) deadline")
        return result
    if done is None:
        result.update(status="crash",
                      reason=f"child exit {r['exit']} without a result: {r['stderr'][-2000:]}")
        return result
    result["digest"] = done.get("sha256")
    result["trace"] = done.get("trace")
    error = done["error"]
    if error is not None:
        crash = done["rc"] == child.EXIT_CRASH
        result.update(status="crash" if crash else "error",
                      reason=f"{error['kind']} in {error.get('phase', 'import')}: {error['msg']}"
                      + (f"\n{error.get('traceback', '')}" if crash else ""))
        return result
    try:
        reason = _check(op, done["rc"], done["stdout"], min_poly)
    except (ValueError, KeyError, TypeError) as exc:  # unparsable output
        reason = ("wrong", f"unreadable output: {exc!r}")
    if reason is None and done["rc"] not in EXPECTED_EXIT[op["kind"]]:
        reason = ("exit", f"unexpected exit code {done['rc']}")
    if reason is None:
        result.update(status="ok", reason="")
    else:
        result.update(status=reason[0], reason=reason[1])
    return result


# ---------------------------------------------------------------------------
# passes and metrics


def run_pass(ops, trace: bool, deadline: float, env: dict, min_poly) -> dict:
    t0 = time.perf_counter()
    results = [run_op(op, trace, deadline, env, min_poly) for op in ops]
    return {"wall_s": time.perf_counter() - t0, "ops": results, "traced": trace}


def harrell_davis(samples: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: a weighted mean of all
    order statistics, the i-th weighted by the Beta((n+1)p, (n+1)(1-p)) mass
    of [(i-1)/n, i/n].  A workload's ops differ in cost, so a single order
    statistic jumps from one op to another as times shift; this estimate
    moves smoothly instead."""
    xs = sorted(samples)
    n = len(xs)
    a, b = (n + 1) * p, (n + 1) * (1 - p)
    return float(sum(
        mpmath.betainc(a, b, i / n, (i + 1) / n, regularized=True) * x
        for i, x in enumerate(xs)
    ))


def _tail(samples: list[float]) -> tuple[float, dict]:
    """The highest percentile with at least TAIL_BEYOND samples above it,
    estimated by ``harrell_davis``; the maximum when there are too few
    samples for that."""
    n = len(samples)
    if n <= TAIL_BEYOND:
        return max(samples), {"samples": n, "beyond": 0, "percentile": 100.0}
    p = (n - TAIL_BEYOND) / n
    info = {"samples": n, "beyond": TAIL_BEYOND, "percentile": round(100.0 * p, 2)}
    return harrell_davis(samples, p), info


def end_to_end(passes: list[dict]) -> tuple[dict, dict]:
    """Medians over passes of per-pass sums, and order statistics pooled
    over all ops; every time is in nominal seconds (``run_op``)."""
    ops = [o for p in passes for o in p["ops"]]
    med = statistics.median

    def per_pass(key):
        return med(sum(o[key] for o in p["ops"]) for p in passes)

    tail, tail_info = _tail([o["command_s"] for o in ops])
    ok = sum(o["status"] == "ok" for o in ops)
    values = {
        "wall_s": (per_pass("wall_s"), "s"),
        "setup_s": (per_pass("setup_s"), "s"),
        "cpu_s": (per_pass("cpu_s"), "s"),
        "op_p50_s": (harrell_davis([o["command_s"] for o in ops], 0.5), "s"),
        "op_tail_s": (tail, "s"),
        "peak_rss_mb": (med(max(o["maxrss_mb"] for o in p["ops"]) for p in passes), "MB"),
        "ok_frac": (ok / len(ops), "ratio"),
    }
    raw_wall = med(p["wall_s"] for p in passes)
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in values.items()}
    return metrics, {"op_tail_s": tail_info, "raw_wall_s": raw_wall}


PER_LAYER_CALLS = {
    "field.det_scaled.calls": "field.det_scaled",
    "field.sign_at.calls": "field.sign_at",
    "geometry.facets.calls": "geometry.facets",
    "geometry.primitive_generator.calls": "geometry.primitive_generator",
    "cycles.boundary_cycle.calls": "cycles.boundary_cycle",
    "cycles.dual_cycle.calls": "cycles.dual_cycle",
    "fan.truncate.calls": "fan.truncate",
    "summation.cone_term.calls": "summation.cone_term",
    "summation.partial_sum.calls": "summation.partial_sum",
    "summation.evaluate_cycle.calls": "summation.evaluate_cycle",
    "unitsearch.region_checks": "unitsearch.unit_region_conditions",
}
PER_LAYER_COUNTERS = (
    "field.fraction_new.calls",
    "fan.cones_truncated",
    "fan.star_groups",
    "unitsearch.region_undecided",
    "unitsearch.found",
    "arith.candidates",
    "arith.kept",
)
LAYERS = ("field", "linalg", "geometry", "cycles", "fan", "summation", "unitsearch", "arith", "cli")


def per_layer(untraced: dict, traced: dict) -> dict:
    calls, counters, self_s, incl = {}, {}, {}, {}
    last_cones = 0
    max_bits = 0
    for o in traced["ops"]:
        t = o["trace"]
        if t is None:  # killed before it could report
            continue
        for k, v in t["calls"].items():
            calls[k] = calls.get(k, 0) + v
        for k, v in t["counters"].items():
            if k == "field.embed_at.max_bits":
                max_bits = max(max_bits, v)
            else:
                counters[k] = counters.get(k, 0) + v
        for k, v in t["self_s"].items():
            self_s[k] = self_s.get(k, 0.0) + v * o["command_speed"]
        for k, v in t["inclusive_s"].items():
            incl[k] = incl.get(k, 0.0) + v * o["command_speed"]
        last_cones += t["last_truncate_cones"]

    def ratio(num, den):
        return num / den if den else 0.0

    values = {}
    for key in layertrace.INCLUSIVE:
        values[f"{key}_s"] = (incl.get(key, 0.0), "s")
    for layer in LAYERS:
        values[f"{layer}.self_s"] = (self_s.get(layer, 0.0), "s")
    for name, span in PER_LAYER_CALLS.items():
        values[name] = (calls.get(span, 0), "count")
    for name in PER_LAYER_COUNTERS:
        values[name] = (counters.get(name, 0), "count")
    values["field.embed_at.max_bits"] = (max_bits, "bits")
    values["linalg.calls"] = (sum(v for k, v in calls.items() if k.startswith("linalg.")), "count")
    values["summation.useful_term_ratio"] = (
        ratio(last_cones, calls.get("summation.cone_term", 0)), "ratio")
    values["unitsearch.region_accept_ratio"] = (
        ratio(counters.get("unitsearch.region_accepted", 0),
              calls.get("unitsearch.unit_region_conditions", 0)), "ratio")
    values["arith.keep_ratio"] = (
        ratio(counters.get("arith.kept", 0), counters.get("arith.candidates", 0)), "ratio")
    def wall(p):
        return sum(o["wall_s"] for o in p["ops"])

    values["trace.overhead_frac"] = (wall(traced) / wall(untraced) - 1.0, "ratio")
    return {k: {"value": v, "unit": u} for k, (v, u) in sorted(values.items())}


# ---------------------------------------------------------------------------
# digests across passes and runs


def source_digest() -> str:
    """sha256 over the program's sources and shipped configs (``src/``,
    ``configs/``), so that stored digests only bind runs of the same code."""
    h = hashlib.sha256()
    for top in ("src", "configs"):
        for root, dirs, files in os.walk(top):
            dirs[:] = sorted(d for d in dirs if d != "__pycache__")
            for name in sorted(files):
                path = os.path.join(root, name)
                with open(path, "rb") as fh:
                    data = fh.read()
                h.update(f"{path}\0{len(data)}\0".encode())
                h.update(data)
    return h.hexdigest()


def _op_key(source: str, op: dict) -> str:
    blob = json.dumps(op, sort_keys=True).encode()
    return f"{source[:16]}:{hashlib.sha256(blob).hexdigest()}"


def compare_digests(passes: list[dict], source: str) -> list[str]:
    """Same code, same op, same stdout: within this run and against earlier
    runs of the same sources in this checkout (kept in
    .perfbench/digests.json, keyed by ``source_digest()`` and the op)."""
    path = os.path.join(STATE_DIR, "digests.json")
    try:
        with open(path) as fh:
            known = json.load(fh)
    except FileNotFoundError:
        known = {}
    mismatches = []
    for p in passes:
        for o in p["ops"]:
            if o["digest"] is None:
                continue
            key = _op_key(source, o["op"])
            if known.setdefault(key, o["digest"]) != o["digest"]:
                mismatches.append(f"{_describe(o['op'])} (traced={p['traced']})")
    os.makedirs(STATE_DIR, exist_ok=True)
    with open(path + ".tmp", "w") as fh:
        json.dump(known, fh, sort_keys=True)
    os.replace(path + ".tmp", path)
    return mismatches


# ---------------------------------------------------------------------------
# records


def _describe(op: dict) -> str:
    kind = op["kind"]
    if kind == "converge":
        return f"converge Q(sqrt {op['field']}) x0={op['x0']} ({op['draw']})"
    if kind == "lvalue":
        return f"lvalue s={op['s']} cutoff={op['cutoff']:g}"
    return f"unitsearch a={op['a']} b={op['b']} radius={op['radius']} window={op['window']}"


def environment(seed: int, workload: str) -> dict:
    versions = {}
    for pkg in ("numpy", "mpmath", "sympy"):
        try:
            versions[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            versions[pkg] = None
    src_lines = 0
    for name in sorted(os.listdir(os.path.join("src", "conesum"))):
        if name.endswith(".py"):
            with open(os.path.join("src", "conesum", name)) as fh:
                src_lines += sum(1 for _ in fh)
    return {
        "workload": workload,
        "seed": seed,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "packages": versions,
        "thread_env": THREAD_ENV,
        "src_conesum_lines": src_lines,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # turn SIGTERM into SystemExit so that spawn() kills and reaps its child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    needed = [os.path.join("src", "conesum", "__init__.py"),
              workloads.SQRT3_CONFIG, workloads.CUBIC_CONFIG]
    missing = [p for p in needed if not os.path.isfile(p)]
    if missing:
        print(f"perfbench: run from a conesum checkout; missing {missing}", file=sys.stderr)
        return 2
    with open(workloads.CUBIC_CONFIG) as fh:
        min_poly = json.load(fh)["field"]["min_poly"]
    # byte-compile once so that no child pays for it inside a timed pass
    compileall.compile_dir(os.path.join("src", "conesum"), quiet=2)

    env = _child_env()
    deadline = workloads.DEADLINE_S[args.workload]
    passes = []
    if args.trace:
        ops = workloads.ops_for_pass(args.workload, args.seed, 0)
        passes.append(run_pass(ops, False, deadline, env, min_poly))
        passes.append(run_pass(ops, True, deadline, env, min_poly))
    else:
        for index in range(workloads.passes_for(args.workload, args.seconds)):
            ops = workloads.ops_for_pass(args.workload, args.seed, index)
            passes.append(run_pass(ops, False, deadline, env, min_poly))

    source = source_digest()
    mismatches = compare_digests(passes, source)
    all_ops = [o for p in passes for o in p["ops"]]
    failed = [o for o in all_ops if o["status"] != "ok"]
    wrong = [o for o in all_ops if o["status"] in ("wrong", "crash")]
    if args.trace:
        metrics = per_layer(passes[0], passes[1])
        raised = {}
        for o in passes[1]["ops"]:
            for k, v in (o["trace"] or {}).get("raised", {}).items():
                raised[k] = raised.get(k, 0) + v
        extra = {"raised": raised}
    else:
        metrics, extra = end_to_end(passes)
    info = environment(args.seed, args.workload)
    info.update(extra)
    info["passes"] = len(passes)
    info["deadline_s"] = deadline
    info["source_sha256"] = source
    info["digest_mismatches"] = mismatches
    info["ops_columns"] = ["op", "status", "raw setup_s", "raw command_s", "raw wall_s",
                           "speed", "command speed", "stdout sha256[:16]"]
    info["ops"] = [
        [_describe(o["op"]), o["status"], round(o["raw"]["setup_s"], 4),
         round(o["raw"]["command_s"], 4), round(o["raw"]["wall_s"], 4),
         round(o["speed"], 4), round(o["command_speed"], 4), (o["digest"] or "")[:16]]
        for o in all_ops
    ]
    info["failed_ops"] = [
        {"input": _describe(o["op"]), "status": o["status"], "reason": o["reason"]}
        for o in failed
    ]
    print(json.dumps({"perfbench": info}, sort_keys=True))
    result = {
        "correct": not wrong and not mismatches,
        "attempted": len(all_ops),
        "failed": len(failed),
        "metrics": metrics,
    }
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
