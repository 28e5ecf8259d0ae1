#!/usr/bin/env python3
"""eaqmds benchmark: end-to-end CLI timings and a traced per-layer breakdown.

Usage (from the repository root):

    python3 perfbench/run.py --workload construct --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all          # every workload, summary

Load model: a closed loop with one client and one operation at a time.
Each operation is one ``eaqmds.cli.main(argv)`` call in a fresh
interpreter (``child.py``), so it pays interpreter start, imports and cold
field caches as a user does.  Passes over the workload's operations repeat
while the next one fits in ``--seconds``; the seed shuffles the order of
operations in each pass and nothing else.  Times are scaled by the speed
probe of ``child.py`` to a CPU that runs the probe in ``PROBE_REF_S``, so
that a shared host's changing speed cancels out; the run record keeps the
raw times too.  ``--trace 0`` reports the end-to-end metrics, ``--trace 1``
alternates untraced and traced passes and reports the per-layer metrics.
The last line of stdout is the JSON result; the run record (environment,
per-operation results) and, when tracing, the spans are written under
``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import importlib.util
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

from layers import METRICS as LAYER_METRICS
from layers import merge, metrics, totals
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
OP_TIMEOUT_S = 120
# Speed-probe time that the reported times are scaled to: the fast end of
# the probe means on a 2-vCPU Intel Xeon VM, Python 3.11, numpy 2.4.
PROBE_REF_S = 1.7e-4
# A phase with fewer probe samples than this (a very short cli.main) is
# scaled by the mean over the whole invocation instead.
MIN_PROBES = 5
# Set-up (imports, process start) slowed only about as the square root of
# the probe's slowdown on that host (fitted powers 0.3 to 0.55), so it is
# scaled by that power; cli.main slowed about as the probe itself.
SETUP_POWER = 0.5

E2E_UNITS = {"wall_s": "s", "items_per_s": "1/s", "setup_s": "s",
             "peak_rss_mb": "MB", "failed_frac": "ratio",
             "raw_wall_s": "s", "raw_setup_s": "s"}


def _git_commit() -> str | None:
    """HEAD commit read from .git without running git; None outside a
    git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError:
        return ""


def environment() -> dict:
    cpu = next((line.split(":", 1)[1].strip()
                for line in _read("/proc/cpuinfo").splitlines()
                if line.startswith("model name")), platform.processor())
    return {
        "commit": _git_commit(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "nproc": len(os.sched_getaffinity(0)),
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "cpu_model": cpu,
        "loadavg": _read("/proc/loadavg").split()[:3],
    }


def _child_env() -> dict:
    # Default oracle budgets and kernel selection: no EAQMDS_* override.
    env = {k: v for k, v in os.environ.items() if not k.startswith("EAQMDS_")}
    env["PYTHONPATH"] = str(SRC)
    return env


def scale(seconds: float, probe: dict, phase: str,
          power: float = 1.0) -> float:
    """`seconds` spent in `phase` scaled to the reference probe speed."""
    mean, count = probe[phase]
    if count < MIN_PROBES:
        mean = probe["all"][0]
    return seconds * (PROBE_REF_S / mean) ** power


def invoke(argv: list[str], check, trace: bool) -> dict:
    """One CLI invocation in a fresh interpreter, with its output checked."""
    spec = json.dumps({"argv": argv, "trace": trace})
    op = {"argv": argv, "trace": trace, "ok": False, "items": 0}
    t0 = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, str(HERE / "child.py"), spec],
                              cwd=ROOT, env=_child_env(), capture_output=True,
                              text=True, timeout=OP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        op["error"] = f"timed out after {OP_TIMEOUT_S} s"
        return op
    try:
        env = json.loads(proc.stdout)
    except json.JSONDecodeError:
        op["error"] = f"exit {proc.returncode}: {proc.stderr[-400:]}"
        return op
    setup, wall = env["ready"] - t0, env["end"] - env["start"]
    probe = env["probe"]
    op.update(rc=env["rc"], raw_setup_s=setup, raw_wall_s=wall, probe=probe,
              setup_s=scale(setup, probe, "all", SETUP_POWER),
              wall_s=scale(wall, probe, "main"),
              rss_mb=env["maxrss_kb"] / 1024, spans=env["spans"])
    if env["rc"] != 0:
        op["error"] = f"exit code {env['rc']}: {proc.stderr[-400:]}"
        return op
    try:
        op["items"] = check(env["stdout"])
    except (KeyError, TypeError, ValueError) as e:  # CheckFailed included
        op["error"] = f"output check: {e!r}"
        return op
    op["ok"] = True
    return op


def run_passes(name: str, seed: int, seconds: float, trace: bool):
    """Repeat passes over the workload while the next one, as long as the
    last, still ends within `seconds`; at least one pass runs.
    Returns (untraced passes, traced passes, operation orders)."""
    rng = random.Random(seed)
    ops = WORKLOADS[name]
    plain, traced, orders = [], [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        order = list(range(len(ops)))
        rng.shuffle(order)
        orders.append(order)
        plain.append([invoke(*ops[i], trace=False) for i in order])
        if trace:
            traced.append([invoke(*ops[i], trace=True) for i in order])
        now = time.perf_counter()
        if now + (now - t0) > start + seconds:
            return plain, traced, orders


def _per_op_median(passes: list[list[dict]], key: str) -> float:
    """Sum over the workload's operations of each one's median `key`
    across passes; steadier than the median of pass sums."""
    by_op: dict[tuple, list[float]] = {}
    for p in passes:
        for op in p:
            by_op.setdefault(tuple(op["argv"]), []).append(op.get(key, 0.0))
    return sum(statistics.median(v) for v in by_op.values())


def e2e_metrics(plain: list[list[dict]]) -> dict[str, float]:
    ops = [op for p in plain for op in p]
    wall = _per_op_median(plain, "wall_s")
    setups = [op["setup_s"] for op in ops if "setup_s" in op]
    return {
        "wall_s": wall,
        "items_per_s": _per_op_median(plain, "items") / wall if wall else 0.0,
        "setup_s": statistics.median(setups) if setups else 0.0,
        "peak_rss_mb": max(op.get("rss_mb", 0.0) for op in ops),
    }


def raw_metrics(plain: list[list[dict]]) -> dict[str, float]:
    """The unscaled times, for the run record and the summary lines."""
    setups = [op["raw_setup_s"] for p in plain for op in p
              if "raw_setup_s" in op]
    return {"raw_wall_s": _per_op_median(plain, "raw_wall_s"),
            "raw_setup_s": statistics.median(setups) if setups else 0.0}


def layer_metrics(plain: list[list[dict]],
                  traced: list[list[dict]]) -> dict[str, float]:
    """Per-layer values from the traced passes.  Span times are raw."""
    overhead = (_per_op_median(traced, "wall_s")
                / _per_op_median(plain, "wall_s") - 1)
    per_pass = [metrics(merge([totals(op["spans"]) for op in p
                               if op.get("spans")]), overhead)
                for p in traced]
    # median_low keeps counts whole when the number of passes is even
    return {k: statistics.median_low(m[k] for m in per_pass)
            for k in LAYER_METRICS}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    plain, traced, orders = run_passes(name, seed, seconds, trace)
    ops = [op for p in plain + traced for op in p]
    e2e = e2e_metrics(plain)
    if trace:
        values = layer_metrics(plain, traced)
        units = LAYER_METRICS
    else:
        values = dict(e2e)
        units = E2E_UNITS
    failed = sum(not op["ok"] for op in ops)
    e2e["failed_frac"] = failed / len(ops)
    e2e.update(raw_metrics(plain))
    result = {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in values.items()},
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{name}-seed{seed}-trace{int(trace)}"
    record = {"workload": name, "seed": seed, "seconds": seconds,
              "environment": environment(), "orders": orders,
              "end_to_end": e2e, "result": result,
              "operations": [{k: v for k, v in op.items() if k != "spans"}
                             for op in ops]}
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if trace:
        with open(OUT / f"{stem}.spans.jsonl", "w") as fh:
            for i, op in enumerate(op for p in traced for op in p):
                for span in op.get("spans") or ():
                    fh.write(json.dumps([i, *span]) + "\n")
    for op in ops:
        if not op["ok"]:
            print(f"FAILED {name} {' '.join(op['argv'])}: {op['error']}",
                  file=sys.stderr)
    return {"result": result, "end_to_end": e2e}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40.0)  # run_seconds
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "eaqmds" / "cli.py").is_file():
        print(f"error: eaqmds sources not found under {SRC}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    print(json.dumps({"environment": environment(), "seed": args.seed}))
    runs = {n: run_workload(n, args.seed, args.seconds, bool(args.trace))
            for n in names}
    for n, run in runs.items():
        for k, v in run["end_to_end"].items():
            print(f"{n:10s} {k:14s} {v:12.6g} {E2E_UNITS[k]}")
        if args.trace:
            for k, m in run["result"]["metrics"].items():
                print(f"{n:10s} {k:30s} {m['value']:14.6g} {m['unit']}")
    if len(names) == 1:
        final = runs[names[0]]["result"]
    else:
        results = [r["result"] for r in runs.values()]
        final = {
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {f"{n}.{k}": m for n, r in runs.items()
                        for k, m in r["result"]["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
