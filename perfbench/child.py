"""Run one eaqmds CLI invocation in this fresh interpreter.

Usage: python3 perfbench/child.py '{"argv": [...], "trace": false}'
with ``src`` on PYTHONPATH.  Prints one JSON envelope on stdout: the exit
code, the CLI's captured stdout, perf_counter stamps for "CLI ready"
(after ``import eaqmds.cli``) and for the start and end of ``cli.main``,
the process's peak RSS, the speed probe of each phase, and the spans when
tracing.

Speed probe: a shared host runs the same code up to twice as slowly at
some moments as at others, switching within a second.  So every
``PROBE_EVERY_S`` of this process's CPU time a SIGPROF handler times a
fixed piece of work like the program's own: a pure-Python loop and a few
small numpy calls.  The mean probe time says how fast the CPU ran, and
run.py scales the time in ``cli.main`` by the mean during ``cli.main`` and
the set-up time by the mean over the whole process, since set-up is too
short for enough samples of its own.  The probe costs about 2 % of the CPU
time.
"""

import contextlib
import io
import json
import resource
import signal
import sys
import time

import numpy as np  # eaqmds imports it anyway; the probe uses it

PROBE_EVERY_S = 0.01
PROBE_LOOPS = 2000
PROBE_ROUNDS = 3

_probes: list[float] = []
_M = np.arange(170, dtype=np.int64).reshape(10, 17) % 29
_T = np.arange(64, dtype=np.int64)


def _probe(signum, frame) -> None:
    t0 = time.perf_counter()
    s = 0
    for i in range(PROBE_LOOPS):
        s += i * 7 % 13
    for _ in range(PROBE_ROUNDS):
        rows = np.nonzero(_M[:, 3])[0]
        row = _M[1].copy()
        nz = row != 0
        row[nz] = _T[row[nz] + 3]
        _M[rows] ^ row
    _probes.append(time.perf_counter() - t0)


def _mean(samples: list[float]) -> list:
    """[mean, count] of probe samples; mean is None without samples."""
    return [sum(samples) / len(samples) if samples else None, len(samples)]


def main() -> None:
    signal.signal(signal.SIGPROF, _probe)
    signal.setitimer(signal.ITIMER_PROF, PROBE_EVERY_S, PROBE_EVERY_S)
    from eaqmds import cli
    ready = time.perf_counter()
    spec = json.loads(sys.argv[1])
    tracer = None
    if spec["trace"]:
        from spans import Tracer
        tracer = Tracer()
        tracer.install()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        start = time.perf_counter()
        n_start = len(_probes)
        rc = cli.main(spec["argv"])
        end = time.perf_counter()
        n_end = len(_probes)
    signal.setitimer(signal.ITIMER_PROF, 0, 0)
    json.dump({
        "rc": rc,
        "stdout": out.getvalue(),
        "ready": ready,
        "start": start,
        "end": end,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "probe": {"main": _mean(_probes[n_start:n_end]),
                  "all": _mean(_probes)},
        "spans": tracer.spans if tracer else None,
    }, sys.stdout)


if __name__ == "__main__":
    main()
