"""The benchmark's traced pass, end to end: perfbench/child.py wraps
every public eaqmds function and its probes read kernel arguments by
position, so a kernel signature change crashes the traced pass only."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PARITY_CHECK_SPANS = ("codes.constacyclic_code",)


def run_child(argv, trace):
    spec = json.dumps({"argv": argv, "trace": trace})
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "child.py"), spec],
        capture_output=True, text=True, timeout=120, check=True,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    return json.loads(proc.stdout)


@pytest.mark.parametrize("argv, span", [
    (["distance", "--family", "i", "--q", "3", "--d", "6"],
     "kernels.min_weight"),
    (["verify", "--lemma", "rank-ers", "--q", "3"], "kernels.matmul"),
    (["distance", "--family", "i", "--q", "4", "--d", "8"],
     "verify.certify_distance"),
])
def test_traced_pass_matches_plain_pass(argv, span):
    plain, traced = run_child(argv, False), run_child(argv, True)
    assert plain["rc"] == traced["rc"] == 0
    assert plain["stdout"] == traced["stdout"]
    assert plain["spans"] is None
    probed = [s[-1] for s in traced["spans"] if s[2] == span]
    assert probed and all(isinstance(attrs, dict) for attrs in probed)
    # the parity-check probes read code.H.data.shape, which on an ndarray
    # H is the shape of its memoryview
    built = [s[-1] for s in traced["spans"] if s[2] in PARITY_CHECK_SPANS]
    assert built and all(isinstance(attrs, dict) for attrs in built)
