"""Run the mutation catalogue against the test suite.

Usage: python mutation/run.py

catalogue.json lists mutants.  Each entry gives a file under src/, the
exact text to replace (it occurs once in that file), its replacement,
the pytest selector that must fail once the mutant is applied, and a
one-line reason.  Every entry is run.

Each selector first runs on the unmutated src/, so that a selector
that already fails is not counted as a kill.  Then, for each mutant,
src/ is copied to a temporary directory and the mutant applied there;
the selector runs in a pytest subprocess that imports the package from
that copy, under a wall-clock limit of TIMEOUT seconds.  One line is
printed per mutant: killed (the selector failed), survived (it passed), timed
out, or error (pytest could not run the selector, or the selector fails
without the mutant).  The exit status is 0 iff every mutant was killed.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CATALOGUE = Path(__file__).resolve().with_name("catalogue.json")
TIMEOUT = 120.0


def load() -> list[dict]:
    return json.loads(CATALOGUE.read_text())


def run_selector(selector: str, src: Path) -> str:
    """Run one pytest selector with the package imported from src."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p",
           "no:cacheprovider", "-o", f"pythonpath={src}", selector]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, timeout=TIMEOUT,
                              stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL)
    except subprocess.TimeoutExpired:
        return "timed out"
    return {0: "survived", 1: "killed"}.get(
        done.returncode, f"error (pytest exit {done.returncode})")


def run_mutant(entry: dict) -> str:
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src)
        path = Path(tmp) / entry["file"]
        text = path.read_text()
        if text.count(entry["text"]) != 1:
            return "error (text does not occur exactly once)"
        path.write_text(text.replace(entry["text"], entry["replacement"]))
        return run_selector(entry["selector"], src)


def main() -> int:
    catalogue = load()
    baseline = {}
    for entry in catalogue:
        selector = entry["selector"]
        if selector not in baseline:
            baseline[selector] = run_selector(selector, ROOT / "src")
    results = []
    for i, entry in enumerate(catalogue):
        if baseline[entry["selector"]] != "survived":
            result = "error (selector fails without the mutant)"
        else:
            result = run_mutant(entry)
        results.append(result)
        print(f"{i:3d} {result:10s} {entry['file']}: {entry['reason']}",
              flush=True)
    killed = results.count("killed")
    print(f"{killed} of {len(results)} mutants killed")
    return 0 if killed == len(results) else 1


if __name__ == "__main__":
    sys.exit(main())
