"""Workloads: fixed eaqmds CLI invocations and the checks on their output.

The checks test the mathematics of each output, not a byte digest, so a
change that legitimately drops or reorders records still passes: every
``enumerate`` record saturates the EA-Singleton bound with the family's
ebit count and a distance inside the family's published range, every
``verify`` report has no failures, and every ``distance`` result is an
oracle-certified MDS distance.  Each check returns the number of verified
items, or raises ``CheckFailed``.
"""

from __future__ import annotations

import json


class CheckFailed(ValueError):
    pass


def _require(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


def _d_range(family: str, q: int, t: int | None) -> tuple[int, int]:
    """Distance range of a family (README table); inclusive bounds."""
    if family == "i":
        return 2, 2 * q
    if family == "ii":
        return q + 1, 2 * q - 1
    if family == "iii":
        return 2, 2 * q - 2
    if family == "iv":
        return (q + 1) // 2 + 2, (3 * q - 1) // 2
    if family == "v":
        return (t - 1) * (q + 1) // t + 2, (t + 1) * (q + 1) // t - 2
    raise CheckFailed(f"unknown family {family!r}")


def check_records(stdout: str) -> int:
    """``enumerate`` output; items are the records with k >= 1."""
    records = json.loads(stdout)["records"]
    _require(len(records) > 0, "no records")
    items = 0
    for rec in records:
        fam, q, t = rec["family"], rec["q"], rec["t"]
        n, k, d, c = rec["n"], rec["k"], rec["d"], rec["c"]
        label = f"family {fam} [[{n},{k},{d};{c}]]_{q}"
        _require(rec["saturated"] is True, f"{label} not saturated")
        _require(n + c - k == 2 * (d - 1), f"{label} off the EA-Singleton bound")
        expected_c = {"i": 1, "ii": 1, "iii": 1, "iv": 2, "v": t}.get(fam)
        _require(c == expected_c, f"{label}: c != {expected_c}")
        lo, hi = _d_range(fam, q, t)
        _require(lo <= d <= hi, f"{label}: d outside [{lo}, {hi}]")
        _require(fam != "i" or d % 2 == 0, f"{label}: odd d in family i")
        items += k >= 1
    return items


def check_sweeps(stdout: str) -> int:
    """``verify`` output; items are the lemma instances checked."""
    reports = json.loads(stdout)["reports"]
    _require(len(reports) > 0, "no sweep reports")
    items = 0
    for rep in reports:
        _require(rep["failures"] == 0,
                 f"lemma {rep['lemma']}: {rep['failures']} failures")
        _require(rep["instances"] > 0, f"lemma {rep['lemma']}: no instances")
        items += rep["instances"]
    return items


def check_distance(stdout: str) -> int:
    """``distance`` output; one item per certified instance."""
    rec = json.loads(stdout)
    n, k = rec["classical"]["n"], rec["classical"]["k"]
    label = f"family {rec['family']} q={rec['q']} [{n},{k}]"
    _require(rec["method"] != "design-only", f"{label}: not certified")
    _require(rec["is_mds"] is True, f"{label}: not MDS")
    _require(rec["oracle_distance"] == n - k + 1,
             f"{label}: distance {rec['oracle_distance']} != {n - k + 1}")
    return 1


def _distance(family: str, q: int, d: int) -> list[str]:
    return ["distance", "--family", family, "--q", str(q), "--d", str(d)]


# name -> [(argv, check)].  The grids are fixed; the seed only shuffles
# the order of operations.
WORKLOADS = {
    # Cold field and table build for all five families, plus the only
    # operation that reaches the tableless GF(17^4) path (family i, q=17).
    "construct": [
        (["enumerate", "--q", "2..16", "--t", "3"], check_records),
        (["enumerate", "--family", "i", "--q", "17", "--n", "145"],
         check_records)],
    # Many small Gram products and ranks over every admissible defining
    # set, with warm cheap GF(q^2) fields and no distance oracles.
    "sweep": [
        (["verify"], check_sweeps),
        (["verify", "--lemma", "consta", "--q", "5..29"], check_sweeps)],
    # Message and k x k minor enumeration, which the other workloads never
    # call; every instance fits the default oracle budgets.
    "certify": [
        (_distance("ii", 3, 4), check_distance),
        (_distance("i", 3, 6), check_distance),
        (_distance("i", 4, 8), check_distance),
        (_distance("iv", 5, 6), check_distance)],
}
