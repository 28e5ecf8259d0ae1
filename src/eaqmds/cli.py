"""Command-line front end.

Subcommands: enumerate (family records), verify (rank-lemma sweeps),
distance (oracle certification of one instance), table (the comparison
table between entanglement-assisted and standard quantum MDS codes).
--format picks JSON, CSV or Markdown for enumerate and Markdown or JSON
for table; verify and distance write JSON only.

Data output is byte-identical across runs with the same flags: records
are sorted, and timing goes to stderr only.  Exit codes: 0 success,
1 verification failure (a VerificationError included), 2 usage error
(any other ValueError), 3 internal error (any other exception, with its
traceback on stderr), 4 not certified within budget (distance reports
the design distance only).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import time
import traceback

from .cosets import VARIABLE_LENGTH, parameter_ranges
from .eaqecc import (
    FAMILIES,
    EaqeccParams,
    VerificationError,
    admissible,
    build_classical,
    closed_form_k,
    enumerate_family,
    expected_c,
    family_t,
    instances,
)
from .galois import factor_prime_power
from .verify import (
    ALL_LEMMAS,
    DEFAULT_SWEEPS,
    OracleBudget,
    certify_distance,
    run_lemma_sweep,
)

USAGE_ERROR = 2
VERIFY_ERROR = 1
INTERNAL_ERROR = 3
NOT_CERTIFIED = 4


def _is_prime_power(q: int) -> bool:
    try:
        factor_prime_power(q)
        return True
    except ValueError:
        return False


def parse_q(spec: str) -> list[int]:
    """'7', '3,5,7' or '2..9' (ranges keep only prime powers)."""
    out: list[int] = []
    for part in spec.split(","):
        part = part.strip()
        if ".." in part:
            lo_s, hi_s = part.split("..", 1)
            lo, hi = int(lo_s), int(hi_s)
            if lo > hi:
                raise ValueError(f"empty range {part!r}")
            out.extend(q for q in range(lo, hi + 1) if _is_prime_power(q))
        else:
            q = int(part)
            if not _is_prime_power(q):
                raise ValueError(f"q={q} is not a prime power")
            out.append(q)
    if not out:
        raise ValueError(f"no admissible q in {spec!r}")
    return sorted(set(out))


def _emit(text: str, path: str | None) -> None:
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def records_to_json(records: list[dict]) -> str:
    return json.dumps({"records": records}, indent=2) + "\n"


_CSV_FIELDS = ["family", "q", "t", "n", "k", "d", "c", "saturated",
               "classical_n", "classical_k", "classical_d", "defining_set"]


def records_to_csv(records: list[dict]) -> str:
    buf = io.StringIO()
    w = csv.DictWriter(buf, fieldnames=_CSV_FIELDS)
    w.writeheader()
    for rec in records:
        row = {k: rec.get(k, "") for k in _CSV_FIELDS}
        cl = rec.get("classical") or {}
        row["classical_n"] = cl.get("n", "")
        row["classical_k"] = cl.get("k", "")
        row["classical_d"] = cl.get("d", "")
        row["defining_set"] = " ".join(map(str, rec.get("defining_set") or []))
        row["t"] = rec.get("t") or ""
        w.writerow(row)
    return buf.getvalue()


def records_to_md(records: list[dict]) -> str:
    lines = ["| family | q | t | n | k | d | c | saturated |",
             "|---|---|---|---|---|---|---|---|"]
    for rec in records:
        lines.append("| {family} | {q} | {t} | {n} | {k} | {d} | {c} | "
                     "{sat} |".format(
                         family=rec["family"], q=rec["q"],
                         t=rec.get("t") or "-", n=rec["n"], k=rec["k"],
                         d=rec["d"], c=rec["c"], sat=rec["saturated"]))
    return "\n".join(lines) + "\n"


_FORMATTERS = {"json": records_to_json, "csv": records_to_csv,
               "md": records_to_md}


def _applicable_families(q: int, t: int | None,
                         n: int | None = None) -> list[str]:
    """The families that admit q and t; with n, of the families of
    variable length just those that admit n."""
    return [name for name in FAMILIES
            if admissible(name, q, t, n if name in VARIABLE_LENGTH else None)]


def cmd_enumerate(args: argparse.Namespace) -> int:
    t0 = time.perf_counter()
    params: list[EaqeccParams] = []
    for q in args.q_values:
        fams = (_applicable_families(q, args.t, args.n)
                if args.family == "all" else [args.family])
        given_n = {*VARIABLE_LENGTH, args.family}
        if args.n is not None and not given_n & {*fams}:
            raise ValueError(f"neither family {' nor '.join(VARIABLE_LENGTH)}"
                             f" admits n={args.n} at q={q}")
        for fam in fams:
            # --family all passes n only to the families that take it
            n = args.n if fam in given_n else None
            params.extend(enumerate_family(fam, q, family_t(fam, args.t), n=n))
    if args.d is not None:
        params = [p for p in params if p.d == args.d]
        if not params:
            print(f"error: d={args.d} not admissible here", file=sys.stderr)
            return USAGE_ERROR
    params.sort(key=lambda p: (FAMILIES.index(p.family), p.q, p.t or 0, p.d))
    records = [p.to_record() for p in params]
    _emit(_FORMATTERS[args.fmt](records), args.output)
    print(f"enumerated {len(records)} records in "
          f"{time.perf_counter() - t0:.2f}s", file=sys.stderr)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    lemmas = list(ALL_LEMMAS) if args.lemma == "all" else [args.lemma]
    reports = []
    for lemma in lemmas:
        qs = args.q_values or list(DEFAULT_SWEEPS[lemma][0])
        ts = [args.t] if args.t is not None else (
            list(DEFAULT_SWEEPS[lemma][1]) if DEFAULT_SWEEPS[lemma][1] else None)
        reports.append(run_lemma_sweep(lemma, qs, ts))
    doc = {"reports": [r.to_dict() for r in reports]}
    _emit(json.dumps(doc, indent=2) + "\n", args.output)
    for r in reports:
        print(r.to_text(), file=sys.stderr)
    return 0 if all(r.ok for r in reports) else VERIFY_ERROR


def cmd_distance(args: argparse.Namespace) -> int:
    deltas = {name: getattr(args, name) for name in ("delta", "delta1", "delta2")
              if getattr(args, name) is not None}
    if len(args.q_values) != 1 or (args.d is None and not deltas):
        print("error: distance needs --family, a single --q and --d "
              "(or explicit --delta/--delta1/--delta2)", file=sys.stderr)
        return USAGE_ERROR
    q = args.q_values[0]
    t = family_t(args.family, args.t)
    budget = OracleBudget(args.max_codewords, args.max_minors)
    code = build_classical(args.family, q, args.d, t, args.n, **deltas)
    result = certify_distance(code, budget)
    rec = {
        "family": args.family, "q": q, "t": t,
        "classical": {"n": code.n, "k": code.k, "d_design": code.d_design},
        "method": result["method"],
        "oracle_distance": result["d"],
        "is_mds": result["is_mds"],
    }
    _emit(json.dumps(rec, indent=2) + "\n", args.output)
    if result["method"] == "design-only":
        print("budget exceeded: design-distance only", file=sys.stderr)
        return NOT_CERTIFIED
    return 0 if result["is_mds"] else VERIFY_ERROR


# QMDS closed forms from the comparison table: k = n - 2d + 2 with the
# listed per-length distance ranges.
def _qmds_column(family: str, q: int, t: int | None, n: int) -> dict:
    d_max = {"i": q + 1, "ii": q, "iii": q - 1, "iv": q,
             "v": (t + 1) * (q + 1) // (2 * t) - 1 if t else None}[family]
    return {"k_formula": f"{n + 2}-2d", "d_min": 2, "d_max": d_max}


def table_rows(q: int, t: int | None) -> list[dict]:
    rows = []
    for fam in _applicable_families(q, t):
        tt = family_t(fam, t)
        params = enumerate_family(fam, q, tt)
        n = parameter_ranges(fam, q, None, tt)[0]
        ds = list(instances(fam, q, tt))  # the full range, k = 0 included
        rows.append({
            "length": n,
            "family": fam,
            "q": q,
            "t": tt,
            "eaqmds": {
                # the closed form's constant term is its k at d = 0
                "k_formula": f"{closed_form_k(fam, q, 0, tt)}-2d",
                "c": expected_c(fam, tt),
                "d_min": min(ds),
                "d_max": max(ds),
                "d_parity": "even" if fam == "i" else "any",
            },
            "qmds": _qmds_column(fam, q, tt, n),
            "verified": all(p.saturates_ea_singleton for p in params),
            "codes": [p.label() for p in params],
        })
    rows.sort(key=lambda r: -r["length"])
    return rows


def _table_md(rows: list[dict]) -> str:
    lines = ["| Length | q-ary EAQMDS codes | q-ary QMDS codes | Construction |",
             "|---|---|---|---|"]
    names = {"i": "cyclic, n | q^2+1", "ii": "extended Reed-Solomon",
             "iii": "cyclic, n | q^2-1", "iv": "negacyclic",
             "v": "constacyclic order t"}
    for r in rows:
        e, s = r["eaqmds"], r["qmds"]
        parity = ", d even" if e["d_parity"] == "even" else ""
        lines.append(
            f"| {r['length']} "
            f"| [[{r['length']},{e['k_formula']},d;{e['c']}]], "
            f"{e['d_min']} <= d <= {e['d_max']}{parity} "
            f"| [[{r['length']},{s['k_formula']},d]], "
            f"{s['d_min']} <= d <= {s['d_max']} "
            f"| {names[r['family']]} (family {r['family']}) |")
    return "\n".join(lines) + "\n"


def cmd_table(args: argparse.Namespace) -> int:
    rows = []
    for q in args.q_values:
        rows.extend(table_rows(q, args.t))
    if args.fmt == "md":
        _emit(_table_md(rows), args.output)
    else:
        _emit(json.dumps({"rows": rows}, indent=2) + "\n", args.output)
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="eaqmds",
        description="Construct and verify entanglement-assisted quantum "
                    "MDS codes.")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, fmt_choices=()):
        p.add_argument("--q", required=True,
                       help="prime power, comma list, or range a..b")
        p.add_argument("--t", type=int, default=None,
                       help="constacyclic order for family v")
        p.add_argument("--output", default=None)
        if fmt_choices:
            p.add_argument("--format", dest="fmt", choices=fmt_choices,
                           default=fmt_choices[0])

    p_enum = sub.add_parser("enumerate", help="emit family code records")
    p_enum.add_argument("--family", default="all",
                        choices=["all", *FAMILIES])
    p_enum.add_argument("--n", type=int, default=None,
                        help="length override for families i and iii")
    p_enum.add_argument("--d", type=int, default=None,
                        help="restrict to one minimum distance")
    common(p_enum, fmt_choices=("json", "csv", "md"))

    p_ver = sub.add_parser("verify", help="run rank-lemma sweeps")
    p_ver.add_argument("--lemma", default="all",
                       choices=["all", *ALL_LEMMAS])
    p_ver.add_argument("--q", default=None,
                       help="override the default sweep grid")
    p_ver.add_argument("--t", type=int, default=None)
    p_ver.add_argument("--output", default=None)

    p_dist = sub.add_parser("distance", help="oracle-certify one instance")
    p_dist.add_argument("--family", required=True, choices=list(FAMILIES))
    p_dist.add_argument("--d", type=int, default=None)
    p_dist.add_argument("--n", type=int, default=None,
                        help="length override for families i and iii")
    p_dist.add_argument("--delta", type=int, default=None,
                        help="explicit defining-set parameter (families i, iii)")
    p_dist.add_argument("--delta1", type=int, default=None)
    p_dist.add_argument("--delta2", type=int, default=None)
    p_dist.add_argument("--max-codewords", type=int,
                        default=OracleBudget.max_codewords)
    p_dist.add_argument("--max-minors", type=int,
                        default=OracleBudget.max_minors,
                        help="largest C(n, k) for the minor walk, the "
                             "fallback when the Cauchy certificate gives "
                             "no verdict")
    common(p_dist)

    p_tab = sub.add_parser("table", help="EAQMDS vs QMDS comparison table")
    common(p_tab, fmt_choices=("md", "json"))
    return ap


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return USAGE_ERROR if e.code not in (0, None) else 0
    try:
        args.q_values = parse_q(args.q) if args.q is not None else []
        return {"enumerate": cmd_enumerate, "verify": cmd_verify,
                "distance": cmd_distance, "table": cmd_table}[args.command](args)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return VERIFY_ERROR if isinstance(e, VerificationError) else USAGE_ERROR
    except Exception:
        traceback.print_exc()
        return INTERNAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
