"""Command-line front end.

Subcommands: enumerate (family records), verify (rank-lemma sweeps),
distance (oracle certification of one instance), table (the comparison
table between entanglement-assisted and standard quantum MDS codes).
--format picks JSON, CSV or Markdown for enumerate and Markdown or JSON
for table; verify and distance write JSON only.

The grammar is one table, COMMANDS: each subcommand lists its Flag
entries (dest, type, default, choices, required, help), and parse_args
reads argv against it.  Options are long only, as --opt value or
--opt=value; a unique prefix stands for the full name (an exact match
wins), a repeated flag keeps its last value, and -h/--help prints the
usage and each flag's help.  It is not argparse: each command is one
fresh process, and argparse's first use (with the gettext and locale
imports it pulls in) costs more than certifying a small instance.

--t is family v's constacyclic order (and the consta lemma's), which
family v needs; a --t that no family or lemma would take at the
requested q is a usage error.  verify sweeps the lemmas of
verify.LEMMAS, each over its own default grid unless --q or --t
overrides it.  enumerate --d builds only the instances at distance d.
A --q that holds a q with q^2 past galois.SIZE_LIMIT, in a range or
not, is a usage error before any work.

Data output is byte-identical across runs with the same flags: records
are sorted, and timing goes to stderr only.  JSON is written by
to_json, byte-identical to json.dumps(..., indent=2) for the types the
commands print, without json's pure-Python indent encoder.  An --output
path is checked before any work.  Exit codes: 0 success,
1 verification failure (a VerificationError included), 2 usage error
(any other ValueError, an --output path that cannot be written
included), 3 internal error (any other exception, with its
traceback on stderr), 4 not certified: the codeword budget is exceeded
and the Cauchy certificate gives no verdict, so distance reports the
design distance only.
"""

from __future__ import annotations

import io
import os
import sys
import time
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii as _quote
from math import isqrt
from types import SimpleNamespace

from .cosets import FAMILIES, Group, takers
from .eaqecc import (
    EaqeccParams,
    VerificationError,
    admissible,
    build_classical,
    enumerate_family,
    enumerate_group,
)
from .galois import SIZE_LIMIT, check_order, factor_prime_power
from .verify import LEMMAS, MAX_CODEWORDS, certify_distance, run_lemma_sweep

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


# the largest q whose field GF(q^2) fits the size ceiling
_Q_CEILING = isqrt(SIZE_LIMIT)


def parse_q(spec: str) -> list[int]:
    """'7', '3,5,7' or '2..9' in ASCII digits (ranges keep only prime
    powers).  A part that holds a prime power past _Q_CEILING, a single
    q or a range, is refused at the first such q, found by stepping up
    from the ceiling, before the range below it is walked."""
    out: list[int] = []
    for part in spec.split(","):
        part = part.strip()
        bounds = [b.strip() for b in part.split("..", 1)]
        # int() alone would also take '1_1', '+5' and non-ASCII digits
        if not all(b.isascii() and b.isdigit() for b in bounds):
            raise ValueError(f"bad --q part {part!r}: give a prime power, a "
                             "comma list of them or a range a..b")
        lo, hi = int(bounds[0]), int(bounds[-1])
        if len(bounds) == 1 and not _is_prime_power(lo):
            raise ValueError(f"q={lo} is not a prime power")
        if lo > hi:
            raise ValueError(f"empty range {part!r}")
        over = next((q for q in range(max(lo, _Q_CEILING + 1), hi + 1)
                     if _is_prime_power(q)), 0)
        check_order(over * over)
        out.extend(q for q in range(lo, hi + 1) if _is_prime_power(q))
    if not out:
        raise ValueError(f"no admissible q in {spec!r}")
    return sorted(set(out))


def _check_output(path: str | None) -> None:
    """Reject an --output path that cannot be written before any work is
    done: its directory must exist and the path must not be a
    directory."""
    if not path:
        return
    folder = os.path.dirname(path) or "."
    if not os.path.isdir(folder):
        raise ValueError(f"cannot write {path}: no directory {folder}")
    if os.path.isdir(path):
        raise ValueError(f"cannot write {path}: Is a directory")


def _emit(text: str, path: str | None) -> None:
    if path:
        try:
            with open(path, "w") as fh:
                fh.write(text)
        except OSError as e:
            raise ValueError(f"cannot write {path}: {e.strerror}") from None
    else:
        sys.stdout.write(text)


# the JSON text of each scalar type, as json.dumps writes it
_SCALARS = {str: _quote, int: int.__repr__,
            bool: {True: "true", False: "false"}.__getitem__,
            type(None): lambda _: "null"}


def _write(value, out: list[str], nl: str) -> None:
    """Append the JSON text of value to out; nl is the newline and the
    indentation of the line that value starts on."""
    kind = type(value)
    inner = nl + "  "
    if kind is dict and value:
        sep = "{" + inner
        for key, item in value.items():
            if type(key) is not str:
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            fmt = _SCALARS.get(type(item))
            if fmt is None:
                out += (sep, _quote(key), ": ")
                _write(item, out, inner)
            else:
                out += (sep, _quote(key), ": ", fmt(item))
            sep = "," + inner
        out.append(nl + "}")
    elif kind is list and value:
        if all(type(item) is int for item in value):
            out += ("[", inner, ("," + inner).join(map(int.__repr__, value)),
                    nl, "]")
            return
        sep = "[" + inner
        for item in value:
            out.append(sep)
            _write(item, out, inner)
            sep = "," + inner
        out.append(nl + "]")
    elif kind is dict or kind is list:
        out.append("{}" if kind is dict else "[]")
    else:
        fmt = _SCALARS.get(kind)
        if fmt is None:
            raise TypeError(f"Object of type {kind.__name__} is not JSON "
                            "serializable")
        out.append(fmt(value))


def to_json(value) -> str:
    """json.dumps(value, indent=2) plus a newline, byte for byte, for a
    value built of dict (str keys), list, str, int, bool and None; any
    other type raises TypeError.  It builds one list of strings and joins
    it once, where json.dumps with an indent runs a pure-Python encoder."""
    out: list[str] = []
    _write(value, out, "\n")
    out.append("\n")
    return "".join(out)


def records_to_json(records: list[dict]) -> str:
    return to_json({"records": records})


_CSV_FIELDS = ["family", "q", "t", "n", "k", "d", "c", "saturated",
               "classical_n", "classical_k", "classical_d", "defining_set"]


def records_to_csv(records: list[dict]) -> str:
    import csv
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


def _applicable_groups(q: int, t: int | None,
                       n: int | None = None) -> list[Group]:
    """The group of each family that admits q and t; with n, of the
    families of variable length just those that admit n."""
    return [row for name in FAMILIES if (row := admissible(
        name, q, t, n if name in takers("n") else None))]


def _check_t(family: str, t: int | None, q_values: list[int],
             q_spec: str) -> None:
    """Reject a t that nothing would take: only family v takes t, and
    needs one; `--family all` passes t to family v alone, which must then
    admit it at one of the requested q at least."""
    [v] = takers("t")
    if family == v and t is None:
        raise ValueError(f"family {v} needs --t")
    if t is None:
        return
    if family not in ("all", v):
        raise ValueError(f"family {family} takes no --t, only family {v} does")
    if not any(admissible(v, q, t) for q in q_values):
        raise ValueError(f"t={t} not admissible for family {v} at q={q_spec}")


def cmd_enumerate(args: SimpleNamespace) -> int:
    t0 = time.perf_counter()
    _check_t(args.family, args.t, args.q_values, args.q)
    params: list[EaqeccParams] = []
    given_n = {*takers("n"), args.family}
    for q in args.q_values:
        fams = ([row.family for row in _applicable_groups(q, args.t, args.n)]
                if args.family == "all" else [args.family])
        if args.n is not None and not given_n & {*fams}:
            raise ValueError(f"neither family {' nor '.join(takers('n'))}"
                             f" admits n={args.n} at q={q}")
        for fam in fams:
            # --family all passes n only to the families that take it
            n = args.n if fam in given_n else None
            params.extend(enumerate_family(fam, q, args.t, n, args.d))
    if args.d is not None and not params:
        raise ValueError(f"d={args.d} not admissible here")
    params.sort(key=lambda p: (FAMILIES.index(p.family), p.q, p.t or 0, p.d))
    records = [p.to_record() for p in params]
    _emit(_FORMATTERS[args.fmt](records), args.output)
    print(f"enumerated {len(records)} records in "
          f"{time.perf_counter() - t0:.2f}s", file=sys.stderr)
    return 0


def cmd_verify(args: SimpleNamespace) -> int:
    lemmas = list(LEMMAS) if args.lemma == "all" else [args.lemma]
    if args.t is not None and "consta" not in lemmas:
        raise ValueError(f"lemma {args.lemma} takes no --t, only lemma "
                         "consta does")
    ts = None if args.t is None else [args.t]
    reports = [run_lemma_sweep(lemma, args.q_values or None, ts)
               for lemma in lemmas]
    if args.t is None:
        lemma, takers = args.lemma, reports
    else:  # t must reach an instance of consta, the one lemma that takes it
        lemma, takers = "consta", [r for r in reports if r.lemma == "consta"]
    if not any(r.entries for r in takers):
        raise ValueError(f"no admissible instance of lemma {lemma} at "
                         f"q={args.q or 'the default grid'}"
                         + (f", t={args.t}" if args.t is not None else ""))
    doc = {"reports": [r.to_dict() for r in reports]}
    _emit(to_json(doc), args.output)
    for r in reports:
        print(r.to_text(), file=sys.stderr)
    return 0 if all(r.ok for r in reports) else VERIFY_ERROR


def cmd_distance(args: SimpleNamespace) -> int:
    deltas = {name: getattr(args, name) for name in ("delta", "delta1", "delta2")
              if getattr(args, name) is not None}
    if len(args.q_values) != 1 or (args.d is None and not deltas):
        raise ValueError("distance needs --family, a single --q and --d "
                         "(or explicit --delta/--delta1/--delta2)")
    _check_t(args.family, args.t, args.q_values, args.q)
    q = args.q_values[0]
    code = build_classical(args.family, q, args.d, args.t, args.n, **deltas)
    result = certify_distance(code, max_codewords=args.max_codewords)
    rec = {
        "family": args.family, "q": q, "t": args.t,
        "classical": {"n": code.n, "k": code.k, "d_design": code.d_design},
        "method": result["method"],
        "oracle_distance": result["d"],
        "is_mds": result["is_mds"],
    }
    _emit(to_json(rec), args.output)
    if result["method"] == "design-only":
        print("budget exceeded: design-distance only", file=sys.stderr)
        return NOT_CERTIFIED
    return 0 if result["is_mds"] else VERIFY_ERROR


def table_rows(q: int, t: int | None) -> list[tuple[Group, dict]]:
    """(group, table row) of each family group at q and t, longest first."""
    rows = []
    for row in _applicable_groups(q, t):
        ds = row.instances()  # the full range, k = 0 included
        params = enumerate_group(row, ds)
        rows.append((row, {
            "length": row.n,
            "family": row.family,
            "q": q,
            "t": row.t,
            "eaqmds": {
                # the closed form's constant term is its k at d = 0
                "k_formula": f"{row.k(0)}-2d",
                "c": row.c,
                "d_min": min(ds),
                "d_max": max(ds),
                "d_parity": row.d_parity,
            },
            "qmds": {"k_formula": f"{row.n + 2}-2d", "d_min": 2,
                     "d_max": row.qmds_d_max},
            "verified": all(p.saturates_ea_singleton for p in params),
            "codes": [p.label() for p in params],
        }))
    rows.sort(key=lambda r: -r[0].n)
    return rows


def _table_md(rows: list[tuple[Group, dict]]) -> str:
    lines = ["| Length | q-ary EAQMDS codes | q-ary QMDS codes | Construction |",
             "|---|---|---|---|"]
    for row, r in rows:
        e, s, name = r["eaqmds"], r["qmds"], row.construction
        parity = ", d even" if e["d_parity"] == "even" else ""
        lines.append(
            f"| {r['length']} "
            f"| [[{r['length']},{e['k_formula']},d;{e['c']}]], "
            f"{e['d_min']} <= d <= {e['d_max']}{parity} "
            f"| [[{r['length']},{s['k_formula']},d]], "
            f"{s['d_min']} <= d <= {s['d_max']} "
            f"| {name} (family {r['family']}) |")
    return "\n".join(lines) + "\n"


def cmd_table(args: SimpleNamespace) -> int:
    _check_t("all", args.t, args.q_values, args.q)
    rows = []
    for q in args.q_values:
        rows.extend(table_rows(q, args.t))
    if args.fmt == "md":
        _emit(_table_md(rows), args.output)
    else:
        _emit(to_json({"rows": [r for _, r in rows]}), args.output)
    return 0


@dataclass(frozen=True)
class Flag:
    """One long option of a subcommand, given as --name value or
    --name=value; its value lands in the namespace attribute dest."""

    name: str
    dest: str
    help: str
    type: type = str
    default: object = None
    choices: tuple = ()
    required: bool = False


_Q_HELP = "prime power, comma list, or range a..b"
_N_HELP = "length override for families i and iii"
_OUTPUT = Flag("output", "output", "write the data output to this file")


def _common(fmt_choices: tuple = ()) -> tuple[Flag, ...]:
    return (Flag("q", "q", _Q_HELP, required=True),
            Flag("t", "t", "constacyclic order for family v", int),
            _OUTPUT,
            *([Flag("format", "fmt", "output format", str, fmt_choices[0],
                    fmt_choices)] if fmt_choices else []))


_DESCRIPTION = ("Construct and verify entanglement-assisted quantum MDS "
               "codes.")

# subcommand -> (help, flags)
COMMANDS: dict[str, tuple[str, tuple[Flag, ...]]] = {
    "enumerate": ("emit family code records", (
        Flag("family", "family", "one family, or all that admit q",
             default="all", choices=("all", *FAMILIES)),
        Flag("n", "n", _N_HELP, int),
        Flag("d", "d", "restrict to one minimum distance", int),
        *_common(("json", "csv", "md")))),
    "verify": ("run rank-lemma sweeps", (
        Flag("lemma", "lemma", "one lemma, or all",
             default="all", choices=("all", *LEMMAS)),
        Flag("q", "q", "override the default sweep grid"),
        Flag("t", "t", "override the default constacyclic orders", int),
        _OUTPUT)),
    "distance": ("oracle-certify one instance", (
        Flag("family", "family", "the family of the instance",
             choices=FAMILIES, required=True),
        Flag("d", "d", "design distance of the instance", int),
        Flag("n", "n", _N_HELP, int),
        Flag("delta", "delta",
             "explicit defining-set parameter (families i, iii)", int),
        Flag("delta1", "delta1",
             "explicit defining-set parameter (families iv, v)", int),
        Flag("delta2", "delta2",
             "explicit defining-set parameter (families iv, v)", int),
        Flag("max-codewords", "max_codewords",
             "largest |field|^k for message enumeration", int,
             MAX_CODEWORDS),
        *_common())),
    "table": ("EAQMDS vs QMDS comparison table", _common(("md", "json"))),
}


class UsageError(Exception):
    """Command-line input that the grammar rejects; str() is the usage
    line and the error, as printed to stderr."""

    def __init__(self, command: str | None, message: str):
        prog = f"eaqmds {command}" if command else "eaqmds"
        super().__init__(f"usage: {_usage(command)}\n{prog}: error: {message}")


def _metavar(flag: Flag) -> str:
    if flag.choices:
        return "{" + ",".join(flag.choices) + "}"
    return flag.dest.upper()


def _usage(command: str | None) -> str:
    if command is None:
        return "eaqmds [-h] {" + ",".join(COMMANDS) + "} ..."
    parts = (f"--{f.name} {_metavar(f)}" if f.required
             else f"[--{f.name} {_metavar(f)}]" for f in COMMANDS[command][1])
    return " ".join([f"eaqmds {command} [-h]", *parts])


def _help(command: str | None) -> str:
    if command is None:
        return (f"usage: {_usage(None)}\n\n{_DESCRIPTION}\n\n"
                + "\n".join(_help(c) for c in COMMANDS))
    summary, flags = COMMANDS[command]
    rows = [("-h, --help", "show this help and exit")] + [
        (f"--{f.name} {_metavar(f)}", f.help + (
            f" (default: {f.default})" if f.default is not None else ""))
        for f in flags]
    width = max(len(left) for left, _ in rows) + 2
    return (f"usage: {_usage(command)}\n\n{summary}\n\n"
            + "".join(f"  {left.ljust(width)}{right}\n"
                      for left, right in rows))


def _is_help(token: str) -> bool:
    return token == "-h" or len(token) > 2 and "--help".startswith(token)


def _flag_named(command: str, name: str) -> Flag | None:
    """The flag that name (without --) denotes: an exact match, else the
    one flag whose name it is a prefix of; None when it names none."""
    flags = {f.name: f for f in COMMANDS[command][1]}
    if name in flags:
        return flags[name]
    hits = [f for f in flags if f.startswith(name)] if name else []
    if len(hits) > 1:
        raise UsageError(command, f"ambiguous option: --{name} could match "
                         + ", ".join(f"--{h}" for h in hits))
    return flags[hits[0]] if hits else None


def _convert(command: str, flag: Flag, value: str):
    if flag.type is int:
        try:
            value = int(value)
        except ValueError:
            raise UsageError(command, f"argument --{flag.name}: invalid int "
                             f"value: {value!r}") from None
    if flag.choices and value not in flag.choices:
        raise UsageError(command, f"argument --{flag.name}: invalid choice: "
                         f"{value!r} (choose from "
                         + ", ".join(map(repr, flag.choices)) + ")")
    return value


def parse_args(argv: list[str]) -> SimpleNamespace | None:
    """Parse `eaqmds <command> --flag value ...` against COMMANDS.

    A flag is --name value or --name=value, and a unique prefix of a name
    stands for it; the value is the next argument as it is, even when it
    starts with '-'.  A repeated flag keeps its last value.  Returns the
    namespace (command, plus every flag's dest, unset ones at their
    default), or None after printing help for -h/--help.  Raises
    UsageError for anything else the grammar does not accept.
    """
    if not argv:
        raise UsageError(None, "the following arguments are required: "
                         "command")
    command, rest = argv[0], iter(argv[1:])
    if _is_help(command):
        sys.stdout.write(_help(None))
        return None
    if command not in COMMANDS:
        raise UsageError(None, f"argument command: invalid choice: "
                         f"{command!r} (choose from "
                         + ", ".join(map(repr, COMMANDS)) + ")")
    flags = COMMANDS[command][1]
    args = SimpleNamespace(command=command,
                           **{f.dest: f.default for f in flags})
    given, unknown = set(), []
    for token in rest:
        name, has_value, value = token[2:].partition("=")
        if _is_help(token):
            sys.stdout.write(_help(command))
            return None
        flag = _flag_named(command, name) if token.startswith("--") else None
        if flag is None:
            unknown.append(token)
            continue
        if not has_value:
            value = next(rest, None)
            if value is None:
                raise UsageError(command, f"argument --{flag.name}: "
                                 "expected one argument")
        setattr(args, flag.dest, _convert(command, flag, value))
        given.add(flag)
    missing = [f"--{f.name}" for f in flags if f.required and f not in given]
    if missing:
        raise UsageError(command, "the following arguments are required: "
                         + ", ".join(missing))
    if unknown:
        raise UsageError(command, "unrecognized arguments: "
                         + " ".join(unknown))
    return args


def main(argv: list[str] | None = None) -> int:
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
    except UsageError as e:
        print(e, file=sys.stderr)
        return USAGE_ERROR
    if args is None:
        return 0
    try:
        args.q_values = parse_q(args.q) if args.q is not None else []
        _check_output(args.output)
        return {"enumerate": cmd_enumerate, "verify": cmd_verify,
                "distance": cmd_distance, "table": cmd_table}[args.command](args)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return VERIFY_ERROR if isinstance(e, VerificationError) else USAGE_ERROR
    except Exception:
        import traceback
        traceback.print_exc()
        return INTERNAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
