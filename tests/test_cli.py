import contextlib
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eaqmds import cli, codes, cosets, eaqecc, galois, kernels
from eaqmds.cli import main, parse_q, table_rows


def run_cli(capsys, *args):
    code = main(list(args))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_parse_q():
    assert parse_q("4") == [4]
    assert parse_q("2..9") == [2, 3, 4, 5, 7, 8, 9]
    assert parse_q("3,5") == [3, 5]
    assert parse_q("5..5") == [5]
    with pytest.raises(ValueError):
        parse_q("6")          # explicit non-prime-power is rejected
    with pytest.raises(ValueError):
        parse_q("6..6")       # empty after filtering
    with pytest.raises(ValueError):
        parse_q("9..2")
    assert parse_q("3, 5") == [3, 5]
    assert parse_q("2 .. 9") == parse_q("2..9")
    for spec, part in (("3,x", "'x'"), ("2..", "'2..'"), ("", "''"),
                       ("1_1", "'1_1'"), ("+5", "'\\+5'"),
                       ("\u0665", "'\u0665'")):
        with pytest.raises(ValueError, match=(
                f"^bad --q part {part}: give a prime power, a comma list "
                "of them or a range a..b$")):
            parse_q(spec)


def test_parse_q_refuses_a_range_past_the_field_ceiling():
    """A range is refused at its first prime power q with q^2 past the
    2^20 ceiling, found by stepping up from the ceiling, without walking
    the range; a single q past it is refused too."""
    t0 = time.perf_counter()
    with pytest.raises(ValueError, match="^field order 1062961 exceeds the "
                       "size ceiling 1048576$"):
        parse_q("2..1000000")
    assert time.perf_counter() - t0 < 0.1
    with pytest.raises(ValueError, match="^field order 1062961 "):
        parse_q("1024..1031")
    assert parse_q("1000..1024") == [1009, 1013, 1019, 1021, 1024]
    with pytest.raises(ValueError, match="^no admissible q in "):
        parse_q("1025..1030")
    for spec in ("1031", "7,1031", "1031,3"):
        with pytest.raises(ValueError, match="^field order 1062961 "):
            parse_q(spec)
    assert parse_q("1024") == [1024]


@pytest.mark.parametrize("argv", [("enumerate", "--q", "7,1031"),
                                  ("table", "--q", "1031,3")],
                         ids=" ".join)
def test_a_single_q_past_the_ceiling_builds_no_field(capsys, monkeypatch,
                                                     argv):
    built = []
    real = galois.build_field

    def spy(p, m):
        built.append((p, m))
        return real(p, m)

    for module in (galois, codes):
        monkeypatch.setattr(module, "build_field", spy)
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, built) == (2, "", [])
    assert err == ("error: field order 1062961 exceeds the size ceiling "
                   "1048576\n")


def test_enumerate_range_past_the_ceiling_is_a_usage_error(capsys):
    code, out, err = run_cli(capsys, "enumerate", "--q", "2..1000000")
    assert (code, out) == (2, "")
    assert err == ("error: field order 1062961 exceeds the size ceiling "
                   "1048576\n")


def test_enumerate_d_builds_only_that_distance(capsys, monkeypatch):
    # each family group is built with the one window of distance d, if
    # it has one, not with all of them
    sizes = []
    build = eaqecc.family_codes

    def spy(row, windows):
        sizes.append(len(windows))
        return build(row, windows)

    monkeypatch.setattr(eaqecc, "family_codes", spy)
    code, out, _ = run_cli(capsys, "enumerate", "--q", "7", "--d", "4")
    assert code == 0 and sizes and max(sizes) <= 1
    records = json.loads(out)["records"]
    assert records and {r["d"] for r in records} == {4}


def test_enumerate_family_i_json(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--family", "i", "--q", "4",
                           "--format", "json")
    assert code == 0
    records = json.loads(out)["records"]
    assert len(records) == 4
    last = records[-1]
    assert (last["n"], last["k"], last["d"], last["c"]) == (17, 4, 8, 1)
    assert all(r["saturated"] for r in records)


def test_enumerate_emits_no_k0_records(capsys):
    # a k = 0 code encodes no qudit; the d range of `table` still lists
    # the distance
    code, out, _ = run_cli(capsys, "enumerate", "--q", "2..16", "--t", "3")
    assert code == 0
    records = json.loads(out)["records"]
    assert records and all(r["k"] >= 1 for r in records)
    labels = {(r["family"], r["q"], r["n"], r["d"]) for r in records}
    assert ("i", 2, 5, 2) in labels and ("i", 2, 5, 4) not in labels
    assert not any(r["family"] == "iv" and r["q"] == 3 for r in records)
    assert [r["eaqmds"]["d_max"] for _, r in table_rows(2, None)
            if r["family"] == "i"] == [4]


def test_enumerate_family_v_golden(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--family", "v", "--q", "11",
                           "--t", "3")
    assert code == 0
    records = json.loads(out)["records"]
    assert [(r["n"], r["k"], r["d"], r["c"]) for r in records] == [
        (40, 25, 10, 3), (40, 23, 11, 3), (40, 21, 12, 3),
        (40, 19, 13, 3), (40, 17, 14, 3)]


def test_enumerate_family_iv_csv(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--family", "iv", "--q", "5",
                           "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("family,q,t,n,k,d,c,saturated")
    assert len(lines) == 4
    assert lines[1].split(",")[:7] == ["iv", "5", "", "12", "6", "5", "2"]


def test_enumerate_markdown(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--family", "ii", "--q", "3",
                           "--format", "md")
    assert code == 0
    assert out.splitlines()[0].startswith("| family |")


def test_enumerate_d_filter_and_all_families(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--q", "5", "--d", "6")
    assert code == 0
    records = json.loads(out)["records"]
    # families ii, iii, iv all admit d = 6 at q = 5 (i needs d <= 2q even: 6 ok)
    fams = [r["family"] for r in records]
    assert fams == ["i", "ii", "iii", "iv"]


def test_enumerate_usage_errors(capsys):
    code, _, err = run_cli(capsys, "enumerate", "--family", "iv", "--q", "4")
    assert code == 2 and "not admissible" in err
    code, _, err = run_cli(capsys, "enumerate", "--family", "i", "--q", "6")
    assert code == 2
    code, _, err = run_cli(capsys, "enumerate", "--family", "i", "--q", "4",
                           "--d", "7")
    assert code == 2


def test_enumerate_deterministic_output(tmp_path, capsys):
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for p in paths:
        assert main(["enumerate", "--q", "5", "--output", str(p)]) == 0
    capsys.readouterr()
    assert paths[0].read_bytes() == paths[1].read_bytes()


@pytest.mark.parametrize("target", ["missing/x.json", "."],
                         ids=["missing-directory", "directory"])
def test_unwritable_output_is_a_usage_error(tmp_path, capsys, target):
    path = str(tmp_path / target)
    code, out, err = run_cli(capsys, "enumerate", "--q", "3",
                             "--output", path)
    assert code == 2 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: cannot write "
                                                   f"{path}: ")
    assert list(tmp_path.iterdir()) == []  # no file created or left


def test_unwritable_output_fails_before_the_work(monkeypatch, capsys):
    calls = []
    monkeypatch.setattr(cli, "enumerate_family",
                        lambda *a, **kw: calls.append(a) or [])
    code, out, err = run_cli(capsys, "enumerate", "--q", "2..32", "--t", "3",
                             "--output", "/nonexistent/x.json")
    assert code == 2 and out == "" and calls == []
    assert err.startswith("error: cannot write /nonexistent/x.json: ")
    assert not os.path.exists("/nonexistent/x.json")


# what the CLI prints: dicts with str keys, lists, str, int, bool, None;
# the text includes non-ASCII, control and escape-needing characters
_JSON_LEAVES = (st.none() | st.booleans() | st.text()
                | st.integers(-2**80, 2**80)
                | st.lists(st.integers(-10**30, 10**30) | st.booleans()))


@settings(max_examples=100, deadline=None)
@given(st.recursive(_JSON_LEAVES, lambda inner: st.lists(inner)
                    | st.dictionaries(st.text(), inner), max_leaves=30))
@example({})
@example([])
@example({"": [], "a\u00e9\n\"\\\x00\u2028\ud800": {}, "b": [[], {}]})
@example({"ints": [1, -2, 10**40], "bools": [True, 1, False], "none": None})
@example([[1, 2], [True], [[]], "x", 0])
def test_json_writer_matches_json_dumps_indent_2(value):
    assert cli.to_json(value) == json.dumps(value, indent=2) + "\n"


@pytest.mark.parametrize("value", [
    1.5, {"a": 0.5}, [1, 2.0], [[1.0]], {1: 2}, {"a": {None: 1}},
    {"a": [{True: 1}]}, (1, 2), {"a": {1, 2}}])
def test_json_writer_rejects_other_types(value):
    with pytest.raises(TypeError):
        cli.to_json(value)


def test_verify_cli(capsys):
    code, out, err = run_cli(capsys, "verify", "--lemma", "rank-ers",
                             "--q", "3..8")
    assert code == 0
    doc = json.loads(out)
    assert doc["reports"][0]["failures"] == 0
    assert doc["reports"][0]["instances"] == 22
    assert "lemma rank-ers" in err


def test_verify_consta_with_t(capsys):
    code, out, _ = run_cli(capsys, "verify", "--lemma", "consta",
                           "--q", "11", "--t", "3")
    assert code == 0
    doc = json.loads(out)["reports"][0]
    assert doc["failures"] == 0
    assert all(e["intersection_ok"] for e in doc["entries"])


def test_verify_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for p in (a, b):
        assert main(["verify", "--lemma", "nega", "--q", "3,5",
                     "--output", str(p)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


def test_distance_cli(capsys):
    code, out, _ = run_cli(capsys, "distance", "--family", "ii", "--q", "3",
                           "--d", "4")
    assert code == 0
    rec = json.loads(out)
    assert rec["method"] == "enumeration"
    assert rec["oracle_distance"] == 4 and rec["is_mds"]

    code, out, _ = run_cli(capsys, "distance", "--family", "i", "--q", "2",
                           "--d", "2")
    assert code == 0
    assert json.loads(out)["is_mds"]


def test_distance_design_only(capsys, monkeypatch):
    # a code the certificate cannot decide, over the codeword budget
    monkeypatch.setattr(kernels, "cauchy_certificate", lambda M, ctx: None)
    code, out, err = run_cli(capsys, "distance", "--family", "v", "--q", "27",
                             "--t", "7", "--d", "26")
    assert code == 4  # not certified within budget
    rec = json.loads(out)
    assert rec["method"] == "design-only" and rec["is_mds"] is None
    assert "design-distance only" in err


def test_distance_certifies_every_record(capsys):
    """Every record of `enumerate --q 2..16 --t 3` is certified MDS under
    the default budgets: d = n - k + 1, exit 0."""
    code, out, _ = run_cli(capsys, "enumerate", "--q", "2..16", "--t", "3")
    records = json.loads(out)["records"]
    assert code == 0 and len(records) == 312
    for r in records:
        argv = ["distance", "--family", r["family"], "--q", str(r["q"]),
                "--d", str(r["d"])] + (["--t", str(r["t"])] if r["t"] else [])
        code, out, _ = run_cli(capsys, *argv)
        rec = json.loads(out)
        n, k = rec["classical"]["n"], rec["classical"]["k"]
        assert (code, rec["is_mds"], rec["oracle_distance"]) == \
            (0, True, n - k + 1), argv


def test_distance_delta_overrides(capsys):
    code, out, _ = run_cli(capsys, "distance", "--family", "iv", "--q", "5",
                           "--delta1", "1", "--delta2", "3")
    assert code == 0
    rec = json.loads(out)
    assert rec["classical"] == {"n": 12, "k": 7, "d_design": 6}
    assert rec["is_mds"]
    code, _, err = run_cli(capsys, "distance", "--family", "i", "--q", "2")
    assert code == 2 and "--d" in err


def test_distance_family_ii_rejects_defining_set_parameters(capsys):
    # extended RS codes have no defining set: a usage error, not a bug
    code, out, err = run_cli(capsys, "distance", "--family", "ii", "--q", "3",
                             "--delta", "1")
    assert (code, out) == (2, "")
    assert err == ("error: family ii (extended RS) is not constacyclic and "
                   "has no defining set\n")
    with pytest.raises(ValueError, match="no defining set"):
        eaqecc.build_classical("ii", 3, None, delta=1)


@pytest.mark.parametrize("argv, message", [
    # --d together with explicit parameters, which come in its place
    (("distance", "--family", "i", "--q", "3", "--d", "100", "--delta", "1"),
     "error: d=100 and explicit parameters delta exclude each other\n"),
    (("distance", "--family", "iv", "--q", "5", "--d", "6", "--delta1", "1",
      "--delta2", "3"),
     "error: d=6 and explicit parameters delta1, delta2 exclude each other\n"),
    # a parameter the family does not take
    (("distance", "--family", "iii", "--q", "3", "--delta", "1",
      "--delta1", "2"),
     "error: family iii takes delta, not delta1\n"),
    (("distance", "--family", "iv", "--q", "5", "--delta1", "1",
      "--delta2", "3", "--delta", "7"),
     "error: family iv takes delta1 and delta2, not delta\n"),
], ids=["d-delta", "d-delta1-delta2", "iii-delta1", "iv-delta"])
def test_distance_rejects_extra_parameters(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (2, "", message)


def test_distance_reports_t_only_for_family_v(capsys):
    code, out, _ = run_cli(capsys, "distance", "--family", "i", "--q", "3",
                           "--d", "4")
    assert code == 0 and json.loads(out)["t"] is None
    code, out, _ = run_cli(capsys, "distance", "--family", "v", "--q", "5",
                           "--t", "3", "--d", "6")
    assert code == 0 and json.loads(out)["t"] == 3


@pytest.mark.parametrize("argv, message", [
    (("enumerate", "--q", "5", "--t", "0"),
     "t=0 not admissible for family v at q=5"),
    (("enumerate", "--q", "4", "--t", "3"),
     "t=3 not admissible for family v at q=4"),
    (("enumerate", "--family", "iii", "--q", "5", "--t", "3"),
     "family iii takes no --t, only family v does"),
    (("enumerate", "--family", "v", "--q", "5"), "family v needs --t"),
    (("distance", "--family", "i", "--q", "3", "--d", "6", "--t", "3"),
     "family i takes no --t, only family v does"),
    (("table", "--q", "5", "--t", "2"),
     "t=2 not admissible for family v at q=5"),
    (("verify", "--lemma", "rank1", "--q", "2..3", "--t", "3"),
     "lemma rank1 takes no --t, only lemma consta does"),
    (("verify", "--q", "4", "--t", "3"),
     "no admissible instance of lemma consta at q=4, t=3"),
    (("distance", "--family", "v", "--q", "5", "--d", "6"),
     "family v needs --t"),
], ids=["enumerate-t0", "enumerate-no-v", "enumerate-iii", "enumerate-v",
        "distance-i", "table", "verify-rank1", "verify-all", "distance-v"])
def test_t_that_nothing_takes_is_a_usage_error(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("argv, message", [
    (("enumerate", "--family", "i", "--q", "4", "--d", "7"),
     "d=7 not admissible here"),
    (("distance", "--family", "i", "--q", "4"),
     "distance needs --family, a single --q and --d (or explicit "
     "--delta/--delta1/--delta2)"),
    (("distance", "--family", "i", "--q", "4,5", "--d", "4"),
     "distance needs --family, a single --q and --d (or explicit "
     "--delta/--delta1/--delta2)"),
    (("distance", "--family", "iii", "--q", "3", "--n", "2", "--delta", "0"),
     "family iii admits no delta at q=3, n=2"),
    (("enumerate", "--q=3,x"),
     "bad --q part 'x': give a prime power, a comma list of them or a "
     "range a..b"),
], ids=["enumerate-d", "distance-no-d", "distance-two-q", "empty-range",
        "bad-q"])
def test_usage_error_is_one_line(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_distance_has_no_format_option(capsys):
    code, out, err = run_cli(capsys, "distance", "--family", "ii", "--q", "3",
                             "--d", "4", "--format", "json")
    assert (code, out) == (2, "")
    assert "unrecognized arguments: --format json" in err


@pytest.mark.parametrize("argv", [
    ("distance", "--family", "ii", "--q", "3", "--d", "4", "--n", "5"),
    ("distance", "--family", "iv", "--q", "5", "--d", "6", "--n", "3"),
    ("distance", "--family", "iv", "--q", "5", "--delta1", "1",
     "--delta2", "3", "--n", "12"),
    ("distance", "--family", "v", "--q", "5", "--t", "3", "--d", "6",
     "--n", "8"),
    ("enumerate", "--family", "ii", "--q", "3", "--n", "5"),
])
def test_n_is_a_usage_error_for_fixed_length_families(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and err.startswith("error: family ")
    assert "fixed length" in err


def test_enumerate_all_passes_n_to_families_i_and_iii(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--q", "7", "--n", "2")
    assert code == 0
    lengths = {(r["family"], r["n"]) for r in json.loads(out)["records"]}
    assert ("i", 2) in lengths and ("ii", 49) in lengths
    assert {n for fam, n in lengths if fam == "iv"} == {24}


@pytest.mark.parametrize("q, n", [("3", 5), ("4", 17)])
def test_enumerate_all_passes_n_to_the_family_that_admits_it(capsys, q, n):
    # n | q^2+1 but not q^2-1: family i takes n, family iii is skipped
    code, out, _ = run_cli(capsys, "enumerate", "--q", q, "--n", str(n))
    assert code == 0
    lengths = {(r["family"], r["n"]) for r in json.loads(out)["records"]}
    assert "iii" not in {fam for fam, _ in lengths}
    assert {m for fam, m in lengths if fam == "i"} == {n}


def test_enumerate_all_n_admitted_by_neither_family(capsys):
    code, out, err = run_cli(capsys, "enumerate", "--q", "3", "--n", "7")
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and err.startswith("error: ")


def test_distance_budget_override(capsys):
    code, out, _ = run_cli(capsys, "distance", "--family", "ii", "--q", "3",
                           "--d", "4", "--max-codewords", "10")
    assert code == 0
    rec = json.loads(out)
    assert (rec["method"], rec["is_mds"], rec["oracle_distance"]) == \
        ("cauchy", True, 4)


def test_distance_nonpositive_budget_is_a_usage_error(capsys):
    code, out, err = run_cli(capsys, "distance", "--family", "ii", "--q", "3",
                             "--d", "4", "--max-codewords", "0")
    assert (code, out) == (2, "")
    assert err == "error: the codeword budget must be positive\n"


def test_table_q5(capsys):
    code, out, _ = run_cli(capsys, "table", "--q", "5")
    assert code == 0
    lines = [l for l in out.splitlines() if l.startswith("| ")]
    lengths = [int(l.split("|")[1]) for l in lines[1:]]
    assert lengths == [26, 25, 24, 12]


def test_table_with_t_adds_family_v_row(capsys):
    code, out, _ = run_cli(capsys, "table", "--q", "11", "--t", "3",
                           "--format", "json")
    assert code == 0
    rows = json.loads(out)["rows"]
    assert [r["length"] for r in rows] == [122, 121, 120, 60, 40]
    assert rows[-1]["family"] == "v"


def test_table_even_q_omits_odd_only_rows(capsys):
    code, out, _ = run_cli(capsys, "table", "--q", "4", "--format", "json")
    assert code == 0
    rows = json.loads(out)["rows"]
    assert [r["length"] for r in rows] == [17, 16, 15]
    assert all(r["family"] in ("i", "ii", "iii") for r in rows)


def test_table_rows_verified():
    for group, row in table_rows(5, None):
        assert row["verified"] and (group.n, group.family) == (
            row["length"], row["family"])
        e = row["eaqmds"]
        assert len(row["codes"]) == e["d_max"] - e["d_min"] + 1 \
            or row["family"] == "i"


def test_table_takes_one_group_row_per_family_and_q(monkeypatch, capsys):
    """table builds each family group's row once, at its admissibility
    check, and computes the row's windows once, for both the table row
    and its records."""
    built, windows = [], []
    real_group, real_instances = eaqecc.group, cosets.Group.instances

    def group(*args, **kwargs):
        built.append(real_group(*args, **kwargs))
        return built[-1]

    def instances(row):
        windows.append(row)
        return real_instances(row)

    monkeypatch.setattr(eaqecc, "group", group)
    monkeypatch.setattr(cosets.Group, "instances", instances)
    for fmt in ("json", "md"):
        built.clear()
        windows.clear()
        code, out, _ = run_cli(capsys, "table", "--q", "2..9", "--format",
                               fmt)
        assert code == 0
        count = (len(json.loads(out)["rows"]) if fmt == "json"
                 else out.count("\n") - 2)
        assert len(built) == len(windows) == count > 20
        assert all(w is b for w, b in zip(windows, built))


def test_cli_rejects_unknown_arguments(capsys):
    assert main(["enumerate", "--q", "4", "--nope"]) == 2
    capsys.readouterr()


def test_exit_codes_separate_bugs_from_usage_errors(monkeypatch, capsys):
    def raises(exc):
        def cmd(cfg):
            raise exc
        return cmd

    monkeypatch.setattr(cli, "cmd_table", raises(KeyError("family")))
    assert main(["table", "--q", "5"]) == cli.INTERNAL_ERROR == 3
    err = capsys.readouterr().err
    assert "Traceback" in err and "KeyError: 'family'" in err
    monkeypatch.setattr(cli, "cmd_table", raises(ValueError("bad input")))
    assert main(["table", "--q", "5"]) == cli.USAGE_ERROR == 2
    assert capsys.readouterr().err == "error: bad input\n"


@pytest.mark.parametrize("c, message", [(17, "outside [0, n-1]"),
                                        (2, "!= closed form")])
def test_failed_construction_exits_1(monkeypatch, capsys, c, message):
    # family i at q = 4 has n = 17 and c = 1: c = 17 leaves [0, n-1]
    # (ea_singleton_check), c = 2 meets the bound but not the closed
    # form (enumerate_family).  family_codes counts every record's c in
    # one kernels.block_ranks call on the group's Gram matrix, so that
    # call is the one seam for c.
    monkeypatch.setattr(kernels, "block_ranks",
                        lambda gram, blocks, ctx: [c] * len(blocks))
    code, out, err = run_cli(capsys, "enumerate", "--family", "i", "--q", "4")
    assert code == cli.VERIFY_ERROR == 1
    assert err.startswith("error: ") and message in err
    assert "Traceback" not in err and out == ""


def test_singular_parity_check_exits_1(monkeypatch, capsys):
    # a parity check whose rank proof fails is a broken build, not bad
    # input: family iii at q = 5 builds one group, the union [-3, 3]
    monkeypatch.setattr(codes, "_vandermonde", lambda B, f: False)
    code, out, err = run_cli(capsys, "enumerate", "--family", "iii", "--q", "5")
    assert code == cli.VERIFY_ERROR == 1
    assert (out, err) == (
        "", "error: leading 7 x 7 block of H fails its rank proof\n")
    assert eaqecc.VerificationError is codes.VerificationError


@pytest.mark.parametrize("argv", [("verify", "--lemma", "nega", "--q", "4"),
                                  ("verify", "--lemma", "consta", "--q", "7",
                                   "--t", "3")])
def test_verify_without_instances_is_a_usage_error(capsys, argv):
    # a sweep that checks nothing proves nothing
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: no admissible instance ") \
        and err.count("\n") == 1


def test_verify_with_some_instances_passes(capsys):
    # nega and consta admit no even q, but rank1 and rank1-minus do
    code, out, _ = run_cli(capsys, "verify", "--q", "2")
    assert code == 0
    counts = {r["lemma"]: r["instances"] for r in json.loads(out)["reports"]}
    assert counts["nega"] == counts["consta"] == 0 < counts["rank1"]


# --- command-line grammar, over every flag of COMMANDS ---------------------

# the fewest flags each subcommand accepts
BASE = {"enumerate": ["--q", "5"], "verify": [],
        "distance": ["--family", "ii", "--q", "3"], "table": ["--q", "5"]}


def _flags(keep=lambda flag: True):
    return [pytest.param(command, flag, id=f"{command}-{flag.name}")
            for command, (_, flags) in cli.COMMANDS.items()
            for flag in flags if keep(flag)]


def _values(flag):
    """Two values the flag accepts, the first not its default."""
    if flag.choices:
        return flag.choices[-1], flag.choices[0]
    return ("7", "8") if flag.type is int else ("x7", "x8")


def _shortest_prefix(command, name):
    names = [f.name for f in cli.COMMANDS[command][1]] + ["help"]
    return next(name[:i] for i in range(1, len(name) + 1)
                if name[:i] == name
                or sum(n.startswith(name[:i]) for n in names) == 1)


def _usage_error(capsys, command, argv):
    code, out, err = run_cli(capsys, *argv)
    prog = f"eaqmds {command}" if command else "eaqmds"
    assert (code, out) == (2, ""), argv
    assert err.startswith(f"usage: {prog} ") and f"\n{prog}: error: " in err
    return err.splitlines()[-1].split(": error: ", 1)[1]


def test_namespace_holds_every_dest_at_its_default():
    assert vars(cli.parse_args(["distance", "--family", "ii", "--q", "3"])) \
        == {"command": "distance", "family": "ii", "d": None, "n": None,
            "delta": None, "delta1": None, "delta2": None,
            "max_codewords": 10**7, "q": "3",
            "t": None, "output": None}
    assert vars(cli.parse_args(["enumerate", "--q", "5"])) == {
        "command": "enumerate", "family": "all", "n": None, "d": None,
        "q": "5", "t": None, "output": None, "fmt": "json"}
    assert vars(cli.parse_args(["verify"])) == {
        "command": "verify", "lemma": "all", "q": None, "t": None,
        "output": None}
    assert vars(cli.parse_args(["table", "--q", "5"])) == {
        "command": "table", "q": "5", "t": None, "output": None, "fmt": "md"}


@pytest.mark.parametrize("command, flag", _flags())
def test_flag_forms_agree(command, flag):
    value, other = _values(flag)
    prefix = _shortest_prefix(command, flag.name)
    spaced, joined, short = (cli.parse_args([command, *BASE[command], *form])
                             for form in ([f"--{flag.name}", value],
                                          [f"--{flag.name}={value}"],
                                          [f"--{prefix}", value]))
    assert vars(spaced) == vars(joined) == vars(short)
    assert getattr(spaced, flag.dest) == flag.type(value)
    # a repeated flag keeps its last value
    twice = cli.parse_args([command, f"--{prefix}={other}", *BASE[command],
                            f"--{flag.name}", value])
    assert vars(twice) == vars(spaced)


def test_exact_name_beats_longer_names_and_dash_values_are_values():
    args = cli.parse_args(["distance", "--family", "iv", "--q", "5",
                           "--delta", "1", "--d", "6", "--t", "-3"])
    assert (args.d, args.delta, args.delta1, args.t) == (6, 1, None, -3)


def test_negative_value_reaches_the_family_check(capsys):
    code, out, err = run_cli(capsys, "enumerate", "--family", "v", "--q", "5",
                             "--t", "-3")
    assert (code, out) == (2, "") and "not admissible for family v" in err


@pytest.mark.parametrize("command, flag", _flags())
def test_flag_without_value_is_a_usage_error(capsys, command, flag):
    argv = [command, *BASE[command], f"--{flag.name}"]
    assert _usage_error(capsys, command, argv) == \
        f"argument --{flag.name}: expected one argument"


@pytest.mark.parametrize("command, flag", _flags(lambda f: f.type is int))
def test_non_int_value_is_a_usage_error(capsys, command, flag):
    argv = [command, *BASE[command], f"--{flag.name}", "1.5"]
    assert _usage_error(capsys, command, argv) == \
        f"argument --{flag.name}: invalid int value: '1.5'"


@pytest.mark.parametrize("command, flag", _flags(lambda f: f.choices))
def test_value_outside_choices_is_a_usage_error(capsys, command, flag):
    argv = [command, *BASE[command], f"--{flag.name}", "nope"]
    assert _usage_error(capsys, command, argv).startswith(
        f"argument --{flag.name}: invalid choice: 'nope' (choose from ")


@pytest.mark.parametrize("command, flag", _flags(lambda f: f.required))
def test_missing_required_flag_is_a_usage_error(capsys, command, flag):
    base = BASE[command]
    i = base.index(f"--{flag.name}")
    argv = [command, *base[:i], *base[i + 2:]]
    assert _usage_error(capsys, command, argv) == \
        f"the following arguments are required: --{flag.name}"


@pytest.mark.parametrize("argv, message", [
    ((), "the following arguments are required: command"),
    (("nope",), "argument command: invalid choice: 'nope' (choose from "
                "'enumerate', 'verify', 'distance', 'table')"),
    (("--q", "5"), "argument command: invalid choice: '--q' (choose from "
                   "'enumerate', 'verify', 'distance', 'table')"),
])
def test_missing_or_unknown_subcommand_is_a_usage_error(capsys, argv,
                                                        message):
    assert _usage_error(capsys, None, argv) == message


@pytest.mark.parametrize("argv, message", [
    (("distance", "--family", "ii", "--q", "3", "--del", "1"),
     "ambiguous option: --del could match --delta, --delta1, --delta2"),
    (("enumerate", "--q", "5", "--f=csv"),
     "ambiguous option: --f could match --family, --format"),
    (("enumerate", "--q", "5", "--nope", "-x", "y"),
     "unrecognized arguments: --nope -x y"),
    (("table", "--q", "5", "--"), "unrecognized arguments: --"),
    (("verify", "--help=1"), "unrecognized arguments: --help=1"),
    (("distance", "--family", "ii", "--q", "3", "--d", "4", "--max-minors",
      "5"), "unrecognized arguments: --max-minors 5"),
])
def test_ambiguous_or_unknown_flag_is_a_usage_error(capsys, argv, message):
    assert _usage_error(capsys, argv[0], argv) == message


@pytest.mark.parametrize("command", [None, *cli.COMMANDS])
@pytest.mark.parametrize("spelling", ["-h", "--help", "--he"])
def test_help_names_every_flag(capsys, command, spelling):
    argv = [spelling] if command is None else [command, spelling]
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "") and out.startswith("usage: eaqmds ")
    for name in [command] if command else cli.COMMANDS:
        for flag in cli.COMMANDS[name][1]:
            assert f"--{flag.name} " in out and flag.help in out


def test_help_wins_over_later_errors(capsys):
    code, out, _ = run_cli(capsys, "distance", "--family", "ii", "-h", "--d",
                           "x")
    assert code == 0 and out.startswith("usage: eaqmds distance ")


def test_startup_imports_no_argument_parser_or_locale():
    # pytest itself imports argparse, so the check needs a fresh process
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = ("import sys\n"
            "from eaqmds import cli\n"
            "rc = cli.main(['distance', '--family', 'ii', '--q', '3',"
            " '--d', '4'])\n"
            "loaded = [m for m in ('argparse', 'gettext', 'locale', 'csv',"
            " 'traceback') if m in sys.modules]\n"
            "assert (rc, loaded) == (0, []), (rc, loaded)\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr


_DIGIT = st.integers(0, 9).map(str)
_Q_SPECS = st.one_of(
    st.sampled_from(["2", "3", "4", "5", "7", "8", "9", "3,5", "2..9"]),
    st.builds("{}..{}".format, _DIGIT, _DIGIT),
    st.lists(_DIGIT, min_size=1, max_size=3).map(",".join),
    st.sampled_from(["", "x", "3,", "..", "-1", "1031"]))


def _value(flag):
    """A value for one flag, valid more often than not: one of its
    choices or a bad one, a q spec at q <= 9, a small int or a non-int,
    and a codeword budget small enough that no message enumeration takes
    long."""
    if flag.choices:
        return st.sampled_from([*flag.choices] * 3 + ["bogus"])
    if flag.name == "q":
        return _Q_SPECS
    if flag.name == "max-codewords":
        return st.integers(-1, 2000).map(str)
    return st.one_of(st.integers(0, 12).map(str),
                     st.sampled_from(["-1", "99", "z"]))


@st.composite
def _argv(draw):
    """A command of cli.COMMANDS with its required flags and a random
    subset of the others, all but --output, which would write files;
    distance always gets a budget."""
    command = draw(st.sampled_from(list(cli.COMMANDS)))
    argv = [command]
    for flag in cli.COMMANDS[command][1]:
        if flag.name == "output":
            continue
        if flag.required or flag.name == "max-codewords" or not draw(
                st.integers(0, 3)):
            argv += [f"--{flag.name}", draw(_value(flag))]
    return argv


@settings(max_examples=300, deadline=None)
@given(_argv())
def test_fuzzed_commands_exit_with_a_defined_code(argv):
    """No command line exits 3, the internal error, and a usage error
    (exit 2) writes nothing to stdout."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 4), (argv, err.getvalue())
    assert code != 2 or out.getvalue() == "", argv


def test_sweeps_and_enumerate_check_no_parameters(monkeypatch, capsys):
    """Only outside input goes through Group.check: the sweeps and
    enumerate draw every parameter set from the row."""
    calls = []
    check = cosets.Group.check

    def spy(row, *args, **kwargs):
        calls.append(kwargs)
        return check(row, *args, **kwargs)

    monkeypatch.setattr(cosets.Group, "check", spy)
    assert main(["verify", "--lemma", "nega", "--q", "3..13"]) == 0
    assert main(["enumerate", "--q", "2..9", "--t", "3"]) == 0
    assert calls == []
    assert main(["distance", "--family", "iv", "--q", "5", "--delta1", "1",
                 "--delta2", "3"]) == 0
    assert calls == [{"delta1": 1, "delta2": 3}]
    capsys.readouterr()
