"""eaqecc.family_codes builds each family group (family, q, t, n) once
and hands out its instances as views of consecutive rows of one parity
check, each with a view of the principal block of one Gram matrix and
its ebit count, all counted in one kernels.block_ranks pass over that
Gram matrix.  A wrong row offset would reach every instance of a family,
so every instance that `enumerate --q 2..16 --t 3` and the default
`verify` grids produce is compared with a direct build, and random
windows of random runs are too; the views are checked to share the
group's memory; and the union's one rank proof, one Gram product and one
rank pass are counted."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eaqmds import codes, eaqecc, kernels, verify
from eaqmds.cli import main
from eaqmds.codes import constacyclic_code, subcode
from eaqmds.cosets import DefiningSet, defining_set, omega_run
from eaqmds.eaqecc import build_classical, family_codes


def _checked(real, seen):
    """family_codes that compares each yielded instance, its Gram matrix
    and its ebit count with the direct build_classical of its parameters,
    recording what it covered."""
    def wrapper(family, q, params, t=None, n=None):
        built = real(family, q, params, t, n)
        for kw, (code, gram, c) in zip(params, built, strict=True):
            direct = build_classical(family, q, None, t, n, **kw)
            assert np.array_equal(code.H, direct.H), (family, q, t, n, kw)
            assert (code.n, code.k, code.d_design, code.family) == \
                (direct.n, direct.k, direct.d_design, direct.family)
            assert code.defining_set == direct.defining_set
            assert code.field is direct.field
            f = direct.field
            direct_gram = kernels.matmul(direct.H,
                                         kernels.adjoint(direct.H, q, f), f)
            assert np.array_equal(gram, direct_gram), (family, q, t, n, kw)
            assert c == kernels.rank(direct_gram, f), (family, q, t, n, kw)
            Z = code.defining_set
            traced = Z is not None and (q * q - 1) % Z.modulus != 0
            seen.append((family, traced, kw.get("odd", False)))
            yield code, gram, c
    return wrapper


@pytest.mark.parametrize("argv, module", [
    (["enumerate", "--q", "2..16", "--t", "3"], eaqecc),
    (["verify"], verify),
], ids=["enumerate", "verify"])
def test_every_slice_matches_its_direct_build(monkeypatch, capsys, argv,
                                              module):
    seen = []
    monkeypatch.setattr(module, "family_codes",
                        _checked(module.family_codes, seen))
    assert main(argv) == 0
    out = json.loads(capsys.readouterr().out)
    count = (len(out["records"]) if "records" in out
             else sum(r["instances"] for r in out["reports"]))
    assert len(seen) == count
    assert {fam for fam, _, _ in seen} == set(eaqecc.FAMILIES)
    # both trace-row and power-row parity checks, and family iii at even
    # and odd distance
    assert {traced for _, traced, _ in seen} == {False, True}
    assert {odd for fam, _, odd in seen if fam == "iii"} == {False, True}


def _count_calls(monkeypatch, module, name):
    calls = []
    real = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_one_rank_proof_and_one_gram_product_per_group(monkeypatch, capsys):
    # the rank proofs of power rows and of trace rows
    power = _count_calls(monkeypatch, codes, "_vandermonde")
    trace = _count_calls(monkeypatch, codes, "_lucas_vandermonde")
    products = _count_calls(monkeypatch, kernels, "matmul")
    # 210 instances in 10 (q, t) groups; the cross ranks of family v take
    # blocks of the Gram matrix and multiply nothing
    assert main(["verify", "--lemma", "consta", "--q", "5..29"]) == 0
    report = json.loads(capsys.readouterr().out)["reports"][0]
    assert report["instances"] == 210 and report["failures"] == 0
    assert len(power) + len(trace) == len(products) == 10

    power.clear()
    trace.clear()
    products.clear()
    assert main(["enumerate", "--q", "2..9", "--t", "3"]) == 0
    records = json.loads(capsys.readouterr().out)["records"]
    groups = {(r["family"], r["q"]) for r in records}
    assert len(power) + len(trace) == len(groups)
    assert len(products) == len(groups) < len(records)


def _principal(M, gram):
    """True iff M is a view of a principal block of gram: its diagonal
    lies on gram's."""
    return np.shares_memory(M.diagonal(), gram.diagonal())


def test_one_rank_pass_per_group(monkeypatch, capsys):
    passes = _count_calls(monkeypatch, kernels, "block_ranks")
    ranked = _count_calls(monkeypatch, kernels, "rank")
    # the only ranks taken one at a time are family v's cross blocks, one
    # per instance, none on a principal block of a group's Gram matrix
    assert main(["verify", "--lemma", "consta", "--q", "5..29"]) == 0
    report = json.loads(capsys.readouterr().out)["reports"][0]
    assert len(passes) == 10
    assert sum(len(blocks) for _, blocks, _ in passes) == report["instances"]
    assert len(ranked) == report["instances"]
    assert not any(_principal(M, gram) for M, _ in ranked
                   for gram, _, _ in passes)
    assert all(any(np.shares_memory(M, gram) for gram, _, _ in passes)
               for M, _ in ranked)

    passes.clear()
    ranked.clear()
    assert main(["enumerate", "--q", "2..9", "--t", "3"]) == 0
    records = json.loads(capsys.readouterr().out)["records"]
    groups = {(r["family"], r["q"]) for r in records}
    assert len(passes) == len(groups) < len(records)
    assert sum(len(blocks) for _, blocks, _ in passes) == len(records)
    assert ranked == []


def test_one_family_iii_group_per_length(monkeypatch, capsys):
    # both distance parities of one (q, n) come from one build, the even
    # instances' entries first: the odd run [-delta, delta-1] lies inside
    # the even union [-delta, delta]
    builds = _count_calls(monkeypatch, verify, "family_codes")
    assert main(["verify", "--lemma", "rank1-minus"]) == 0
    entries = json.loads(capsys.readouterr().out)["reports"][0]["entries"]
    groups = list(dict.fromkeys((e["q"], e["n"]) for e in entries))
    # a (q, n) that admits no delta asks for no instance and builds nothing
    assert len([args for args in builds if args[2]]) == len(groups) == 22
    for group in groups:
        odd = [e["params"]["odd"] for e in entries
               if (e["q"], e["n"]) == group]
        assert odd == sorted(odd) and odd[0] is False


def test_empty_group_yields_nothing():
    # family iii at q = 5, n = 4 < q + 1 admits no delta
    assert list(family_codes("iii", 5, [], n=4)) == []
    assert verify.run_lemma_sweep("rank1-minus", [5]).ok


def test_subcode_rejects_what_the_union_does_not_hold():
    top = build_classical("i", 4, None, delta=2)
    Z = top.defining_set
    with pytest.raises(ValueError, match="no extended RS"):
        subcode(top, 3)
    with pytest.raises(ValueError, match="outside the defining set"):
        subcode(top, DefiningSet(17, 1, frozenset({5})))
    # trace rows (n = 17 does not divide 15) hold only sets closed under
    # z -> -z
    assert (4 * 4 - 1) % Z.modulus
    with pytest.raises(ValueError, match="closed"):
        subcode(top, DefiningSet(17, 1, frozenset({0, 1})))
    code, rows = subcode(top, defining_set("i", 4, delta=1))
    direct = constacyclic_code(4, defining_set("i", 4, delta=1))
    assert np.array_equal(code.H, direct.H)
    assert np.array_equal(code.H, top.H[rows])
    rs = build_classical("ii", 3, None, r=4)
    with pytest.raises(ValueError, match="no extended RS"):
        subcode(rs, 5)
    with pytest.raises(ValueError, match="holds no code"):
        subcode(rs, Z)


@pytest.mark.parametrize("family, q, t", [
    ("i", 8, None),
    ("ii", 5, None),
    ("iii", 7, None),
    ("iv", 7, None),
    ("v", 11, 3),
])
def test_instances_are_views_of_their_group(monkeypatch, family, q, t):
    """Each instance's H is a view of its group's H, each Gram block is
    a view of the group's Gram matrix, and one block_ranks call on that
    matrix counts every instance's c; family v's cross rank is one
    kernels.rank per instance, on a view of it: no instance copies rows."""
    groups, views, passes, ranked = [], [], [], []
    real_gram, real_subcode, real_rank, real_blocks = (
        eaqecc.gram_matrix, eaqecc.subcode, kernels.rank, kernels.block_ranks)

    def gram(H, q, f):
        groups.append((H, real_gram(H, q, f)))
        return groups[-1][1]

    def sub(top, part):
        code, rows = real_subcode(top, part)
        views.append(code.H)
        return code, rows

    def rank(M, f):
        ranked.append(M)
        return real_rank(M, f)

    def block_ranks(M, blocks, f):
        passes.append((M, blocks))
        return real_blocks(M, blocks, f)

    monkeypatch.setattr(eaqecc, "gram_matrix", gram)
    monkeypatch.setattr(eaqecc, "subcode", sub)
    monkeypatch.setattr(kernels, "rank", rank)
    monkeypatch.setattr(kernels, "block_ranks", block_ranks)
    report = verify.SweepReport("views")
    verify._sweep_family(report, family, q, t=t)
    instances = len(report.entries)
    assert report.ok and instances > 3
    [(H, gram_all)] = groups
    assert len(views) == instances
    assert all(np.shares_memory(view, H) for view in views)
    [(counted, blocks)] = passes
    assert counted is gram_all and len(blocks) == instances
    assert len(ranked) == (instances if family == "v" else 0)
    assert all(np.shares_memory(M, gram_all) and not _principal(M, gram_all)
               for M in ranked)


# (family, q, t): n and r follow from parameter_ranges
_POWER_GROUPS = [("iii", q, None) for q in (2, 3, 4, 5, 7, 8, 9, 11, 13)] + [
    ("iv", q, None) for q in (3, 5, 7, 9, 11, 13)] + [
    ("v", 5, 3), ("v", 9, 5), ("v", 11, 3), ("v", 13, 7)]


@st.composite
def _windows(draw):
    """(q, run, part, outside): a random run of Omega indices of one power
    row family at q <= 13, a window inside it, and a run that reaches one
    index past one of its ends."""
    family, q, t = draw(st.sampled_from(_POWER_GROUPS))
    n = verify.parameter_ranges(family, q, t=t)[0]
    r = {"iii": 1, "iv": 2}.get(family, t)
    size = draw(st.integers(1, n - 1))
    lo = draw(st.integers(0, n - 1))
    run = omega_run(n, r, lo, lo + size - 1)
    first = draw(st.integers(0, size - 1))
    last = draw(st.integers(first, size - 1))
    part = omega_run(n, r, lo + first, lo + last)
    if draw(st.booleans()):
        outside = omega_run(n, r, lo + first, lo + size)
    else:
        outside = omega_run(n, r, lo - 1, lo + last)
    return q, run, part, outside


@settings(max_examples=150, deadline=None)
@given(_windows())
def test_a_window_of_a_run_is_a_view_of_its_rows(case):
    q, run, part, outside = case
    big = constacyclic_code(q, run)
    code, rows = subcode(big, part)
    assert np.array_equal(code.H, constacyclic_code(q, part).H)
    assert np.shares_memory(code.H, big.H) and not code.H.flags.writeable
    assert code.defining_set == part and rows.stop - rows.start == len(part)
    with pytest.raises(ValueError, match="outside the defining set"):
        subcode(big, outside)


@pytest.mark.parametrize("q, n, part", [
    (4, 17, {8, 9}),          # centred on n/2 = 8.5: the last pair
    (3, 10, {4, 5, 6}),       # the pair 4, 6 and the row of n/2 = 5
    (4, 17, {16, 0, 1}),      # centred on 0: the first three rows
])
def test_trace_rows_of_a_closed_run_are_a_view(q, n, part):
    full = constacyclic_code(q, DefiningSet(n, 1, frozenset(range(n))))
    Z = DefiningSet(n, 1, frozenset(part))
    code, rows = subcode(full, Z)
    assert np.array_equal(code.H, constacyclic_code(q, Z).H)
    assert np.shares_memory(code.H, full.H)
    assert rows == (slice(0, 3) if 0 in part else slice(n - len(part), n))


def test_parts_that_are_not_one_run_are_refused():
    top = constacyclic_code(5, defining_set("iii", 5, delta=3))
    for elements in ({1, 3}, {23, 2}):
        with pytest.raises(ValueError, match="not one run"):
            subcode(top, DefiningSet(24, 1, frozenset(elements)))
    gappy = constacyclic_code(5, DefiningSet(24, 1, frozenset({0, 1, 5})))
    with pytest.raises(ValueError, match="not one run"):
        subcode(gappy, DefiningSet(24, 1, frozenset({5})))
