import itertools
import json
from collections import Counter
from unittest import mock

import numpy as np
import pytest

from eaqmds import kernels, verify
from eaqmds.codes import (
    ClassicalCode,
    constacyclic_code,
    extended_rs_code,
    generator_matrix,
)
from eaqmds.cli import parse_q
from eaqmds.cosets import (
    DefiningSet,
    defining_set,
    parameter_ranges,
)
from eaqmds.eaqecc import build_classical, gram_matrix
from eaqmds.galois import build_field
from eaqmds.verify import (
    _consta_intersection,
    _rank_entry,
    certify_distance,
    divisors,
    dual_containment_matrix_oracle,
    run_lemma_sweep,
)
from reference import cyclotomic_coset, ref_submatrices_nonsingular


def rs_8_5_4():
    """Reed-Solomon [8,5,4] over GF(9): roots eta, eta^2, eta^3."""
    return constacyclic_code(3, DefiningSet(8, 1, frozenset({1, 2, 3})))


def test_exhaustive_min_distance_repetition_style(gf9):
    G = np.ones((1, 4), dtype=np.int64)
    assert kernels.min_weight(G, gf9) == 4


def test_exhaustive_min_distance_rs_8_5_4():
    code = rs_8_5_4()
    G = generator_matrix(code)
    assert kernels.min_weight(G, code.field) == 4   # 9^5 = 59049 messages


def _routes(code, **kw):
    """certify_distance's result and the number of kernels.min_weight
    calls it made."""
    with mock.patch.object(kernels, "min_weight",
                           wraps=kernels.min_weight) as spy:
        res = certify_distance(code, **kw)
    return res, spy.call_count


def test_exhaustive_budget_routing():
    """A codeword budget of exactly Q^k messages admits enumeration, one
    below it takes the certificate."""
    rs = rs_8_5_4()                                  # 9^5 messages
    assert _routes(rs, max_codewords=9**5) == (
        {"method": "enumeration", "is_mds": True, "d": 4}, 1)
    assert _routes(rs, max_codewords=9**5 - 1) == (
        {"method": "cauchy", "is_mds": True, "d": 4}, 0)
    # [12,7,6] over GF(25): 25^7 messages blow the default budget and
    # one below Q^k, so certify_distance routes it to the certificate
    code = build_classical("iv", 5, 6)
    assert code.k == 7
    for budget in (verify.MAX_CODEWORDS, 25**7 - 1):
        assert _routes(code, max_codewords=budget) == (
            {"method": "cauchy", "is_mds": True, "d": 6}, 0)


def test_minor_oracle_cases(gf9):
    assert kernels.cauchy_certificate(np.eye(3, dtype=np.int64), gf9)
    bad = np.array([[1, 2, 1], [2, 1, 2]])  # repeated column
    assert kernels.cauchy_certificate(bad, gf9) is False
    code = build_classical("i", 4, 6)
    G = generator_matrix(code)
    assert kernels.cauchy_certificate(G, code.field) is True
    # 16^12 messages: over the default codeword budget, the certificate
    # decides, and no message is enumerated
    assert _routes(code) == ({"method": "cauchy", "is_mds": True,
                              "d": 6}, 0)


def test_oracles_agree_where_both_apply():
    for code in [rs_8_5_4(), build_classical("ii", 3, 4),
                 build_classical("iii", 3, 3),
                 _with_repeated_column(build_classical("ii", 3, 4))]:
        G = generator_matrix(code)
        d = kernels.min_weight(G, code.field)
        assert (d == code.n - code.k + 1) == \
            kernels.cauchy_certificate(G, code.field) == \
            kernels.cauchy_certificate(code.H, code.field)


def test_dual_containment_matrix_oracle(gf9):
    assert dual_containment_matrix_oracle(
        np.zeros((0, 4), dtype=np.int64), 3, gf9)
    z1 = cyclotomic_coset(1, 17, 16) | cyclotomic_coset(2, 17, 16)
    code = constacyclic_code(4, DefiningSet(17, 1, z1))
    assert dual_containment_matrix_oracle(code.H, 4, code.field)
    Hfull = constacyclic_code(4, DefiningSet(17, 1, z1 | {0})).H
    assert not dual_containment_matrix_oracle(Hfull, 4, code.field)


def test_certify_distance_routing():
    assert certify_distance(build_classical("ii", 3, 4)) == \
        {"method": "enumeration", "is_mds": True, "d": 4}
    # 16^10 messages: over the codeword budget, so the certificate decides
    big = certify_distance(build_classical("i", 4, 8))
    assert big == {"method": "cauchy", "is_mds": True, "d": 8}
    # 729^79 messages, far over the codeword budget: the certificate decides
    huge = certify_distance(build_classical("v", 27, 26, t=7))
    assert huge == {"method": "cauchy", "is_mds": True, "d": 26}
    refuted = certify_distance(_with_repeated_column(extended_rs_code(3, 3)),
                               max_codewords=1)
    assert refuted == {"method": "cauchy", "is_mds": False, "d": None}


# A of [I | A] over GF(9) with no zero entry and no two proportional rows
# or columns, whose entry-wise inverse has rank 3: every square submatrix
# nonsingular, and not so (a singular 2 x 2 minor on rows 0, 1)
NOT_CAUCHY = {True: [[8, 2, 5, 3], [1, 7, 1, 3], [4, 4, 1, 8]],
              False: [[4, 5, 7, 8], [1, 2, 7, 8], [2, 3, 7, 4]]}


@pytest.mark.parametrize("is_mds", [True, False])
def test_certify_distance_without_a_certificate_verdict(is_mds):
    """A [7, 4] code whose parity check [I | A] has no generalized-Cauchy
    A: the certificate gives no verdict, so over the codeword budget the
    code is design-only, whether it is MDS or not; within the budget
    enumeration decides it."""
    f = build_field(3, 2)
    A = np.array(NOT_CAUCHY[is_mds], dtype=np.int64)
    assert ref_submatrices_nonsingular(A, f) == is_mds
    H = np.hstack([np.eye(3, dtype=np.int64), A])
    assert kernels.cauchy_certificate(H, f) is None
    code = ClassicalCode(n=7, k=4, d_design=4 if is_mds else 2, H=H, q=3,
                         field=f)
    assert certify_distance(code, max_codewords=1) == \
        {"method": "design-only", "is_mds": None, "d": None}
    res = certify_distance(code)
    assert res["method"] == "enumeration" and res["is_mds"] == is_mds
    assert (res["d"] == 4) == is_mds


def test_certify_distance_subfield_enumeration():
    # roots in GF(16), the code itself enumerated over GF(4)
    code = build_classical("i", 2, 4)
    assert code.field.order == 4
    res = certify_distance(code)
    assert res == {"method": "enumeration", "is_mds": True, "d": 4}


def test_certify_distance_plain_rs_code():
    res = certify_distance(rs_8_5_4())
    assert res == {"method": "enumeration", "is_mds": True, "d": 4}


def _distance_instances(q):
    """Every code `distance` can build at q, as build_classical builds it:
    each n of families i and iii (both odd for iii), each t of family v,
    and each parameter set of parameter_ranges."""
    groups = [("i", None, n, False) for n in divisors(q * q + 1)]
    groups += [("ii", None, None, False), ("iv", None, None, False)]
    groups += [("iii", None, n, odd) for n in divisors(q * q - 1)
               for odd in (False, True)]
    groups += [("v", t, None, False) for t in range(3, q + 2, 2)]
    for family, t, n, odd in groups:
        try:
            ranges = parameter_ranges(family, q, n, t, odd)[1]
        except ValueError:
            continue
        for values in itertools.product(*ranges.values()):
            yield build_classical(family, q, None, t, n, odd=odd,
                                  **dict(zip(ranges, values)))


def test_every_distance_instance_is_decided():
    """Route census at q <= 16: certify_distance proves every instance
    MDS by enumeration or by the certificate, and none falls through to
    design-only (the whole q <= 32 census takes about 30 s)."""
    methods = Counter()
    for q in parse_q("2..16"):
        for code in _distance_instances(q):
            res = certify_distance(code)
            assert res["is_mds"] is True and res["d"] == code.n - code.k + 1
            methods[res["method"]] += 1
    assert methods == {"enumeration": 25, "cauchy": 496}


@pytest.mark.parametrize("family,q,d", [
    ("ii", 3, 4), ("i", 3, 6), ("iii", 3, 4), ("i", 2, 4)])
def test_certify_enumeration_instances(family, q, d):
    # the enumeration instances of the certify workload and two more:
    # routed to message enumeration, with the exact distance
    assert certify_distance(build_classical(family, q, d)) == \
        {"method": "enumeration", "is_mds": True, "d": d}


def test_certify_enumeration_reports_distance_below_design():
    code = _with_repeated_column(build_classical("ii", 3, 4))
    assert certify_distance(code) == \
        {"method": "enumeration", "is_mds": False, "d": 2}


def _with_repeated_column(code):
    """The code whose parity check repeats column 1 of code.H in place of
    the last column: it has a weight-2 word, so it is not MDS."""
    H = code.H.copy()
    H[:, -1] = H[:, 1]
    return ClassicalCode(n=code.n, k=code.k, d_design=2, H=H, q=code.q,
                         field=code.field)


@pytest.mark.parametrize("r", [3, 6])
def test_minor_oracle_on_h_agrees_with_g(r):
    """Every k columns of G independent iff every n-k columns of H are:
    the certificate on G and on H agrees on an MDS code and on one with a
    repeated column, for n-k < k (r = 3) and n-k > k (r = 6), and
    certify_distance answers the same on H, which it picks whenever H
    has n-k rows."""
    mds = extended_rs_code(3, r)            # [9, 9-r, r+1]
    for code, is_mds in ((mds, True), (_with_repeated_column(mds), False)):
        G = generator_matrix(code)
        f = code.field
        assert G.shape[0] == code.k == 9 - r
        certificate = kernels.cauchy_certificate
        assert certificate(G, f) == certificate(code.H, f) == is_mds
        with mock.patch.object(kernels, "cauchy_certificate",
                               wraps=certificate) as oracle:
            res = certify_distance(code, max_codewords=1)
        assert oracle.call_args.args[0] is code.H
        assert res["method"] == "cauchy" and res["is_mds"] == is_mds


def test_minor_oracle_takes_g_for_dependent_rows():
    # a hand-built H that repeats a row has more than n-k rows, so the
    # certificate runs on G
    rs = extended_rs_code(3, 3)                   # [9, 6, 4]
    code = ClassicalCode(n=9, k=6, d_design=4, H=np.vstack([rs.H, rs.H[:1]]),
                         q=3, field=rs.field)
    with mock.patch.object(kernels, "cauchy_certificate",
                           wraps=kernels.cauchy_certificate) as oracle:
        res = certify_distance(code, max_codewords=1)
    assert oracle.call_args.args[0].shape == (6, 9)
    assert res == {"method": "cauchy", "is_mds": True, "d": 4}


def test_run_lemma_sweep_small():
    rep = run_lemma_sweep("rank1", [2, 3])
    assert rep.ok and len(rep.entries) >= 4
    assert all(e["computed"] == 1 for e in rep.entries)
    rep = run_lemma_sweep("nega", [3, 5])
    assert rep.ok
    assert all(e["computed"] == 2 for e in rep.entries)
    rep = run_lemma_sweep("consta", [5], [3])
    assert rep.ok and len(rep.entries) == 1
    assert rep.entries[0]["intersection"] == 1


def test_consta_split_mismatch_is_reported():
    # q = 5, t = 3 admits only delta1 = delta2 = 2; Z then has 5 elements
    Z = defining_set("v", 5, t=3, delta1=2, delta2=2)
    code = constacyclic_code(5, Z)
    f = code.field
    gram = gram_matrix(code.H, 5, f)
    good = _consta_intersection(5, 3, 2, 2, code, gram)
    assert good["split_ok"] and good["cross_rank"] == 1
    assert _rank_entry("consta", 5, 8, 3, {}, Z, kernels.rank(gram, f), 3,
                       **good)["ok"]
    # a defining set missing one element is not rebuilt by the split,
    # and its rows no longer hold H1 and H2: no cross rank is taken
    short = DefiningSet(Z.modulus, Z.r, Z.elements - {max(Z.elements)})
    short_code = constacyclic_code(5, short)
    short_gram = gram_matrix(short_code.H, 5, f)
    extra = _consta_intersection(5, 3, 2, 2, short_code, short_gram)
    assert extra["split_ok"] is False
    assert extra["cross_rank"] is None and extra["cross_rank_ok"] is False
    entry = _rank_entry("consta", 5, 8, 3, {}, short,
                        kernels.rank(short_gram, f), 3, **extra)
    assert entry["ok"] is False and entry["split_ok"] is False


@pytest.mark.parametrize("lemma, q, t, family, c", [
    ("rank1", 2, None, "i", 1), ("rank1-minus", 3, None, "iii", 1),
    ("rank-ers", 3, None, "ii", 1), ("nega", 3, None, "iv", 2),
    ("consta", 5, 3, "v", 3),
])
def test_sweep_expects_the_family_ebit_count(lemma, q, t, family, c):
    """Each sweep compares against eaqecc.expected_c of its family: with
    that count moved off by one, every entry fails."""
    calls = []

    def shifted(fam, tt=None):
        calls.append((fam, tt))
        return c + 1

    with mock.patch.object(verify, "expected_c", shifted):
        rep = run_lemma_sweep(lemma, [q], [t] if t else None)
    assert rep.entries and len(rep.failures) == len(rep.entries)
    assert not rep.ok
    assert {e["expected"] for e in rep.entries} == {c + 1}
    assert set(calls) == {(family, t)}


def test_run_lemma_sweep_errors():
    with pytest.raises(ValueError):
        run_lemma_sweep("rank9", [2])
    # an explicit empty t list would sweep nothing and report ok
    with pytest.raises(ValueError, match="consta sweep needs t values"):
        run_lemma_sweep("consta", [5], [])


def test_run_lemma_sweep_defaults_to_the_lemma_grids():
    """None takes the lemma's row of LEMMAS: its q grid, and for consta
    its t grid; an explicit list replaces only its own grid."""
    for lemma, (_, _, qs, ts) in verify.LEMMAS.items():
        with mock.patch.object(verify, "_sweep_family") as sweep:
            run_lemma_sweep(lemma)
        assert {c.args[2] for c in sweep.call_args_list} == set(qs)
        assert {c.kwargs["t"] for c in sweep.call_args_list} == \
            set(ts or [None])
    rep = run_lemma_sweep("consta", [5])
    assert [e["params"]["t"] for e in rep.entries] == [3]
    assert run_lemma_sweep("consta", [5], [5]).entries == []


def test_sweep_report_serialization_is_deterministic():
    a = run_lemma_sweep("rank-ers", [3, 4])
    b = run_lemma_sweep("rank-ers", [3, 4])
    assert json.dumps(a.to_dict()) == json.dumps(b.to_dict())
    assert "rank-ers" in a.to_text()


@pytest.mark.parametrize("lemma, q, t, pick, expected", [
    ("rank-ers", 3, None, 0,
     {"lemma": "rank-ers", "q": 3, "n": 9, "r": None, "params": {"r": 3},
      "size_Z": None, "expected": 1, "computed": 1, "ok": True}),
    ("rank1-minus", 3, None, -1,
     {"lemma": "rank1-minus", "q": 3, "n": 8, "r": 1,
      "params": {"delta": 1, "odd": True}, "size_Z": 2, "expected": 1,
      "computed": 1, "ok": True}),
    ("consta", 5, 3, 0,
     {"lemma": "consta", "q": 5, "n": 8, "r": 3,
      "params": {"t": 3, "delta1": 2, "delta2": 2}, "size_Z": 5,
      "expected": 3, "computed": 3, "ok": True, "split_ok": True,
      "intersection": 1, "intersection_ok": True, "cross_rank": 1,
      "cross_rank_ok": True}),
])
def test_sweep_entry_schema(lemma, q, t, pick, expected):
    """Exact entries, key order included, since `verify` prints them."""
    entry = run_lemma_sweep(lemma, [q], [t] if t else None).entries[pick]
    assert list(entry.items()) == list(expected.items())


def test_budget_validation():
    for budget in (0, -1):
        with pytest.raises(ValueError):
            certify_distance(rs_8_5_4(), max_codewords=budget)


def test_empty_code_is_design_only(gf9):
    """A code with k = 0 has no nonzero codeword, so no distance to
    enumerate: it is design-only, and no message is enumerated."""
    code = ClassicalCode(n=4, k=0, d_design=5,
                         H=np.eye(4, dtype=np.int64), q=3, field=gf9)
    assert _routes(code) == (
        {"method": "design-only", "is_mds": None, "d": None}, 0)
