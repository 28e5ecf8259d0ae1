"""Acceptance suite: one test per criterion, each printing a status line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines; any assertion failure marks the criterion red.
"""

import itertools
import random
import time
from unittest import mock

import pytest

from eaqmds import galois
from eaqmds.cli import table_rows
from eaqmds.codes import constacyclic_code
from eaqmds.cosets import FAMILIES, group
from eaqmds.eaqecc import build_classical, enumerate_family
from eaqmds.galois import FieldContext, build_field
from eaqmds.verify import (
    LEMMAS,
    certify_distance,
    dual_containment_matrix_oracle,
    is_hermitian_dual_containing,
    run_lemma_sweep,
)
from reference import (
    cyclotomic_coset,
    ref_cross_rank,
    ref_defining_set,
    ref_parity_check,
    ref_run,
)


def _labels(family, q, t=None):
    return [p.label() for p in enumerate_family(family, q, t)]


PUBLISHED_EXAMPLES = [
    # instance id, family, q, t, required labels (subset, in order)
    ("family i, q=4", "i", 4, None, ["[[17,8,6;1]]_4", "[[17,4,8;1]]_4"]),
    ("family iii, q=5", "iii", 5, None,
     ["[[24,17,5;1]]_5", "[[24,15,6;1]]_5",
      "[[24,13,7;1]]_5", "[[24,11,8;1]]_5"]),
    ("family ii, q=5", "ii", 5, None,
     ["[[25,16,6;1]]_5", "[[25,14,7;1]]_5",
      "[[25,12,8;1]]_5", "[[25,10,9;1]]_5"]),
    ("family iv, q=5", "iv", 5, None,
     ["[[12,6,5;2]]_5", "[[12,4,6;2]]_5", "[[12,2,7;2]]_5"]),
    ("family v, q=11, t=3", "v", 11, 3,
     ["[[40,25,10;3]]_11", "[[40,23,11;3]]_11", "[[40,21,12;3]]_11",
      "[[40,19,13;3]]_11", "[[40,17,14;3]]_11"]),
    ("family v, q=19, t=5", "v", 19, 5,
     ["[[72,43,18;5]]_19", "[[72,41,19;5]]_19", "[[72,39,20;5]]_19",
      "[[72,37,21;5]]_19", "[[72,35,22;5]]_19"]),
    ("family v, q=27, t=7", "v", 27, 7,
     ["[[104,61,26;7]]_27", "[[104,59,27;7]]_27", "[[104,57,28;7]]_27",
      "[[104,55,29;7]]_27", "[[104,53,30;7]]_27"]),
]


def test_criterion_1_published_examples():
    """Each published example set reproduced by construction + rank,
    < 1 s each."""
    for name, family, q, t, wanted in PUBLISHED_EXAMPLES:
        t0 = time.perf_counter()
        labels = _labels(family, q, t)
        elapsed = time.perf_counter() - t0
        positions = [labels.index(w) for w in wanted]
        assert positions == sorted(positions)
        assert elapsed < 1.0, f"{name} took {elapsed:.2f}s"
        print(f"ACCEPTANCE 1 PASS {name}: {', '.join(wanted)} "
              f"({elapsed * 1000:.0f} ms)")


def test_criterion_2_rank_lemma_sweeps():
    """All five rank-lemma sweeps exact, total runtime < 5 min."""
    t0 = time.perf_counter()
    total = 0
    for lemma in LEMMAS:
        rep = run_lemma_sweep(lemma)
        assert rep.ok, rep.to_text()
        total += len(rep.entries)
        print(f"ACCEPTANCE 2 PASS sweep {lemma}: {len(rep.entries)} "
              f"instances, 0 failures")
    # reduced-coverage check at q = 27, t = 7 (largest constacyclic field)
    rep = run_lemma_sweep("consta", [27], [7])
    assert rep.ok and len(rep.entries) == 9
    total += len(rep.entries)
    elapsed = time.perf_counter() - t0
    assert elapsed < 300, f"sweeps took {elapsed:.1f}s"
    print(f"ACCEPTANCE 2 PASS total {total} instances in {elapsed:.1f}s")


def _family_subset_cases():
    """The Z_1/Z_2 sub-sets the lemma proofs split defining sets into,
    plus the full sets, as (q, modulus, r, elements); family i's Z_1 =
    C_1 u ... u C_delta has a gap at 0."""
    cases = []

    def family(q, Z):
        cases.append((q, Z.modulus, Z.r, Z.elements))

    for q in (2, 3, 4, 5):
        n = q * q + 1
        qsq = q * q
        for delta in range(1, n // (q + 1) + 1):
            z1 = frozenset().union(
                *[cyclotomic_coset(i, n, qsq)
                  for i in range(1, delta + 1)])
            cases.append((q, n, 1, z1))
            family(q, ref_defining_set("i", q, delta=delta))
    for q in (3, 4, 5, 7):
        n = q * q - 1
        dmax = n // (q + 1) - 1
        for delta in range(1, dmax + 1):
            z1 = frozenset(range(n - delta, n))
            z2 = frozenset(range(1, delta + 1))
            cases.append((q, n, 1, z1))
            cases.append((q, n, 1, z2))
            family(q, ref_defining_set("iii", q, delta=delta))
            family(q, ref_defining_set("iii", q, delta=delta, odd=True))
    for q in (3, 5, 7):
        n = (q * q - 1) // 2
        for d1 in range((q - 1) // 2):
            for d2 in range((q + 1) // 2, q):
                z1 = frozenset((-2 * j - 1) % (2 * n)
                               for j in range(1, d1 + 1))
                z2 = frozenset((2 * j - 1) % (2 * n)
                               for j in range(1, d2 + 1))
                if z1:
                    cases.append((q, 2 * n, 2, z1))
                cases.append((q, 2 * n, 2, z2))
                family(q, ref_defining_set("iv", q, delta1=d1, delta2=d2))
    for q, t in ((5, 3), (9, 5), (11, 3)):
        n = (q * q - 1) // t
        e0 = ((t - 1) * (q - 1) - 2) // (2 * t)
        lo = (t - 1) * (q + 1) // (2 * t)
        hi = (t + 1) * (q + 1) // (2 * t) - 2
        for d1, d2 in itertools.product(range(lo, hi + 1), repeat=2):
            z1 = frozenset((1 + t * (e0 - j)) % (t * n)
                           for j in range(1, d1 + 1))
            z2 = frozenset((1 + t * (e0 + j)) % (t * n)
                           for j in range(1, d2 + 1))
            cases.append((q, t * n, t, z1))
            cases.append((q, t * n, t, z2))
            family(q, ref_defining_set("v", q, t=t, delta1=d1, delta2=d2))
    return cases


def _random_coset_union_cases(count):
    """`count` random unions of q^2-cyclotomic cosets, most of them not
    one run, as (q, modulus, r, elements)."""
    rng = random.Random(20160423)
    # r | q+1 throughout: the coset criterion presumes the Hermitian dual
    # stays lambda-constacyclic, which needs lambda^{q+1} = 1
    configs = [(3, 10, 1), (4, 17, 1), (5, 24, 1), (7, 50, 1),
               (5, 12, 2), (7, 24, 2), (5, 8, 3), (9, 16, 5), (11, 40, 3),
               (13, 24, 7)]
    cases = []
    while len(cases) < count:
        q, n, r = rng.choice(configs)
        qsq = q * q
        omega = [1 + r * i for i in range(n)] if r > 1 else list(range(n))
        picks = rng.sample(omega, rng.randint(1, max(1, n // 2)))
        elems = frozenset().union(
            *[cyclotomic_coset(z, r * n, qsq) for z in picks])
        cases.append((q, r * n, r, elems))
    return cases


def _parity_check(q, modulus, r, elements):
    """(H, field) of the code with exponent set `elements`: the package's
    constacyclic_code for one run, the reference builder for a set with a
    gap, which the package no longer builds."""
    run = ref_run(modulus, r, elements)
    if run is None:
        return ref_parity_check(q, modulus, r, elements)
    code = constacyclic_code(q, run)
    return code.H, code.field


def test_criterion_3_dual_containment_oracle_equivalence():
    """Coset test Z & Z^{-q} = 0 agrees with H H^dagger = 0 on >= 200
    defining sets with zero disagreements."""
    cases = _family_subset_cases() + _random_coset_union_cases(130)
    assert len(cases) >= 200
    disagreements = 0
    containing = 0
    gapped = 0
    for q, modulus, r, elements in cases:
        H, field = _parity_check(q, modulus, r, elements)
        coset_route = is_hermitian_dual_containing(elements, modulus, q)
        matrix_route = dual_containment_matrix_oracle(H, q, field)
        containing += coset_route
        gapped += ref_run(modulus, r, elements) is None
        disagreements += coset_route != matrix_route
    assert disagreements == 0
    assert 0 < containing < len(cases)  # both outcomes exercised
    assert 0 < gapped < len(cases)
    print(f"ACCEPTANCE 3 PASS {len(cases)} defining sets "
          f"({containing} dual-containing, {gapped} not one run), "
          f"0 disagreements")


def test_criterion_4_distance_certification():
    """Every instance is certified MDS under the default budgets; covers
    families i-iii for q <= 4 and family iv for q in {3, 5}."""
    t0 = time.perf_counter()
    grid = [(f, q, None) for f in ("i", "ii", "iii") for q in (2, 3, 4)]
    grid += [("iv", 3, None), ("iv", 5, None)]
    checked = 0
    for family, q, t in grid:
        for d in group(family, q, t).instances():
            code = build_classical(family, q, d, t)
            if code.k == 0:
                continue
            result = certify_distance(code)
            assert result["method"] != "design-only", (family, q, d)
            assert result["is_mds"], (family, q, d, result)
            assert code.d_design == code.n - code.k + 1
            assert result["d"] == code.d_design
            checked += 1
    elapsed = time.perf_counter() - t0
    assert checked >= 20 and elapsed < 600
    print(f"ACCEPTANCE 4 PASS {checked} instances MDS-certified "
          f"in {elapsed:.1f}s")


def test_criterion_5_ea_singleton_saturation():
    """100% of emitted records meet n + c - k = 2(d-1) exactly."""
    grids = [("i", q, None) for q in (2, 3, 4, 5, 7, 8, 9)]
    grids += [("ii", q, None) for q in (2, 3, 4, 5, 7, 8)]
    grids += [("iii", q, None) for q in (3, 4, 5, 7, 8, 9)]
    grids += [("iv", q, None) for q in (3, 5, 7, 9, 11, 13)]
    grids += [("v", q, t) for q, t in
              ((5, 3), (9, 5), (11, 3), (13, 7), (19, 5), (27, 7))]
    records = 0
    for family, q, t in grids:
        for p in enumerate_family(family, q, t):
            assert p.n + p.c - p.k == 2 * (p.d - 1), p.label()
            assert p.saturates_ea_singleton
            records += 1
    print(f"ACCEPTANCE 5 PASS {records} records, all saturate EA-Singleton")


TABLE1 = {
    # family -> (EAQMDS c, EAQMDS d-range fn, QMDS d-max fn)
    "i": (1, lambda q, t: (2, 2 * q), lambda q, t: q + 1),
    "ii": (1, lambda q, t: (q + 1, 2 * q - 1), lambda q, t: q),
    "iii": (1, lambda q, t: (2, 2 * q - 2), lambda q, t: q - 1),
    "iv": (2, lambda q, t: ((q + 1) // 2 + 2, (3 * q - 1) // 2),
           lambda q, t: q),
    "v": (None, lambda q, t: ((t - 1) * (q + 1) // t + 2,
                              (t + 1) * (q + 1) // t - 2),
          lambda q, t: (t + 1) * (q + 1) // (2 * t) - 1),
}


@pytest.mark.parametrize("q,t,lengths", [
    (5, None, [26, 25, 24, 12]),
    (11, 3, [122, 121, 120, 60, 40]),
])
def test_criterion_6_table_regeneration(q, t, lengths):
    """Table rows match the published formulas and d-ranges."""
    rows = [r for _, r in table_rows(q, t)]
    assert [r["length"] for r in rows] == lengths
    for row in rows:
        fam = row["family"]
        c_exp, d_range, qmds_dmax = TABLE1[fam]
        c = c_exp if c_exp is not None else t
        n = row["length"]
        assert row["verified"]
        e = row["eaqmds"]
        assert e["c"] == c
        assert (e["d_min"], e["d_max"]) == d_range(q, t)
        assert e["k_formula"] == f"{n + c + 2}-2d"
        assert e["d_parity"] == ("even" if fam == "i" else "any")
        s = row["qmds"]
        assert s["k_formula"] == f"{n + 2}-2d"
        assert (s["d_min"], s["d_max"]) == (2, qmds_dmax(q, t))
    print(f"ACCEPTANCE 6 PASS table q={q}"
          + (f" t={t}" if t else "") + f": rows {lengths} match")


def test_criterion_7_constacyclic_intersection():
    """|Z1 & Z2^{-q}| = (t-1)/2 on every family-v sweep instance, and the
    cross rank from rows of the entry's H equals the one from H1 and H2
    built as codes of their own."""
    total = 0
    for q, t in ((5, 3), (9, 5), (11, 3), (13, 7), (19, 5), (27, 7)):
        rep = run_lemma_sweep("consta", [q], [t])
        assert rep.ok
        for e in rep.entries:
            assert e["intersection"] == (t - 1) // 2
            assert e["cross_rank"] == (t - 1) // 2
            p = e["params"]
            assert e["cross_rank"] == ref_cross_rank(
                q, t, p["delta1"], p["delta2"], e["n"])
            total += 1
    print(f"ACCEPTANCE 7 PASS intersection count (t-1)/2 on {total} "
          "family-v instances")


def test_criterion_8_representation_invariance():
    """Families i-v at q = 5 (t = 3 for family v) rebuilt over GF(25)
    under x^2 + 3 instead of the package's x^2 + 2 yield identical
    parameter records.  The alternative field stands in for GF(25) in the
    field cache while the rebuild runs, so it takes the same path."""
    alt_field = FieldContext(5, 2, (3, 0, 1))
    assert alt_field.modulus != build_field(5, 2).modulus
    total = 0
    for family in FAMILIES:
        t = 3 if family == "v" else None
        default = enumerate_family(family, 5, t)
        with mock.patch.dict(galois._FIELD_CACHE, {(5, 2): alt_field}):
            alt = enumerate_family(family, 5, t)
        base_records = [(p.n, p.k, p.d, p.c) for p in default]
        assert base_records == [(p.n, p.k, p.d, p.c) for p in alt]
        assert [p.defining_set for p in default] == \
            [p.defining_set for p in alt]
        assert all(p.field == alt_field.descriptor() for p in alt)
        total += len(base_records)
    print(f"ACCEPTANCE 8 PASS {total} records of families i-v identical "
          "under the alternative modulus")
