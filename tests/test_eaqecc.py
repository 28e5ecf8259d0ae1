import numpy as np
import pytest

from eaqmds import kernels
from eaqmds.codes import constacyclic_code
from eaqmds.cosets import (
    DefiningSet,
    defining_set,
    parameter_ranges,
)
from eaqmds.eaqecc import (
    build_classical,
    closed_form_k,
    derive_eaqecc,
    ea_singleton_check,
    enumerate_family,
    expected_c,
    gram_matrix,
    instances,
)
from reference import cyclotomic_coset


def test_ebit_count_dual_containing_is_zero():
    z1 = cyclotomic_coset(1, 17, 16) | cyclotomic_coset(2, 17, 16)
    code = constacyclic_code(4, DefiningSet(17, 1, z1))
    f = code.field
    assert kernels.rank(gram_matrix(code.H, 4, f), f) == 0
    empty = np.zeros((0, 17), dtype=np.int64)
    assert kernels.rank(gram_matrix(empty, 4, f), f) == 0


def test_ebit_count_one_for_small_cyclic():
    code = constacyclic_code(2, defining_set("i", 2, delta=1))
    assert kernels.rank(gram_matrix(code.H, 2, code.field), code.field) == 1


def test_ebit_count_t_for_constacyclic():
    code = constacyclic_code(11, defining_set("v", 11, t=3, delta1=4,
                                              delta2=4))
    assert kernels.rank(gram_matrix(code.H, 11, code.field), code.field) == 3


def _ebits(code):
    """c = rank(H H^dagger) of one code, from its own Gram matrix."""
    return kernels.rank(gram_matrix(code.H, code.q, code.field), code.field)


def test_derive_17_8_6():
    code = build_classical("i", 4, 6)
    params = derive_eaqecc(code, _ebits(code))
    assert params.label() == "[[17,8,6;1]]_4"
    assert params.saturates_ea_singleton


def test_derive_24_17_5():
    code = build_classical("iii", 5, 5)
    assert (code.n, code.k) == (24, 20)   # |Z| = 4, asymmetric set
    params = derive_eaqecc(code, _ebits(code))
    assert params.label() == "[[24,17,5;1]]_5"


def test_derive_dual_containing_reduces_to_stabilizer():
    z1 = cyclotomic_coset(1, 17, 16) | cyclotomic_coset(2, 17, 16)
    code = constacyclic_code(4, DefiningSet(17, 1, z1))
    params = derive_eaqecc(code, _ebits(code))
    assert params.c == 0
    assert params.k == 2 * code.k - code.n  # [[n, 2k-n, d; 0]]
    assert not params.saturates_ea_singleton


def test_ea_singleton_check():
    assert ea_singleton_check(q=4, n=17, k=8, d=6, c=1)
    assert ea_singleton_check(q=3, n=5, k=5, d=1, c=0)  # trivial
    assert ea_singleton_check(q=5, n=12, k=6, d=5, c=2)
    assert not ea_singleton_check(q=4, n=17, k=9, d=3, c=0)  # loose
    with pytest.raises(ValueError):
        ea_singleton_check(q=2, n=5, k=6, d=2, c=0)


PUBLISHED_EXAMPLES = {
    ("i", 4, None): ["[[17,16,2;1]]_4", "[[17,12,4;1]]_4",
                     "[[17,8,6;1]]_4", "[[17,4,8;1]]_4"],
    ("ii", 5, None): ["[[25,16,6;1]]_5", "[[25,14,7;1]]_5",
                      "[[25,12,8;1]]_5", "[[25,10,9;1]]_5"],
    ("iv", 5, None): ["[[12,6,5;2]]_5", "[[12,4,6;2]]_5", "[[12,2,7;2]]_5"],
    ("v", 11, 3): ["[[40,25,10;3]]_11", "[[40,23,11;3]]_11",
                   "[[40,21,12;3]]_11", "[[40,19,13;3]]_11",
                   "[[40,17,14;3]]_11"],
}


@pytest.mark.parametrize("key", sorted(PUBLISHED_EXAMPLES, key=str))
def test_enumerate_family_golden(key):
    family, q, t = key
    labels = [p.label() for p in enumerate_family(family, q, t)]
    assert labels == PUBLISHED_EXAMPLES[key]


def test_enumerate_family_iii_contains_published_codes():
    labels = [p.label() for p in enumerate_family("iii", 5)]
    for want in ["[[24,17,5;1]]_5", "[[24,15,6;1]]_5",
                 "[[24,13,7;1]]_5", "[[24,11,8;1]]_5"]:
        assert want in labels


def test_enumerate_admissibility_errors():
    with pytest.raises(ValueError):
        enumerate_family("v", 7, 3)    # 3 does not divide 8
    with pytest.raises(ValueError):
        enumerate_family("iv", 4)      # even q
    with pytest.raises(ValueError):
        enumerate_family("v", 11, None)
    with pytest.raises(ValueError):
        enumerate_family("i", 6)       # not a prime power


def test_enumerate_general_divisor_length():
    # the n | q^2+1 theorem admits any divisor, e.g. n = 10 for q = 3
    labels = [p.label() for p in enumerate_family("i", 3, n=10)]
    assert labels == ["[[10,9,2;1]]_3", "[[10,5,4;1]]_3", "[[10,1,6;1]]_3"]


@pytest.mark.parametrize("family,q,t", [
    ("i", 2, None), ("i", 3, None), ("i", 4, None), ("i", 5, None),
    ("ii", 2, None), ("ii", 3, None), ("ii", 4, None), ("ii", 5, None),
    ("iii", 3, None), ("iii", 4, None), ("iii", 5, None),
    ("iv", 3, None), ("iv", 5, None), ("iv", 7, None),
    ("v", 5, 3), ("v", 9, 5),
])
def test_family_invariants(family, q, t):
    """Closed form, saturation and defining-set consumption across a grid."""
    params = enumerate_family(family, q, t)
    # every admissible distance except those whose closed form gives k = 0
    assert [p.d for p in params] == [d for d in instances(family, q, t)
                                     if closed_form_k(family, q, d, t) >= 1]
    for p in params:
        assert ea_singleton_check(p.q, p.n, p.k, p.d, p.c)
        assert p.n + p.c - p.k == 2 * (p.d - 1)
        assert p.k == closed_form_k(family, q, p.d, t)
        assert p.c == expected_c(family, t)
        n_cl, k_cl, d_cl = p.classical
        assert d_cl == p.d
        if p.defining_set is not None:
            assert len(p.defining_set) == n_cl - k_cl
            assert p.d == len(p.defining_set) + 1


def _range_instances():
    """(family, q, n, t, odd) over q <= 16 and q = 19: every n | q^2+1 and
    n | q^2-1 with both parities for family iii, family iv, and family v
    for t in {3, 5, 7}."""
    for q in (2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 19):
        for n in range(2, q * q + 2):
            if (q * q + 1) % n == 0:
                yield "i", q, n, None, False
            if (q * q - 1) % n == 0:
                yield "iii", q, n, None, False
                yield "iii", q, n, None, True
        if q % 2:
            yield "iv", q, None, None, False
            for t in (3, 5, 7):
                if (q + 1) % t == 0:
                    yield "v", q, None, t, False


def test_canonical_deltas_cover_ranges():
    """Each admissible distance, in ascending order, maps to parameters
    inside parameter_ranges that realize it, with the largest admissible
    delta2 for families iv and v and r = d - 1 parity rows for family ii;
    defining_set, and build_classical for r, reject the value one below
    and one above each range, or name an empty range."""
    for family, q, n, t, odd in _range_instances():
        ranges = parameter_ranges(family, q, n, t, odd)[1]
        by_d = instances(family, q, t, n)
        assert list(by_d) == sorted(by_d)
        for d, kw in by_d.items():
            kw = dict(kw)
            if kw.pop("odd", False) != odd:
                continue
            assert kw.keys() == ranges.keys()
            assert all(kw[name] in span for name, span in ranges.items())
            Z = defining_set(family, q, n=n, t=t, odd=odd, **kw)
            assert len(Z) + 1 == d
            if family in ("iv", "v"):
                assert kw["delta2"] == max(
                    d2 for d1 in ranges["delta1"] for d2 in ranges["delta2"]
                    if d1 + d2 + 2 == d)
        inside = {name: span.start for name, span in ranges.items()}
        for name, span in ranges.items():
            message = "outside" if span else f"admits no {name} at q={q}"
            for bad in (span.start - 1, span.stop):
                with pytest.raises(ValueError, match=message):
                    defining_set(family, q, n=n, t=t, odd=odd,
                                 **{**inside, name: bad})
    for q in (2, 3, 4, 5, 7, 8, 9):
        by_d = instances("ii", q)
        span = parameter_ranges("ii", q)[1]["r"]
        assert list(by_d) == sorted(by_d)
        assert [kw["r"] for kw in by_d.values()] == list(span)
        for d, kw in by_d.items():
            assert kw == {"r": d - 1}
            code = build_classical("ii", q, d)
            assert (code.n, code.k) == (q * q, q * q - kw["r"])
            assert code.family == "ii"
        # an explicit r is checked like the defining-set parameters
        for bad in (1, span.start - 1, span.stop):
            with pytest.raises(ValueError, match=(
                    rf"r={bad} outside \[{span.start}, {span.stop - 1}\]")):
                build_classical("ii", q, None, r=bad)


@pytest.mark.parametrize("family, q, params, message", [
    ("iii", 3, {"delta": 1, "r": 2}, "family iii takes delta, not r"),
    ("iv", 5, {"delta1": 1, "delta2": 3, "r": 4},
     "family iv takes delta1 and delta2, not r"),
    ("ii", 3, {"r": 4, "delta": 1}, "family ii takes r, not delta"),
])
def test_build_classical_rejects_parameters_the_family_does_not_take(
        family, q, params, message):
    with pytest.raises(ValueError, match=message):
        build_classical(family, q, None, **params)


def test_derive_k_negative_is_error():
    code = build_classical("ii", 3, 5)
    code2 = type(code)(n=code.n, k=1, d_design=1, H=code.H, q=3,
                       field=code.field)
    with pytest.raises(ValueError):
        derive_eaqecc(code2, _ebits(code2))


def test_record_schema():
    rec = enumerate_family("iv", 5)[0].to_record()
    assert rec["family"] == "iv" and rec["q"] == 5
    assert rec["classical"] == {"n": 12, "k": 8, "d": 5}
    assert rec["saturated"] is True
    assert rec["defining_set"] == [1, 3, 5, 23]
    assert rec["field"]["order"] == 25
