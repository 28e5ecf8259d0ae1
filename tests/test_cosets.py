import itertools
import re
import signal
import time
from contextlib import contextmanager

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eaqmds.cli import parse_q
from eaqmds.codes import constacyclic_code
from eaqmds.cosets import (
    FAMILIES,
    DefiningSet,
    group,
    groups,
    hull,
    omega_run,
)
from eaqmds.eaqecc import build_classical
from eaqmds.verify import is_hermitian_dual_containing
from reference import (
    cyclotomic_coset,
    divisors,
    ref_defining_set,
    ref_expected_c,
    ref_hull,
    ref_in_run_order,
    ref_instances,
    ref_omega_run,
    ref_parameter_ranges,
    ref_run,
)


def coset_partition_check(modulus, qsq):
    """Cosets partition {0..modulus-1}; when modulus | q^2+1 they must be
    C_0, paired C_i = {i, n-i}, and a singleton midpoint for even modulus."""
    seen = set()
    cosets = []
    for i in range(modulus):
        if i in seen:
            continue
        c = cyclotomic_coset(i, modulus, qsq)
        if c & seen:
            return False
        seen |= c
        cosets.append(c)
    if seen != set(range(modulus)):
        return False
    if (qsq + 1) % modulus == 0 and modulus > 1:
        for c in cosets:
            i = min(c)
            if i == 0 or 2 * i == modulus:
                expected = {i}
            else:
                expected = {i, modulus - i}
            if c != frozenset(expected):
                return False
    return True


def test_cyclotomic_coset_examples():
    assert cyclotomic_coset(0, 17, 16) == frozenset({0})
    assert cyclotomic_coset(1, 17, 16) == frozenset({1, 16})   # {i, n-i}
    # modulo 2n with n = (q^2-1)/2, odd cosets are singletons (q = 5)
    for j in range(1, 13):
        assert cyclotomic_coset(2 * j - 1, 24, 25) == \
            frozenset({(2 * j - 1) % 24})


@contextmanager
def deadline(seconds):
    """Raise TimeoutError in the body once `seconds` have passed, so that
    a loop that never ends fails its test instead of hanging the suite.
    The suite's own ITIMER_REAL limit (conftest) is set aside for the
    body and re-armed on exit with what is left of it."""
    def expire(signum, frame):
        raise TimeoutError(f"no result within {seconds} s")

    outer, _ = signal.getitimer(signal.ITIMER_REAL)
    start = time.monotonic()
    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
        if outer:
            # an outer limit that ran out meanwhile fires at once
            left = outer - (time.monotonic() - start)
            signal.setitimer(signal.ITIMER_REAL, max(left, 1e-3))


def test_deadline_leaves_the_suite_time_limit_armed():
    outer, _ = signal.getitimer(signal.ITIMER_REAL)
    handler = signal.getsignal(signal.SIGALRM)
    assert outer > 0  # armed for every test by conftest
    with deadline(5):
        pass
    left, _ = signal.getitimer(signal.ITIMER_REAL)
    assert 0 < left <= outer
    assert signal.getsignal(signal.SIGALRM) is handler


@pytest.mark.parametrize("i, modulus, qsq", [(1, 4, 4), (2, 6, 9)])
def test_cyclotomic_coset_needs_q_squared_coprime_to_modulus(i, modulus, qsq):
    # the orbit of 1 modulo 4 under x4 is 1 -> 0 -> 0 ...: it never
    # returns, so without the coprimality check the call never ends
    with deadline(5), pytest.raises(ValueError,
                                    match="not positive and coprime"):
        cyclotomic_coset(i, modulus, qsq)


def _recipe(family, q, t, delta=None, delta1=None, delta2=None, odd=False):
    """Representatives of the cosets whose union is Z, as the
    construction states them."""
    if family == "i":
        return range(delta + 1)                     # C_0 u ... u C_delta
    if family == "iii":
        return range(-delta, delta if odd else delta + 1)
    if family == "iv":
        return [2 * j - 1 for j in range(-delta1, delta2 + 1)]
    anchor = (t - 1) * (q - 1) // 2
    return [anchor + t * j for j in range(-delta1, delta2 + 1)]


def _constacyclic_groups(q, ts=None):
    """The group of each constacyclic family (all but family ii) at q and
    each length: every t of ts, by default every odd t >= 3 dividing
    q+1, for family v."""
    for family in FAMILIES:
        ts_v = [t for t in divisors(q + 1) if t >= 3 and t % 2]
        for t in (ts_v if ts is None else ts) if family == "v" else [None]:
            yield from (row for row in groups(family, q, t)
                        if not row.point0)


def test_closed_form_equals_coset_orbit_union():
    """Every admissible defining set at prime powers q < 66 is the union
    of the q^2-cyclotomic cosets of its recipe, walked as orbits, and
    its modulus divides q^2 - 1, or q^2 + 1 for family i."""
    count = 0
    for q in parse_q("2..65"):
        qsq = q * q
        orbits = {}
        for row in _constacyclic_groups(q):
            for kw in row.grid():
                Z = row.run(*row.window(kw))
                m = Z.modulus
                assert (qsq - 1) % m == 0 or (
                    row.family == "i" and (qsq + 1) % m == 0)
                union = set()
                for i in _recipe(row.family, q, row.t, **kw):
                    key = (i % m, m)
                    if key not in orbits:
                        orbits[key] = cyclotomic_coset(i, m, qsq)
                    union |= orbits[key]
                assert Z.elements == union, (row, kw)
                count += 1
    assert count == 11955


def _reference_cases():
    """(family, q, t, n) at every prime power q <= 32: every n >= 2
    dividing q^2+1 (family i) or q^2-1 (family iii), and every t in
    {3, 5, 7, 9, 11} for family v, admissible or not."""
    for q in parse_q("2..32"):
        for family in FAMILIES:
            sign = {"i": 1, "iii": -1}.get(family)
            for t in (3, 5, 7, 9, 11) if family == "v" else [None]:
                for n in [n for n in divisors(q * q + sign) if n >= 2] \
                        if sign else [None]:
                    yield family, q, t, n


def _reference_set(family, q, t, n, kw):
    """The reference's defining set of one parameter set; for family ii,
    the run 0..r-1 of the cyclic RS code modulo q^2-1 that its extended
    RS code extends."""
    if family == "ii":
        return omega_run(q * q - 1, 1, 0, kw["r"] - 1)
    return ref_defining_set(family, q, n=n, t=t, **kw)


def test_family_table_matches_the_reference():
    """Each row of the family table against the closed forms of the
    reference, case by case: the error for no group, else the length, c
    and t, the parameter grid in sweep order (each range's product, and
    for family iii the even-d sets, then the odd-d ones), the window of
    each of its sets, and the distances with the window of each, which
    the checked route gives too."""
    cases = refused = 0
    for family, q, t, n in _reference_cases():
        try:
            length = ref_parameter_ranges(family, q, n, t)[0]
        except ValueError as e:
            with pytest.raises(ValueError, match=f"^{re.escape(str(e))}$"):
                group(family, q, t, n)
            refused += 1
            continue
        row = group(family, q, t, n)
        assert (row.n, row.c) == (length, ref_expected_c(family, t))
        assert row.t == (t if family == "v" else None)
        grid = []
        for odd in (False, True) if family == "iii" else (False,):
            ranges = ref_parameter_ranges(family, q, n, t, odd)[1]
            flag = {"odd": odd} if family == "iii" else {}
            grid += [{**dict(zip(ranges, values)), **flag}
                     for values in itertools.product(*ranges.values())]
        assert row.grid() == grid, (family, q, t, n)
        for kw in grid:
            assert row.run(*row.window(kw)) == _reference_set(
                family, q, t, n, kw), (family, q, t, n, kw)
        windows = row.instances()
        reference = ref_instances(family, q, t, n)
        assert list(windows) == list(reference)
        for d, kw in reference.items():
            assert row.run(*windows[d]) == _reference_set(family, q, t, n,
                                                          kw)
            assert row.check(**kw) == windows[d]
        cases += 1
    assert (cases, refused) == (346, 84)


def _Z(family, q, t=None, n=None, **kw):
    """The defining set of one instance from explicit parameters."""
    row = group(family, q, t, n)
    return row.run(*row.check(**kw))


def test_defining_set_family_i():
    Z = _Z("i", 4, delta=2)
    assert Z.modulus == 17 and Z.r == 1
    assert Z.sorted() == [0, 1, 2, 15, 16]
    assert all((z * 16) % 17 in Z.elements for z in Z.elements)  # coset union


def test_defining_set_family_iii():
    Z = _Z("iii", 5, delta=1)
    assert Z.modulus == 24
    assert Z.sorted() == [0, 1, 23]
    # asymmetric variant for odd distances
    Zo = _Z("iii", 5, delta=2, odd=True)
    assert Zo.sorted() == [0, 1, 22, 23]


def test_defining_set_family_iv():
    Z = _Z("iv", 5, delta1=1, delta2=3)
    assert Z.modulus == 24 and Z.r == 2
    assert Z.sorted() == [1, 3, 5, 21, 23]   # odd residues -3..5 mod 24
    assert all(z % 2 == 1 for z in Z.elements)


def test_defining_set_family_v():
    Z = _Z("v", 11, t=3, delta1=4, delta2=4)
    assert Z.modulus == 120 and Z.r == 3
    anchor = (3 - 1) // 2 * (11 - 1)
    assert anchor in Z.elements
    assert len(Z) == 9
    assert all(z % 3 == 1 for z in Z.elements)


def test_defining_set_range_errors():
    with pytest.raises(ValueError):
        _Z("i", 4, delta=5)          # above n // (q+1)
    with pytest.raises(ValueError):
        _Z("i", 4, delta=1, n=5)     # 5 does not divide 17
    with pytest.raises(ValueError):
        _Z("iii", 5, delta=0, odd=True)
    with pytest.raises(ValueError):
        _Z("iv", 4, delta1=0, delta2=2)   # even q
    with pytest.raises(ValueError):
        _Z("v", 11, t=4, delta1=4, delta2=4)  # even t
    with pytest.raises(ValueError):
        _Z("v", 11, t=5, delta1=4, delta2=4)  # 5 does not divide 12
    with pytest.raises(ValueError, match="no defining set"):
        _Z("ii", 4, delta=1)  # extended RS has no defining set


@pytest.mark.parametrize("family, q, params", [
    ("i", 5, {"delta": 1}),
    ("ii", 5, {"r": 5}),
    ("iv", 5, {"delta1": 1, "delta2": 3}),
    ("v", 5, {"t": 3, "delta1": 2, "delta2": 2}),
])
def test_only_family_iii_takes_odd(family, q, params):
    """odd picks family iii's odd-d windows; any other family refuses it
    as a parameter it does not take, where it was once ignored."""
    takes = " and ".join(name for name in params if name != "t")
    with pytest.raises(ValueError, match=f"^family {family} takes {takes}, "
                                         "not odd$"):
        build_classical(family, q, None, odd=True, **params)
    assert build_classical("iii", q, None, odd=True, delta=1).d_design == 3


def test_omega_membership_enforced():
    """A run's elements lie in Omega by construction; its four integers
    are checked."""
    assert DefiningSet(24, 2, 11, 2).sorted() == [1, 23]
    for bad in [(24, 5, 0, 1),      # r does not divide the modulus
                (24, 2, 0, 13),     # more indices than n = 12
                (24, 2, 0, -1),
                (24, 2, 12, 1),     # start outside [0, n)
                (24, 2, -1, 1),
                (24, 2, 3, 0),      # the empty and the full set start at 0
                (24, 2, 3, 12)]:
        with pytest.raises(ValueError):
            DefiningSet(*bad)


def test_hermitian_dual_containing():
    assert is_hermitian_dual_containing(frozenset(), 17, 4)
    z1 = cyclotomic_coset(1, 17, 16) | cyclotomic_coset(2, 17, 16)
    assert is_hermitian_dual_containing(z1, 17, 4)
    # adding C_0 breaks it: -q*0 = 0 stays in Z
    assert not is_hermitian_dual_containing(z1 | {0}, 17, 4)


def test_bch_design_distance():
    """d_design = |Z| + 1, the BCH bound of one run; 1 for no root."""
    assert constacyclic_code(4, omega_run(17, 1, 0, 0)).d_design == 2
    assert constacyclic_code(4, _Z("i", 4, delta=2)).d_design == 6
    assert constacyclic_code(
        5, _Z("iv", 5, delta1=1, delta2=3)).d_design == 6
    assert constacyclic_code(4, omega_run(17, 1, 0, -1)).d_design == 1


def test_bch_distance_wraps_around():
    # run 22, 23, 0, 1 wraps through zero
    Z = omega_run(24, 1, -2, 1)
    assert Z.sorted() == [0, 1, 22, 23] and Z.in_run_order() == [22, 23, 0, 1]
    assert constacyclic_code(5, Z).d_design == 5
    # full circle
    assert constacyclic_code(7, omega_run(6, 1, 0, 5)).d_design == 7


def test_design_distance_is_size_plus_one_for_families():
    cases = [
        (4, _Z("i", 4, delta=2)),
        (5, _Z("iii", 5, delta=3)),
        (5, _Z("iii", 5, delta=3, odd=True)),
        (5, _Z("iv", 5, delta1=1, delta2=3)),
        (11, _Z("v", 11, t=3, delta1=4, delta2=6)),
    ]
    for q, Z in cases:
        assert constacyclic_code(q, Z).d_design == len(Z) + 1


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 12).flatmap(lambda n: st.tuples(
    st.just(n), st.sampled_from([1, 2, 3]),
    st.lists(st.tuples(st.integers(-n, 2 * n), st.integers(0, n + 1)),
             min_size=1, max_size=3))))
@example(case=(5, 1, [(3, 4), (4, 1)]))            # wrapped, part inside
@example(case=(5, 2, [(2, 0), (7, 0)]))            # empty
@example(case=(5, 3, [(2, 5), (4, 2), (-1, 6)]))   # full
@example(case=(12, 1, [(0, 2), (5, 2)]))           # a gap: no hull
def test_run_arithmetic_matches_the_reference(case):
    """Runs from omega_run, wrapped, empty and full ones included, against
    the element-wise reference: their elements, both orders, the run the
    elements are, the offset of the last run in the first and the hull of
    them all."""
    n, r, windows = case
    runs = [omega_run(n, r, lo, lo + size - 1) for lo, size in windows]
    for (lo, size), Z in zip(windows, runs):
        elements = ref_omega_run(n, r, lo, lo + size - 1)
        assert Z.elements == elements and len(Z) == len(elements)
        assert Z == ref_run(r * n, r, elements)
        assert Z.sorted() == sorted(elements)
        assert Z.in_run_order() == ref_in_run_order(Z, elements)
    Z, part = runs[0], runs[-1]
    if part.elements <= Z.elements:
        offset = Z.offset(part)
        assert not part.size or offset == (part.start - Z.start) % n
    else:
        with pytest.raises(ValueError, match="outside the defining set"):
            Z.offset(part)
    try:
        expected = ref_hull(runs)
    except ValueError:
        with pytest.raises(ValueError, match="not one run"):
            hull(runs)
    else:
        assert hull(runs) == expected


def test_coset_partition_check():
    assert coset_partition_check(17, 16)
    reps = set()
    for i in range(17):
        reps.add(min(cyclotomic_coset(i, 17, 16)))
    assert len(reps) == 9  # C_0 plus eight pairs
    # 24 | 25-1, all singletons
    assert coset_partition_check(24, 25)
    assert all(len(cyclotomic_coset(i, 24, 25)) == 1 for i in range(24))
    # 10 does not divide 81+1: shape clause skipped, partition still true
    assert coset_partition_check(10, 81)


def test_coset_shape_for_even_modulus():
    # n = 10 | q^2+1 for q = 3: C_0, singleton midpoint C_5, pairs
    assert coset_partition_check(10, 9)
    assert cyclotomic_coset(5, 10, 9) == frozenset({5})
    assert cyclotomic_coset(3, 10, 9) == frozenset({3, 7})


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_coset_lemma_across_sweep(q):
    """Every n | q^2+1 shows the C_0 / pairs / midpoint structure."""
    qsq = q * q
    for n in range(2, qsq + 2):
        if (qsq + 1) % n:
            continue
        assert coset_partition_check(n, qsq)
        s = n // 2
        for i in range(1, (n - 1) // 2 + 1):
            assert cyclotomic_coset(i, n, qsq) == \
                frozenset({i, n - i})
        if n % 2 == 0:
            assert cyclotomic_coset(s, n, qsq) == frozenset({s})

