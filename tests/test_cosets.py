import dataclasses
import itertools
import signal
import time
from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eaqmds.cli import parse_q
from eaqmds.cosets import (
    DefiningSet,
    bch_design_distance,
    defining_set,
    omega_run,
    parameter_ranges,
)
from eaqmds.verify import divisors, is_hermitian_dual_containing
from reference import cyclotomic_coset


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


def _recipe(family, q, t, odd, delta=None, delta1=None, delta2=None):
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


def _admissible_groups(q):
    """(family, n, t, odd) of every family instance group at q."""
    qsq = q * q
    yield from (("i", n, None, False) for n in divisors(qsq + 1) if n >= 2)
    yield from (("iii", n, None, odd) for n in divisors(qsq - 1)
                if n >= 2 for odd in (False, True))
    if q % 2:
        yield "iv", None, None, False
        yield from (("v", None, t, False) for t in divisors(q + 1)
                    if t >= 3 and t % 2)


def test_closed_form_equals_coset_orbit_union():
    """Every admissible defining set at prime powers q < 66 is the union
    of the q^2-cyclotomic cosets of its recipe, walked as orbits, and
    its modulus divides q^2 - 1, or q^2 + 1 for family i."""
    count = 0
    for q in parse_q("2..65"):
        qsq = q * q
        orbits = {}
        for family, n, t, odd in _admissible_groups(q):
            ranges = parameter_ranges(family, q, n, t, odd)[1]
            for values in itertools.product(*ranges.values()):
                kw = dict(zip(ranges, values))
                Z = defining_set(family, q, n=n, t=t, odd=odd, **kw)
                m = Z.modulus
                assert (qsq - 1) % m == 0 or (
                    family == "i" and (qsq + 1) % m == 0)
                union = set()
                for i in _recipe(family, q, t, odd, **kw):
                    key = (i % m, m)
                    if key not in orbits:
                        orbits[key] = cyclotomic_coset(i, m, qsq)
                    union |= orbits[key]
                assert Z.elements == union, (family, q, n, t, odd, kw)
                count += 1
    assert count == 11955


def test_defining_set_family_i():
    Z = defining_set("i", 4, delta=2)
    assert Z.modulus == 17 and Z.r == 1
    assert Z.sorted() == [0, 1, 2, 15, 16]
    assert all((z * 16) % 17 in Z.elements for z in Z.elements)  # coset union


def test_defining_set_family_iii():
    Z = defining_set("iii", 5, delta=1)
    assert Z.modulus == 24
    assert Z.sorted() == [0, 1, 23]
    # asymmetric variant for odd distances
    Zo = defining_set("iii", 5, delta=2, odd=True)
    assert Zo.sorted() == [0, 1, 22, 23]


def test_defining_set_family_iv():
    Z = defining_set("iv", 5, delta1=1, delta2=3)
    assert Z.modulus == 24 and Z.r == 2
    assert Z.sorted() == [1, 3, 5, 21, 23]   # odd residues -3..5 mod 24
    assert all(z % 2 == 1 for z in Z.elements)


def test_defining_set_family_v():
    Z = defining_set("v", 11, t=3, delta1=4, delta2=4)
    assert Z.modulus == 120 and Z.r == 3
    anchor = (3 - 1) // 2 * (11 - 1)
    assert anchor in Z.elements
    assert len(Z) == 9
    assert all(z % 3 == 1 for z in Z.elements)


def test_defining_set_range_errors():
    with pytest.raises(ValueError):
        defining_set("i", 4, delta=5)          # above n // (q+1)
    with pytest.raises(ValueError):
        defining_set("i", 4, delta=1, n=5)     # 5 does not divide 17
    with pytest.raises(ValueError):
        defining_set("iii", 5, delta=0, odd=True)
    with pytest.raises(ValueError):
        defining_set("iv", 4, delta1=0, delta2=2)   # even q
    with pytest.raises(ValueError):
        defining_set("v", 11, t=4, delta1=4, delta2=4)  # even t
    with pytest.raises(ValueError):
        defining_set("v", 11, t=5, delta1=4, delta2=4)  # 5 does not divide 12
    with pytest.raises(ValueError):
        defining_set("ii", 4, delta=1)  # extended RS has no defining set


def test_omega_membership_enforced():
    with pytest.raises(ValueError):
        DefiningSet(24, 2, frozenset({2}))   # even residue, r = 2
    with pytest.raises(ValueError):
        DefiningSet(24, 2, frozenset({25}))  # not canonical


def test_hermitian_dual_containing():
    empty = DefiningSet(17, 1, frozenset())
    assert is_hermitian_dual_containing(empty, 4)
    z1 = cyclotomic_coset(1, 17, 16) | cyclotomic_coset(2, 17, 16)
    assert is_hermitian_dual_containing(DefiningSet(17, 1, z1), 4)
    # adding C_0 breaks it: -q*0 = 0 stays in Z
    assert not is_hermitian_dual_containing(
        DefiningSet(17, 1, z1 | {0}), 4)


def test_bch_design_distance():
    assert bch_design_distance(DefiningSet(17, 1, frozenset({0}))) == 2
    assert bch_design_distance(defining_set("i", 4, delta=2)) == 6
    assert bch_design_distance(defining_set("iv", 5, delta1=1, delta2=3)) == 6
    with pytest.raises(ValueError):
        bch_design_distance(DefiningSet(17, 1, frozenset()))


def test_bch_distance_wraps_around():
    # run 15, 16, 0, 1 wraps through zero
    Z = DefiningSet(17, 1, frozenset({15, 16, 0, 1}))
    assert bch_design_distance(Z) == 5
    # two disjoint runs: the longer one counts
    Z2 = DefiningSet(20, 1, frozenset({3, 4, 10, 11, 12}))
    assert bch_design_distance(Z2) == 4
    # full circle
    Z3 = DefiningSet(6, 1, frozenset(range(6)))
    assert bch_design_distance(Z3) == 7


def test_design_distance_is_size_plus_one_for_families():
    cases = [
        defining_set("i", 4, delta=2),
        defining_set("iii", 5, delta=3),
        defining_set("iii", 5, delta=3, odd=True),
        defining_set("iv", 5, delta1=1, delta2=3),
        defining_set("v", 11, t=3, delta1=4, delta2=6),
    ]
    for Z in cases:
        assert bch_design_distance(Z) == len(Z) + 1


def _windows_of(n, size):
    """Every circular run of `size` Omega indices modulo n, by start."""
    return {s: {(s + k) % n for k in range(size)} for s in range(n)}


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 12).flatmap(lambda n: st.tuples(
    st.just(n), st.sampled_from([1, 2, 3]),
    st.sets(st.integers(0, n - 1)), st.integers(-n, n))))
def test_start_and_run_from_the_elements(case):
    """A set given by its elements finds whether it is one run and where
    its (first) run starts, lays out its elements from there, and agrees
    with omega_run on a run; the BCH distance is its longest run + 1."""
    n, r, idx, lo = case
    base = 0 if r == 1 else 1
    Z = DefiningSet(r * n, r, frozenset(base + r * i for i in idx))
    windows = _windows_of(n, len(idx))
    run_starts = [s for s, w in windows.items() if w == idx]
    assert Z.run == bool(run_starts)
    if 0 < len(idx) < n and Z.run:
        assert run_starts == [Z.start]
    elif not Z.run:
        edges = [i for i in idx if (i - 1) % n not in idx]
        assert Z.start == min(edges)
    else:
        assert Z.start == 0
    offsets = [(z // r - Z.start) % n for z in Z.in_run_order()]
    assert offsets == sorted(offsets) and len(offsets) == len(idx)
    if idx:
        longest = max(size for size in range(1, len(idx) + 1)
                      if any(w <= idx for w in _windows_of(n, size).values()))
        assert bch_design_distance(Z) == longest + 1
    run = omega_run(n, r, lo, lo + len(idx) - 1)
    assert run.run and run.start == (lo % n if 0 < len(idx) < n else 0)


def test_start_and_run_are_never_given():
    """A set with a gap is not a run, whatever a caller would claim, and
    a copy with other elements derives them anew."""
    gapped = DefiningSet(24, 1, frozenset({0, 1, 5}))
    assert not gapped.run and gapped.start == 0
    assert bch_design_distance(gapped) == 3
    for claim in ({"start": 0}, {"run": True}):
        with pytest.raises(TypeError):
            DefiningSet(24, 1, frozenset({0, 1, 5}), **claim)
    moved = dataclasses.replace(gapped, elements=frozenset({22, 23, 0}))
    assert moved.run and moved.start == 22
    assert bch_design_distance(moved) == 4


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

