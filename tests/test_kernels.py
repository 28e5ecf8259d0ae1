"""Backend agreement: numba and numpy kernels against a direct
context-arithmetic reference.

numba is optional; the numba cases are skipped when it is not installed
and run wherever it is.  The property tests pin the numpy oracles
(batched minors, projective enumeration) to per-item references.
"""

import importlib.util
import math
import os
import subprocess
import sys
from contextlib import contextmanager
from itertools import combinations
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import eaqmds
from eaqmds import kernels
from eaqmds.galois import build_field

FIELDS = [(2, 2), (3, 2), (5, 2), (2, 8)]

HAVE_NUMBA = importlib.util.find_spec("numba") is not None
needs_numba = pytest.mark.skipif(not HAVE_NUMBA,
                                 reason="numba is not installed")
BACKENDS = [pytest.param("numba", marks=needs_numba), "numpy"]


def ref_matmul(A, B, ctx):
    C = np.zeros((A.shape[0], B.shape[1]), dtype=np.int64)
    for i in range(A.shape[0]):
        for j in range(B.shape[1]):
            s = 0
            for k in range(A.shape[1]):
                s = ctx.add(s, ctx.mul(int(A[i, k]), int(B[k, j])))
            C[i, j] = s
    return C


def ref_is_singular(S, ctx):
    """Per-minor Gaussian elimination in context arithmetic."""
    S = [[int(v) for v in row] for row in S]
    k = len(S)
    for c in range(k):
        piv = next((r for r in range(c, k) if S[r][c]), None)
        if piv is None:
            return True
        S[c], S[piv] = S[piv], S[c]
        inv = ctx.inv(S[c][c])
        for r in range(c + 1, k):
            f = ctx.neg(ctx.mul(S[r][c], inv))
            S[r] = [ctx.add(a, ctx.mul(f, b)) for a, b in zip(S[r], S[c])]
    return False


def ref_first_singular_minor(G, ctx, start):
    k, n = G.shape
    for index, cols in enumerate(combinations(range(n), k)):
        if index >= start and ref_is_singular(G[:, cols], ctx):
            return index
    return -1


def ref_min_weight(G, ctx, alphabet):
    from itertools import product
    k, n = G.shape
    best = n + 1
    for msg in product(alphabet, repeat=k):
        if not any(msg):
            continue
        cw = [0] * n
        for mi, row in zip(msg, G):
            for c in range(n):
                cw[c] = ctx.add(cw[c], ctx.mul(int(mi), int(row[c])))
        w = sum(1 for v in cw if v)
        best = min(best, w)
    return best


@pytest.mark.parametrize("pm", FIELDS)
@pytest.mark.parametrize("backend", BACKENDS)
def test_matmul_matches_reference(pm, backend, backend_sandbox):
    ctx = build_field(*pm)
    rng = np.random.default_rng(7)
    kernels.set_backend(backend)
    for shape in [(3, 4, 5), (1, 6, 1), (8, 8, 8)]:
        A = rng.integers(0, ctx.order, (shape[0], shape[1])).astype(np.int64)
        B = rng.integers(0, ctx.order, (shape[1], shape[2])).astype(np.int64)
        assert np.array_equal(kernels.matmul(A, B, ctx), ref_matmul(A, B, ctx))


@needs_numba
@pytest.mark.parametrize("pm", FIELDS)
def test_rank_backends_agree(pm, backend_sandbox):
    ctx = build_field(*pm)
    rng = np.random.default_rng(11)
    for _ in range(10):
        M = rng.integers(0, ctx.order, (6, 9)).astype(np.int64)
        kernels.set_backend("numba")
        r1 = kernels.rank(M, ctx)
        R1, _ = kernels.eliminate(M, ctx)
        kernels.set_backend("numpy")
        assert kernels.rank(M, ctx) == r1
        R2, _ = kernels.eliminate(M, ctx)
        assert np.array_equal(R1, R2)


def test_rank_known_cases(backend_sandbox):
    ctx = build_field(3, 2)
    for backend in ("numba", "numpy") if HAVE_NUMBA else ("numpy",):
        kernels.set_backend(backend)
        assert kernels.rank(np.zeros((3, 3), dtype=np.int64), ctx) == 0
        assert kernels.rank(np.eye(4, dtype=np.int64), ctx) == 4
        # duplicated row
        M = np.array([[1, 2, 3], [1, 2, 3], [0, 1, 0]], dtype=np.int64)
        assert kernels.rank(M, ctx) == 2


@pytest.mark.parametrize("backend", BACKENDS)
def test_min_weight_matches_bruteforce(backend, backend_sandbox):
    ctx = build_field(3, 2)
    rng = np.random.default_rng(3)
    kernels.set_backend(backend)
    for _ in range(5):
        G = rng.integers(0, 9, (2, 5)).astype(np.int64)
        if kernels.rank(G, ctx) < 2:
            continue
        expected = ref_min_weight(G, ctx, range(9))
        assert kernels.min_weight(G, ctx) == expected
        # restricted alphabet: GF(3) inside GF(9)
        sub = np.array([a for a in range(9) if ctx.pow(a, 3) == a],
                       dtype=np.int64)
        assert kernels.min_weight(G, ctx, sub) == \
            ref_min_weight(G, ctx, sub.tolist())


@pytest.mark.parametrize("backend", BACKENDS)
def test_first_singular_minor(backend, backend_sandbox):
    ctx = build_field(2, 2)
    kernels.set_backend(backend)
    # evaluations of {1, x} at the four distinct points of GF(4):
    # every 2x2 minor is a Vandermonde determinant, hence nonsingular
    G = np.array([[1, 1, 1, 1], [0, 1, 2, 3]], dtype=np.int64)
    assert kernels.first_singular_minor(G, ctx) == -1
    # duplicate an evaluation point: the (2,3) minor degenerates and
    # its lexicographic index is 5
    Gbad = np.array([[1, 1, 1, 1], [0, 1, 3, 3]], dtype=np.int64)
    assert kernels.first_singular_minor(Gbad, ctx) == 5
    assert kernels.first_singular_minor(Gbad, ctx, start_index=5) == 5


@contextmanager
def numpy_backend():
    saved = kernels.get_backend()
    kernels.set_backend("numpy")
    try:
        yield
    finally:
        kernels.set_backend(saved)


@st.composite
def minor_cases(draw):
    """A random k x n matrix over GF(p^m), p in {2, 3, 5}, with forced
    singular minors: a zero column or a column that is a multiple of
    another."""
    p, m = draw(st.sampled_from([(2, 1), (2, 2), (3, 1), (3, 2), (5, 1)]))
    ctx = build_field(p, m)
    k = draw(st.integers(1, 4))
    n = draw(st.integers(k, 8))
    cells = st.integers(0, ctx.order - 1)
    G = np.array(draw(st.lists(st.lists(cells, min_size=n, max_size=n),
                               min_size=k, max_size=k)), dtype=np.int64)
    for _ in range(draw(st.integers(0, 2))):
        src, dst = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        scale = draw(cells)
        G[:, dst] = [ctx.mul(scale, int(v)) for v in G[:, src]]
    start = draw(st.integers(0, math.comb(n, k) + 1))
    return ctx, G, start


@settings(max_examples=150, deadline=None)
@given(minor_cases(), st.integers(1, 6))
# column 1 is zero and start skips (0, 1): the first singular minor,
# (1, 2), lacks a pivot in column 0; the later (1, 3) lacks one in both
# columns, so a batch not cut at (1, 2) reports (1, 3)
@example(case=(build_field(2, 2), np.array([[3, 0, 2, 3, 2],
                                            [2, 0, 3, 0, 3]]), 1), batch=6)
def test_batched_minor_oracle_matches_reference(case, batch):
    ctx, G, start = case
    expected = ref_first_singular_minor(G, ctx, start)
    # the default batch, a random one, and batches that put the first
    # singular minor last in one batch and first in the next
    sizes = {kernels._MINOR_BATCH, batch}
    if expected > start:
        sizes |= {expected - start, expected - start + 1}
    with numpy_backend():
        for size in sizes:
            with mock.patch.object(kernels, "_MINOR_BATCH", size):
                assert kernels.first_singular_minor(G, ctx, start) == expected


@st.composite
def weight_cases(draw):
    """A random generator matrix and an alphabet of 0 plus the subgroup
    of d-th roots of unity; d = Q - 1 is the whole field and
    d = p^e - 1 a subfield."""
    p, m = draw(st.sampled_from([(2, 1), (2, 2), (2, 3), (2, 4), (3, 1),
                                 (3, 2), (5, 1), (5, 2)]))
    ctx = build_field(p, m)
    Q = ctx.order
    d = draw(st.sampled_from([d for d in range(1, Q) if (Q - 1) % d == 0]))
    alphabet = [0] + [int(ctx.exp[i * ((Q - 1) // d)]) for i in range(d)]
    k = draw(st.integers(1, 3))
    assume(len(alphabet) ** k <= 1000)
    n = draw(st.integers(1, 6))
    cells = st.integers(0, Q - 1)
    G = np.array(draw(st.lists(st.lists(cells, min_size=n, max_size=n),
                               min_size=k, max_size=k)), dtype=np.int64)
    return ctx, G, alphabet


@settings(max_examples=100, deadline=None)
@given(weight_cases())
def test_projective_min_weight_matches_reference(case):
    ctx, G, alphabet = case
    expected = ref_min_weight(G, ctx, alphabet)
    assume(expected > 0)  # the kernel skips zero codewords
    with numpy_backend():
        assert kernels.min_weight(G, ctx, np.array(alphabet)) == expected
        if len(alphabet) == ctx.order:
            assert kernels.min_weight(G, ctx) == expected


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([(3, 2), (2, 3), (5, 1), (7, 1)]), st.data())
def test_min_weight_rejects_unclosed_alphabet(pm, data):
    ctx = build_field(*pm)
    alphabet = data.draw(st.sets(st.integers(0, ctx.order - 1), min_size=1))
    nonzero = alphabet - {0}
    closed = 0 in alphabet and bool(nonzero) and all(
        ctx.mul(a, b) in nonzero for a in nonzero for b in nonzero)
    assume(not closed)
    G = np.ones((1, 3), dtype=np.int64)
    with pytest.raises(ValueError, match="multiplicatively closed"):
        kernels.min_weight(G, ctx, np.array(sorted(alphabet)))


def test_pow_entries(gf16):
    rng = np.random.default_rng(5)
    M = rng.integers(0, 16, (4, 4)).astype(np.int64)
    P = kernels.pow_entries(M, 4, gf16)
    for i in range(4):
        for j in range(4):
            assert P[i, j] == gf16.pow(int(M[i, j]), 4)


def test_backend_selection(backend_sandbox):
    with pytest.raises(ValueError):
        kernels.set_backend("fortran")
    kernels.set_backend("numpy")
    assert kernels.get_backend() == "numpy"


def test_kernels_require_tables():
    ctx = build_field(3, 2, tables=False)
    with pytest.raises(ValueError):
        kernels.rank(np.eye(2, dtype=np.int64), ctx)


def _import_kernels_with_backend(value):
    """Import eaqmds.kernels in a fresh interpreter with EAQMDS_BACKEND
    set to ``value``; the child finds the same eaqmds package as this
    process, whether it is installed or on PYTHONPATH."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("EAQMDS_")}
    env["EAQMDS_BACKEND"] = value
    pkg_root = str(Path(eaqmds.__file__).parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (pkg_root, env.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-c",
         "from eaqmds import kernels; print(kernels.get_backend())"],
        env=env, capture_output=True, text=True)


def test_backend_env_flag():
    out = _import_kernels_with_backend("numpy")
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "numpy"
    # an unknown value is refused at import, so the variable is read
    # even where numpy is the only backend available
    bad = _import_kernels_with_backend("fortran")
    assert bad.returncode != 0
    assert "ValueError: EAQMDS_BACKEND must be 'numba' or 'numpy'" \
        in bad.stderr
    if not HAVE_NUMBA:
        # an explicit request for numba is refused, as set_backend does
        out = _import_kernels_with_backend("numba")
        assert out.returncode != 0
        assert "ValueError: numba backend requested but numba is not " \
            "importable" in out.stderr
