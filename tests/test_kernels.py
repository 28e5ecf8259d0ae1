"""Kernels against direct context-arithmetic references, written here
and in reference.py.

The property tests pin the vectorized oracles (the generalized-Cauchy
certificate, projective enumeration) to per-item references.
"""

import functools
import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from eaqmds import kernels
from eaqmds.codes import generator_matrix
from eaqmds.eaqecc import build_classical
from eaqmds.galois import FieldContext, build_field
from reference import (
    mul,
    ref_submatrices_nonsingular,
    ref_first_singular_minor,
    ref_matmul,
    ref_min_weight,
    ref_rref,
)

FIELDS = [(2, 2), (3, 2), (5, 2), (2, 8)]


@pytest.mark.parametrize("pm", FIELDS)
def test_matmul_matches_reference(pm):
    ctx = build_field(*pm)
    rng = np.random.default_rng(7)
    for shape in [(3, 4, 5), (1, 6, 1), (8, 8, 8)]:
        A = rng.integers(0, ctx.order, (shape[0], shape[1])).astype(np.int64)
        B = rng.integers(0, ctx.order, (shape[1], shape[2])).astype(np.int64)
        assert np.array_equal(kernels.matmul(A, B, ctx), ref_matmul(A, B, ctx))


@pytest.mark.parametrize("pm", FIELDS)
def test_eliminate_matches_reference(pm):
    ctx = build_field(*pm)
    rng = np.random.default_rng(11)
    for rows in (6, 6, 6, 6, 6, 3, 9, 12):
        M = rng.integers(0, ctx.order, (rows, 9)).astype(np.int64)
        M[rows // 2] = M[0]  # rank deficient in the tall cases
        R, pivots = kernels.eliminate(M, ctx)
        R_ref, pivots_ref = ref_rref(M, ctx)
        assert pivots == pivots_ref
        assert len(pivots) == kernels.rank(M, ctx)
        assert np.array_equal(R, R_ref)


# (p, m, modulus): odd p with m >= 3, a large p, prime fields, p = 2 up to
# GF(2^10), and two non-default moduli (x^2 + x + 2 and x^4 + x^3 + 1)
PROPERTY_FIELDS = [(3, 3, None), (3, 4, None), (5, 3, None), (31, 2, None),
                   (2, 1, None), (7, 1, None), (31, 1, None), (2, 2, None),
                   (2, 5, None), (2, 10, None), (3, 2, (2, 1, 1)),
                   (2, 4, (1, 0, 0, 1, 1))]


@functools.cache
def _field(p, m, modulus=None):
    """GF(p^m) under `modulus`, or the package's own representation."""
    if modulus is None:
        return build_field(p, m)
    return FieldContext(p, m, modulus)


def _random_codes(rng, shape, order, fill):
    """Element codes: uniform, mostly zero, or all Q-1 (every digit p-1,
    the largest digit-plane sums)."""
    if fill == "max":
        return np.full(shape, order - 1, dtype=np.int64)
    M = rng.integers(0, order, shape).astype(np.int64)
    if fill == "sparse":
        M[rng.random(shape) < 0.8] = 0
    return M


@st.composite
def product_cases(draw):
    ctx = _field(*draw(st.sampled_from(PROPERTY_FIELDS)))
    inner = draw(st.one_of(st.integers(1, 12), st.integers(1000, 3000)))
    rows = draw(st.integers(1, 6 if inner <= 12 else 2))
    cols = draw(st.integers(1, 6 if inner <= 12 else 2))
    fill = draw(st.sampled_from(["uniform", "sparse", "max"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return (ctx, _random_codes(rng, (rows, inner), ctx.order, fill),
            _random_codes(rng, (inner, cols), ctx.order, fill))


def _product_case(p, m, shape, fill, modulus=None):
    ctx = _field(p, m, modulus)
    rng = np.random.default_rng(1)
    rows, inner, cols = shape
    return (ctx, _random_codes(rng, (rows, inner), ctx.order, fill),
            _random_codes(rng, (inner, cols), ctx.order, fill))


@settings(max_examples=80, deadline=None)
@given(product_cases())
@example(case=_product_case(3, 4, (3, 1, 4), "uniform"))
@example(case=_product_case(31, 2, (2, 2500, 2), "max"))
@example(case=_product_case(2, 10, (2, 2500, 3), "uniform"))
@example(case=_product_case(5, 3, (1, 1, 1), "max"))
@example(case=_product_case(3, 2, (4, 7, 2), "uniform", modulus=(2, 1, 1)))
def test_matmul_property(case):
    ctx, A, B = case
    assert np.array_equal(kernels.matmul(A, B, ctx), ref_matmul(A, B, ctx))


def test_matmul_exactness_bound():
    # GF(2^17 - 1): the largest inner dimension whose sums of (p-1)^2
    # stay below 2^53 is exact; one more raises
    ctx = build_field(131071, 1)
    p = ctx.p
    inner = ((1 << 53) - 1) // (p - 1) ** 2
    A = np.full((1, inner), p - 1, dtype=np.int64)
    assert kernels.matmul(A, A.T, ctx)[0, 0] == inner % p  # (p-1)^2 = 1
    A = np.zeros((1, inner + 1), dtype=np.int64)
    with pytest.raises(ValueError, match="too large for an exact"):
        kernels.matmul(A, A.T, ctx)


@pytest.mark.parametrize("m", [1, 2, 4, 8])
def test_xor_product_over_gf2m(m):
    # the p = 2 product, with zero entries, a zero row and a zero column,
    # over an inner axis of 7 chunks; a zero sentinel log that a sum of
    # two nonzero logs can reach (such as Q - 1) reads a wrong product
    ctx = build_field(2, m)
    rng = np.random.default_rng(m)
    A = rng.integers(0, ctx.order, (5, 20)) * rng.integers(0, 2, (5, 20))
    B = rng.integers(0, ctx.order, (20, 4)) * rng.integers(0, 2, (20, 4))
    A[2], B[:, 1] = 0, 0
    A[0], B[:, 0] = ctx.order - 1, rng.integers(1, ctx.order, 20)
    with mock.patch.object(kernels, "_XOR_CHUNK", 5 * 4 * 3):
        C = kernels.matmul(A, B, ctx)
    assert C.dtype == np.int64 and C.flags.writeable
    assert np.array_equal(C, ref_matmul(A, B, ctx))
    assert not C[2].any() and not C[:, 1].any()


@st.composite
def elimination_cases(draw):
    """A random matrix with forced dependent rows (copies and multiples
    of earlier ones) and optional zero columns."""
    ctx = _field(*draw(st.sampled_from(PROPERTY_FIELDS)))
    rows = draw(st.integers(1, 8))
    cols = draw(st.one_of(st.integers(1, 10), st.integers(1000, 2000)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    M = _random_codes(rng, (rows, cols), ctx.order,
                      draw(st.sampled_from(["uniform", "sparse"])))
    for _ in range(draw(st.integers(0, 3))):
        src, dst = draw(st.integers(0, rows - 1)), draw(st.integers(0, rows - 1))
        scale = draw(st.integers(0, ctx.order - 1))
        M[dst] = [mul(ctx, scale, int(v)) for v in M[src]]
    if draw(st.booleans()):
        M[:, draw(st.integers(0, cols - 1))] = 0
    return ctx, M


@settings(max_examples=80, deadline=None)
@given(elimination_cases())
def test_eliminate_property(case):
    ctx, M = case
    R, pivots = kernels.eliminate(M, ctx)
    R_ref, pivots_ref = ref_rref(M, ctx)
    assert pivots == pivots_ref
    assert len(pivots) == kernels.rank(M, ctx)
    assert np.array_equal(R, R_ref)


def test_rank_known_cases():
    ctx = build_field(3, 2)
    assert kernels.rank(np.zeros((3, 3), dtype=np.int64), ctx) == 0
    assert kernels.rank(np.eye(4, dtype=np.int64), ctx) == 4
    # duplicated row
    M = np.array([[1, 2, 3], [1, 2, 3], [0, 1, 0]], dtype=np.int64)
    assert kernels.rank(M, ctx) == 2


@st.composite
def zero_line_cases(draw):
    """A random matrix, possibly all zero and possibly with 0 rows or 0
    columns, with zero rows and zero columns inserted at random places."""
    ctx = _field(*draw(st.sampled_from(PROPERTY_FIELDS)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    M = _random_codes(rng, (draw(st.integers(0, 6)), draw(st.integers(0, 8))),
                      ctx.order, draw(st.sampled_from(["uniform", "sparse"])))
    if draw(st.booleans()):
        M[:] = 0
    for axis in (0, 1):
        for _ in range(draw(st.integers(0, 3))):
            M = np.insert(M, draw(st.integers(0, M.shape[axis])), 0, axis=axis)
    return ctx, M


def _zeros_case(shape):
    return build_field(3, 2), np.zeros(shape, dtype=np.int64)


@settings(max_examples=120, deadline=None)
@given(zero_line_cases())
@example(case=_zeros_case((0, 4)))
@example(case=_zeros_case((4, 0)))
@example(case=_zeros_case((0, 0)))
@example(case=_zeros_case((3, 5)))
def test_rank_with_zero_lines_matches_reference(case):
    ctx, M = case
    M.setflags(write=False)  # rank eliminates a copy
    assert kernels.rank(M, ctx) == len(ref_rref(M, ctx)[1])


@st.composite
def monomial_cases(draw):
    """(field, M, extra): a scaled partial permutation of k entries at
    shuffled rows and columns, zero lines around it; with extra "row" or
    "column", one more nonzero in a line that holds an entry, which keeps
    the rank at k."""
    ctx = _field(*draw(st.sampled_from(PROPERTY_FIELDS)))
    rows, cols = draw(st.integers(0, 8)), draw(st.integers(0, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    k = draw(st.integers(0, min(rows, cols)))
    M = np.zeros((rows, cols), dtype=np.int64)
    where = rng.permutation(rows)[:k], rng.permutation(cols)[:k]
    M[where] = rng.integers(1, ctx.order, k)
    extra = draw(st.sampled_from(["none", "row", "column"]))
    if extra != "none":
        assume(k >= 1 and min(rows, cols) >= 2)
        i, j = where[0][0], where[1][0]
        if extra == "row":
            j = draw(st.sampled_from([c for c in range(cols) if c != j]))
        else:
            i = draw(st.sampled_from([r for r in range(rows) if r != i]))
        M[i, j] = rng.integers(1, ctx.order)
    return ctx, M, extra


@settings(max_examples=150, deadline=None)
@given(monomial_cases())
@example(case=(build_field(3, 2), np.array([[1, 2]]), "row"))
@example(case=(build_field(3, 2), np.array([[1], [2]]), "column"))
@example(case=(build_field(3, 2), np.array([[1, 0], [4, 5]]), "row"))
def test_monomial_rank_is_its_support(case):
    """A monomial matrix's rank is its number of nonzeros, with no
    elimination; one extra nonzero goes to the forward pass."""
    ctx, M, extra = case
    M.setflags(write=False)
    with mock.patch.object(kernels, "_forward",
                           wraps=kernels._forward) as forward:
        got = kernels.rank(M, ctx)
    assert got == len(ref_rref(M, ctx)[1])
    assert forward.call_count == (extra != "none")
    if extra == "none":
        assert got == np.count_nonzero(M)


# GF(9), GF(16) and GF(25): the fields of the families' Gram matrices
BLOCK_FIELDS = [(3, 2), (2, 4), (5, 2)]


@st.composite
def _slices(draw, size):
    """A step-1 slice of range(size): full, empty, or random bounds, which
    may be negative, past the end or reversed."""
    kind = draw(st.sampled_from(["full", "empty", "random"]))
    if kind == "full":
        return slice(None)
    if kind == "empty":
        at = draw(st.integers(0, size))
        return slice(at, at)
    bound = st.one_of(st.none(), st.integers(-size - 1, size + 1))
    return slice(draw(bound), draw(bound))


@st.composite
def block_cases(draw):
    """(field, M, blocks, kind): M a scaled partial permutation (kind
    "monomial"), the same with one more nonzero in a line that holds one
    ("extra") or uniform random ("dense"), and up to 6 blocks of it."""
    ctx = _field(*draw(st.sampled_from(BLOCK_FIELDS)))
    rows, cols = draw(st.integers(0, 9)), draw(st.integers(0, 9))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["monomial", "extra", "dense"]))
    if kind == "dense":
        M = rng.integers(0, ctx.order, (rows, cols)).astype(np.int64)
    else:
        k = draw(st.integers(0, min(rows, cols)))
        M = np.zeros((rows, cols), dtype=np.int64)
        where = rng.permutation(rows)[:k], rng.permutation(cols)[:k]
        M[where] = rng.integers(1, ctx.order, k)
        if kind == "extra":
            assume(k >= 1 and cols >= 2)
            j = draw(st.sampled_from([c for c in range(cols)
                                      if c != where[1][0]]))
            M[where[0][0], j] = rng.integers(1, ctx.order)
    blocks = draw(st.lists(st.tuples(_slices(rows), _slices(cols)),
                           max_size=6))
    return ctx, M, blocks, kind


def _block_case(M, blocks, kind):
    return build_field(3, 2), np.array(M, dtype=np.int64), blocks, kind


@settings(max_examples=200, deadline=None)
@given(block_cases())
# a block whose rows hold a nonzero its columns leave out
@example(case=_block_case([[2, 0, 0], [0, 3, 0], [0, 0, 4]],
                          [(slice(0, 2), slice(1, 3))], "monomial"))
# a nonzero just past the row stop, then just past the column stop
@example(case=_block_case([[2, 0], [0, 3]],
                          [(slice(0, 1), slice(None)),
                           (slice(None), slice(0, 1))], "monomial"))
# rank 1, four nonzeros
@example(case=_block_case([[1, 1], [1, 1]], [(slice(None), slice(None))],
                          "dense"))
def test_block_ranks_match_rank_of_each_block(case):
    """block_ranks gives kernels.rank of each block, and eliminates
    nothing when M is monomial."""
    ctx, M, blocks, kind = case
    M.setflags(write=False)
    want = [kernels.rank(M[rows, cols], ctx) for rows, cols in blocks]
    with mock.patch.object(kernels, "_forward",
                           wraps=kernels._forward) as forward:
        assert kernels.block_ranks(M, blocks, ctx) == want
    if kind == "monomial":
        assert forward.call_count == 0


def test_block_ranks_take_step_1_slices_only():
    ctx = build_field(3, 2)
    M = np.eye(4, dtype=np.int64)
    assert kernels.block_ranks(M, [], ctx) == []
    assert kernels.block_ranks(M, [(slice(0, 4, 1), slice(1, None))],
                               ctx) == [3]
    with pytest.raises(ValueError, match="step 1"):
        kernels.block_ranks(M, [(slice(0, 4, 2), slice(None))], ctx)


def test_min_weight_matches_bruteforce():
    ctx = build_field(3, 2)
    rng = np.random.default_rng(3)
    for _ in range(5):
        G = rng.integers(0, 9, (2, 5)).astype(np.int64)
        if kernels.rank(G, ctx) < 2:
            continue
        expected = ref_min_weight(G, ctx)
        assert kernels.min_weight(G, ctx) == expected


def test_cauchy_certificate_on_gf4_points():
    ctx = build_field(2, 2)
    # evaluations of {1, x} at the four distinct points of GF(4):
    # every 2x2 minor is a Vandermonde determinant, hence nonsingular
    G = np.array([[1, 1, 1, 1], [0, 1, 2, 3]], dtype=np.int64)
    assert kernels.cauchy_certificate(G, ctx) is True
    # duplicate an evaluation point: the minor on columns 2 and 3
    # degenerates
    Gbad = np.array([[1, 1, 1, 1], [0, 1, 3, 3]], dtype=np.int64)
    assert kernels.cauchy_certificate(Gbad, ctx) is False


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
        G[:, dst] = [mul(ctx, scale, int(v)) for v in G[:, src]]
    return ctx, G


def _vandermonde(k, n, p):
    """Rows x^i over the points 0..n-1 of GF(p), i < k: an MDS [n, k]
    generator matrix (Reed-Solomon) when n <= p."""
    return np.array([[pow(x, i, p) for x in range(n)] for i in range(k)])


@settings(max_examples=150, deadline=None)
@given(minor_cases())
# rank-deficient (the second row is twice the first)
@example(case=(build_field(3, 1), np.array([[1, 2, 0, 1], [2, 1, 0, 2]])))
# square: A is empty, and M is nonsingular
@example(case=(build_field(2, 2), np.array([[1, 2, 3], [0, 1, 1],
                                            [0, 0, 2]])))
# 1 x n, zero in the pivot-free first column
@example(case=(build_field(5, 1), np.array([[0, 3, 1, 4, 2]])))
# MDS with k < n - k and k > n - k: Reed-Solomon, so always decided
@example(case=(build_field(7, 1), _vandermonde(2, 7, 7)))
@example(case=(build_field(7, 1), _vandermonde(5, 7, 7)))
# column 0 is zero: no k x k minor that uses it is nonsingular
@example(case=(build_field(2, 2), np.array([[0, 2, 3, 2],
                                            [0, 3, 0, 3]])))
def test_minor_oracle_matches_reference(case):
    """The certificate on any k x n matrix, rank-deficient ones included:
    never certified with a singular k x k minor, never refuted without
    one."""
    ctx, G = case
    verdict = kernels.cauchy_certificate(G, ctx)
    assert verdict is None or verdict == (ref_first_singular_minor(G, ctx) == -1)


@pytest.mark.parametrize("index", [0, 1, 35, 1000, 19447, 19448, 1 << 22])
def test_minor_oracle_on_family_i(index):
    # family i at q = 4, d = 8: H is 7 x 17, with C(17, 7) = 19448
    # column minors. Permuting and scaling the columns (seeded by index)
    # keeps H MDS; repeating a column inside the minor numbered
    # index mod 19448, in lexicographic order, makes that minor singular
    code = build_classical("i", 4, 8)
    ctx = code.field
    k, n = code.H.shape
    rng = np.random.default_rng(index)
    scale = np.diag(rng.integers(1, ctx.order, n))
    H = kernels.matmul(code.H[:, rng.permutation(n)], scale, ctx)
    assert kernels.cauchy_certificate(H, ctx) is True
    cols = next(itertools.islice(itertools.combinations(range(n), k),
                                 index % math.comb(n, k), None))
    H[:, cols[-1]] = H[:, cols[0]]
    assert ref_first_singular_minor(H, ctx) != -1
    assert kernels.cauchy_certificate(H, ctx) is False


# GF(4), GF(9), GF(16), GF(25), GF(49)
CAUCHY_FIELDS = [(2, 2), (3, 2), (2, 4), (5, 2), (7, 2)]


def _cauchy(ctx, xs, ys, us, vs):
    """A[i, j] = u_i v_j / det[P_i, Q_j] for the points P_i = (x_i, 1),
    Q_j = (y_j, 1) of the projective line, -1 standing for (1, 0), the
    point at infinity: 0 where x_i and y_j coincide."""
    def det(x, y):
        if x == y:
            return 0
        if x < 0 or y < 0:
            return 1 if x < 0 else ctx.neg(1)
        return ctx.add(x, ctx.neg(y))

    return np.array([[mul(ctx, mul(ctx, u, v), ctx.pow(det(x, y), -1))
                      if det(x, y) else 0 for y, v in zip(ys, vs)]
                     for x, u in zip(xs, us)], dtype=np.int64)


def _systematic_case(ctx, A, perm=None):
    m, k = A.shape
    M = np.hstack([np.eye(m, dtype=np.int64), A])
    return ctx, A, M if perm is None else M[:, list(perm)]


@st.composite
def systematic_cases(draw):
    """(ctx, A, M): M is [I | A] with its columns permuted, and A a random
    matrix or a generalized Cauchy matrix on random points of the
    projective line, which may coincide."""
    ctx = build_field(*draw(st.sampled_from(CAUCHY_FIELDS)))
    m, k = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    if draw(st.booleans()):
        cells = st.integers(0, ctx.order - 1)
        A = np.array(draw(st.lists(st.lists(cells, min_size=k, max_size=k),
                                   min_size=m, max_size=m)), dtype=np.int64)
    else:
        points = st.integers(-1, ctx.order - 1)
        scales = st.integers(1, ctx.order - 1)
        A = _cauchy(ctx, *(draw(st.lists(s, min_size=size, max_size=size))
                           for s, size in ((points, m), (points, k),
                                           (scales, m), (scales, k))))
    return _systematic_case(ctx, A, draw(st.permutations(range(m + k))))


GF4, GF9 = build_field(2, 2), build_field(3, 2)


@settings(max_examples=300, deadline=None)
@given(systematic_cases())
# one column: every entry nonzero is MDS
@example(case=_systematic_case(GF9, np.array([[3], [8], [2]])))
# the point at infinity on both sides, all points distinct
@example(case=_systematic_case(
    GF9, _cauchy(GF9, [-1, 0, 1], [2, 3, 4, 5], [1, 1, 1], [1, 1, 1, 1])))
# no zero entry and nothing proportional, 1/A of rank 3, a singular minor
@example(case=_systematic_case(GF4, np.array([[3, 3, 1], [3, 1, 2],
                                              [3, 1, 3]])))
def test_cauchy_certificate_matches_reference(case):
    """The certificate never certifies a matrix with a singular square
    submatrix and refutes only such matrices; a generalized Cauchy matrix
    (every entry nonzero) is always decided."""
    ctx, A, M = case
    expected = ref_submatrices_nonsingular(A, ctx)
    verdict = kernels.cauchy_certificate(M, ctx)
    assert verdict is None or verdict == expected
    if expected and (min(A.shape) < 2 or kernels.rank(np.array(
            [[ctx.pow(int(a), -1) for a in row] for row in A]), ctx) <= 2):
        assert verdict is True


def test_cauchy_certificate_cases():
    # a point twice among the x (two proportional rows), then among the y
    # (two proportional columns); otherwise Cauchy, so 1/A has rank 2
    assert kernels.cauchy_certificate(_systematic_case(
        GF9, _cauchy(GF9, [1, 1, 2], [3, 4, -1], [1, 2, 3], [4, 5, 6]))[2],
        GF9) is False
    assert kernels.cauchy_certificate(_systematic_case(
        GF9, _cauchy(GF9, [1, 2, -1], [3, 4, 3], [1, 2, 3], [4, 5, 6]))[2],
        GF9) is False
    # one parity row: the columns of a 1 x k matrix are all proportional
    assert kernels.cauchy_certificate(np.array([[1, 1, 5, 7, 2]]), GF9)
    assert kernels.cauchy_certificate(np.array([[1, 1, 0, 7, 2]]), GF9) \
        is False
    # rank-deficient, and square (A is empty)
    assert kernels.cauchy_certificate(np.array([[1, 2, 3], [2, 4, 6]]),
                                      build_field(7, 1)) is False
    assert kernels.cauchy_certificate(np.array([[1, 2], [0, 1]]), GF9)
    # MDS but not generalized Cauchy (1/A has rank 3): no verdict
    A = np.array([[8, 2, 5, 3], [1, 7, 1, 3], [4, 4, 1, 8]])
    assert ref_submatrices_nonsingular(A, GF9)
    assert kernels.cauchy_certificate(_systematic_case(GF9, A)[2],
                                      GF9) is None


@st.composite
def weight_cases(draw):
    """A random generator matrix over a small field."""
    p, m = draw(st.sampled_from([(2, 1), (2, 2), (2, 3), (2, 4), (3, 1),
                                 (3, 2), (5, 1), (5, 2)]))
    ctx = build_field(p, m)
    k = draw(st.integers(1, 3))
    assume(ctx.order ** k <= 1000)
    n = draw(st.integers(1, 6))
    cells = st.integers(0, ctx.order - 1)
    G = np.array(draw(st.lists(st.lists(cells, min_size=n, max_size=n),
                               min_size=k, max_size=k)), dtype=np.int64)
    return ctx, G


@settings(max_examples=100, deadline=None)
@given(weight_cases())
def test_projective_min_weight_matches_reference(case):
    ctx, G = case
    expected = ref_min_weight(G, ctx)
    assume(expected > 0)  # the kernel skips zero codewords
    assert kernels.min_weight(G, ctx) == expected


@st.composite
def split_cases(draw):
    """A random k x n generator matrix, k <= 8 and Q**k <= 4000, with
    forced repeated (scaled) rows and zero rows, so rank-deficient G and
    zero codewords are common.  Over GF(2) and GF(3), k reaches 7 or 8,
    so the default split has a high table of several rows at odd and at
    even k."""
    p, m = draw(st.sampled_from([(2, 1), (2, 2), (2, 3), (2, 4), (3, 1),
                                 (3, 2), (5, 1), (5, 2)]))
    ctx = build_field(p, m)
    k_max = max(k for k in range(1, 9) if ctx.order ** k <= 4000)
    k = draw(st.integers(1, k_max))
    n = draw(st.integers(1, 7))
    cells = st.integers(0, ctx.order - 1)
    G = np.array(draw(st.lists(st.lists(cells, min_size=n, max_size=n),
                               min_size=k, max_size=k)), dtype=np.int64)
    for _ in range(draw(st.integers(0, 2))):
        src, dst = draw(st.integers(0, k - 1)), draw(st.integers(0, k - 1))
        scale = draw(cells)
        G[dst] = [mul(ctx, scale, int(v)) for v in G[src]]
    if draw(st.booleans()):
        G[draw(st.integers(0, k - 1))] = 0
    return ctx, G


# over GF(3) the one minimum-weight codeword (up to scaling) is
# G_0 + G_1 + G_2 = G_2 - s for s = 2 G_0 + 2 G_1, the last row of the
# low table's first Q**2 rows
SHORT_SLICE = np.array([[0, 1, 2, 1, 2], [1, 0, 1, 1, 2], [2, 2, 0, 0, 2]])


@settings(max_examples=100, deadline=None)
@given(split_cases(), st.integers(1, 4000))
@example(case=(build_field(3, 1), SHORT_SLICE), rows=9)
def test_span_split_matches_reference(case, rows):
    ctx, G = case
    expected = ref_min_weight(G, ctx)
    # a split at every level: no low rows (1), one (Q), a random table
    # size and the default
    for limit in {1, ctx.order, rows, kernels._SPAN_ROWS}:
        with mock.patch.object(kernels, "_SPAN_ROWS", limit):
            assert kernels.min_weight(G, ctx) == expected


@pytest.mark.parametrize("limit", [1, 3, 9, 27, 1 << 14])
def test_min_weight_visits_each_projective_message_once(limit):
    # a low table longer than Q**j would visit messages twice and still
    # find the same minimum, so count the codewords compared
    ctx = build_field(3, 1)
    counted = []

    def spy(low, heads, n):
        counted.append(low.shape[1] * heads.shape[0])
        return zero_counts(low, heads, n)

    zero_counts = kernels._zero_counts
    with mock.patch.object(kernels, "_SPAN_ROWS", limit), \
            mock.patch.object(kernels, "_zero_counts", spy):
        assert kernels.min_weight(SHORT_SLICE, ctx) == 1
    assert sum(counted) == (3**3 - 1) // 2


@pytest.mark.parametrize("family, q, d", [("ii", 3, 4), ("i", 3, 4)])
def test_min_weight_balances_span_tables(family, q, d):
    # k = 6 and k = 7 over GF(9): the low table spans k // 2 rows and the
    # high one the other k - 1 - k // 2 below the last row, so neither is
    # the larger by more than a factor Q, though 9**4 low rows would also
    # fit under _SPAN_ROWS
    code = build_classical(family, q, d)
    G, ctx = generator_matrix(code), code.field
    k, Q = G.shape[0], ctx.order
    sizes = []

    def spy(rows, ctx):
        S = span(rows, ctx)
        sizes.append(len(S))
        return S

    span = kernels._span
    with mock.patch.object(kernels, "_span", spy):
        assert kernels.min_weight(G, ctx) == d
    assert k in (6, 7)
    assert sizes == [Q ** (k // 2), Q ** (k - 1 - k // 2)]
    assert max(sizes) <= kernels._SPAN_ROWS


@pytest.mark.parametrize("pair", ["row", "column", None])
def test_has_proportional_rows(pair):
    # a Cauchy matrix on distinct points has no two proportional rows or
    # columns; a copy of row (column) 0 scaled by 5, not 1, makes a pair
    A = _cauchy(GF9, [-1, 0, 1, 2], [3, 4, 5, 6, 7], [1, 2, 3, 4],
                [5, 6, 7, 8, 1])
    if pair == "row":
        A[3] = [mul(GF9, 5, int(a)) for a in A[0]]
    elif pair == "column":
        A[:, 4] = [mul(GF9, 5, int(a)) for a in A[:, 0]]
    L, top = GF9.log[A], GF9.order - 1
    assert kernels._has_proportional_rows(L, top) == (pair == "row")
    assert kernels._has_proportional_rows(L.T, top) == (pair == "column")


def test_pow_entries(gf16):
    # the adjoint is the entrywise a -> a^q, transposed
    rng = np.random.default_rng(5)
    M = rng.integers(0, 16, (4, 3)).astype(np.int64)
    P = kernels.adjoint(M, 4, gf16)
    assert P.shape == (3, 4)
    for i in range(4):
        for j in range(3):
            assert P[j, i] == gf16.pow(int(M[i, j]), 4)
    with pytest.raises(ValueError, match="incompatible"):
        kernels.adjoint(M, 3, gf16)


@pytest.mark.parametrize("pm", [(2, 2), (3, 2)])
def test_matmul_rejects_inner_dimension_mismatch(pm):
    # XOR sums for p = 2 and digit planes for odd p: a 1 x 3 by 1 x 2
    # product is an error, not a 1 x 2 result
    ctx = build_field(*pm)
    A, B = np.ones((1, 3), dtype=np.int64), np.ones((1, 2), dtype=np.int64)
    with pytest.raises(ValueError, match="dimension mismatch"):
        kernels.matmul(A, B, ctx)
    with pytest.raises(ValueError, match="dimension mismatch"):
        kernels.matmul(B.T, A.T, ctx)
