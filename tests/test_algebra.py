"""Linear algebra over the field: kernels.rank, eliminate, matmul and
adjoint on plain int64 arrays, and codes.generator_matrix, the nullspace
of a parity check."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eaqmds.codes import ClassicalCode, constacyclic_code, generator_matrix
from eaqmds.cosets import defining_set
from eaqmds.eaqecc import gram_matrix
from eaqmds.galois import build_field
from eaqmds.kernels import adjoint, eliminate, matmul, rank
from reference import (
    Polynomial,
    cyclotomic_coset,
    mul,
    poly_from_roots,
    ref_matmul,
    ref_rref,
    root_rows,
    trace_root,
)


def test_poly_from_roots_empty_and_linear(gf9):
    one = poly_from_roots(gf9, [])
    assert one.coeffs == (1,)
    lin = poly_from_roots(gf9, [5])
    assert lin.coeffs == (gf9.neg(5), 1)
    assert lin(5) == 0


def test_poly_from_roots_vieta(gf9):
    alpha = gf9.generator
    alpha2 = mul(gf9, alpha, alpha)
    p = poly_from_roots(gf9, [alpha, alpha2])
    assert p.is_monic() and p.degree == 2
    # Vieta: x^2 - (a+b)x + ab
    assert p.coeffs[1] == gf9.neg(gf9.add(alpha, alpha2))
    assert p.coeffs[0] == mul(gf9, alpha, alpha2)
    assert p(alpha) == 0 and p(alpha2) == 0


def test_poly_from_roots_mixed_contexts(gf9, gf16):
    with pytest.raises(ValueError):
        poly_from_roots(gf9, [1]) * poly_from_roots(gf16, [1])


def test_polynomial_eval_and_mul(gf16):
    p = Polynomial(gf16, [1, 1])        # 1 + x
    q = Polynomial(gf16, [3, 0, 1])     # 3 + x^2
    r = p * q
    for x in range(16):
        assert r(x) == mul(gf16, p(x), q(x))
    assert Polynomial(gf16, [0]).degree == -1


def nullspace(M, ctx):
    """generator_matrix of the code whose parity check is M."""
    n = M.shape[1]
    code = ClassicalCode(n=n, k=n - rank(M, ctx), d_design=1,
                         H=np.array(M, dtype=np.int64), q=ctx.p, field=ctx)
    return generator_matrix(code)


def test_adjoint_identity_and_involution(gf9):
    I = np.eye(4, dtype=np.int64)
    assert np.array_equal(adjoint(I, 3, gf9), I)
    rng = np.random.default_rng(2)
    M = rng.integers(0, 9, (3, 5))
    assert np.array_equal(adjoint(adjoint(M, 3, gf9), 3, gf9), M)


def test_adjoint_of_all_ones_row(gf16):
    h0 = np.ones((1, 6), dtype=np.int64)
    adj = adjoint(h0, 4, gf16)
    assert adj.shape == (6, 1) and np.all(adj == 1)


def test_rank_examples(gf9):
    assert rank(np.zeros((3, 4), dtype=np.int64), gf9) == 0
    assert rank(np.eye(5, dtype=np.int64), gf9) == 5
    for shape in [(0, 4), (3, 0)]:
        assert rank(np.zeros(shape, dtype=np.int64), gf9) == 0


def test_gram_rank_of_small_cyclic_code():
    # q = 2, n = 5, Z = {0, 1, 4}: over GF(16) the Gram entry (z1, z2) of
    # the root rows is sum_j beta^{(z1 + 2 z2) j} = n [z1 + 2 z2 = 0 mod 5]
    # computed by geometric-sum expansion, so only the (0, 0) entry
    # survives; the trace rows over GF(4) have the same Gram rank.
    Z = defining_set("i", 2, delta=1, n=5)
    assert Z.sorted() == [0, 1, 4]
    code = constacyclic_code(2, Z)
    f4, _, beta = trace_root(code.field, 5)
    H_root = root_rows(f4, beta, Z.sorted(), 5)
    gram = matmul(H_root, adjoint(H_root, 2, f4), f4)
    hand = [[0] * 3 for _ in range(3)]
    for i, z1 in enumerate(Z.sorted()):
        for j, z2 in enumerate(Z.sorted()):
            s = 0
            for col in range(5):
                s = f4.add(s, f4.pow(beta, (z1 + 2 * z2) * col))
            hand[i][j] = s
    assert np.array_equal(gram, hand)
    assert rank(gram, f4) == 1
    assert rank(gram_matrix(code.H, 2, code.field), code.field) == 1


def test_mat_mul_identity_and_errors(gf9):
    rng = np.random.default_rng(0)
    A = rng.integers(0, 9, (3, 4))
    assert np.array_equal(matmul(A, np.eye(4, dtype=np.int64), gf9), A)
    with pytest.raises(ValueError):
        matmul(A, np.eye(3, dtype=np.int64), gf9)


def test_all_ones_gram_is_n_mod_p(gf9):
    # n | q^2-1 case: h0 h0^dag = [n mod p]
    h0 = np.ones((1, 4), dtype=np.int64)
    prod = matmul(h0, adjoint(h0, 3, gf9), gf9)
    assert prod.tolist() == [[4 % 3]]


def test_dual_containing_gram_vanishes():
    # Z1 = C_1 u C_2 for q = 4, n = 17 is Hermitian dual-containing
    elems = cyclotomic_coset(1, 17, 16) | cyclotomic_coset(2, 17, 16)
    from eaqmds.cosets import DefiningSet
    code = constacyclic_code(4, DefiningSet(17, 1, elems))
    H1, f = code.H, code.field
    assert not matmul(H1, adjoint(H1, 4, f), f).any()


def test_nullspace_identity_and_all_ones(gf9):
    assert nullspace(np.eye(4, dtype=np.int64), gf9).shape == (0, 4)
    empty = np.zeros((0, 4), dtype=np.int64)
    assert np.array_equal(nullspace(empty, gf9), np.eye(4))
    h0 = np.ones((1, 4), dtype=np.int64)
    G = nullspace(h0, gf9)
    assert G.shape[0] == 3
    assert not matmul(h0, G.T, gf9).any()
    assert rank(G, gf9) == 3


def test_nullspace_of_cyclic_code():
    code = constacyclic_code(4, defining_set("i", 4, delta=2))
    G = generator_matrix(code)
    assert G.shape[0] == 12
    assert not matmul(code.H, G.T, code.field).any()


@pytest.mark.parametrize("pm", [(2, 2), (3, 2), (5, 2)])
def test_rank_invariants(pm):
    ctx = build_field(*pm)
    rng = np.random.default_rng(9)
    for _ in range(8):
        M = rng.integers(0, ctx.order, (4, 6))
        assert rank(M, ctx) == rank(adjoint(M, ctx.p, ctx), ctx)
        G = nullspace(M, ctx)
        assert G.shape[0] == M.shape[1] - rank(M, ctx)
        assert rank(G, ctx) == G.shape[0]


@st.composite
def deficient_matrices(draw):
    """A random matrix whose last row is a multiple (maybe zero) of its
    first, with up to two zero columns."""
    ctx = build_field(*draw(st.sampled_from(
        [(2, 1), (2, 2), (2, 4), (3, 1), (3, 2), (3, 3), (5, 2)])))
    rows, cols = draw(st.integers(2, 6)), draw(st.integers(1, 9))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    M = rng.integers(0, ctx.order, (rows, cols)).astype(np.int64)
    scale = draw(st.integers(0, ctx.order - 1))
    M[-1] = [mul(ctx, scale, int(v)) for v in M[0]]
    for c in draw(st.lists(st.integers(0, cols - 1), max_size=2)):
        M[:, c] = 0
    return ctx, M


@settings(max_examples=80, deadline=None)
@given(deficient_matrices())
def test_nullspace_basis_property(case):
    ctx, M = case
    G = nullspace(M, ctx)
    ref_rank = len(ref_rref(M, ctx)[1])
    assert G.shape == (M.shape[1] - ref_rank, M.shape[1])
    assert not ref_matmul(M, G.T, ctx).any()
    assert len(ref_rref(G, ctx)[1]) == G.shape[0]


@pytest.mark.parametrize("pm", [(2, 2), (3, 2)])
def test_matmul_associativity(pm):
    ctx = build_field(*pm)
    rng = np.random.default_rng(13)
    for _ in range(5):
        A = rng.integers(0, ctx.order, (3, 4))
        B = rng.integers(0, ctx.order, (4, 2))
        C = rng.integers(0, ctx.order, (2, 5))
        assert np.array_equal(matmul(matmul(A, B, ctx), C, ctx),
                              matmul(A, matmul(B, C, ctx), ctx))


def test_rref_pivots(gf4):
    M = np.array([[0, 1, 2], [0, 2, 2]], dtype=np.int64)
    R, pivots = eliminate(M, gf4)
    assert pivots == [1, 2]
    assert R[0, 1] == 1 and R[1, 2] == 1


def test_matrix_ops_match_python_reference():
    rng = np.random.default_rng(21)
    # a small field and one of order 17^4 ~ 2^16, odd characteristic
    for ctx in (build_field(3, 2), build_field(17, 4)):
        data = rng.integers(0, ctx.order, (4, 7))
        data[3] = data[0]
        R_ref, pivots_ref = ref_rref(data, ctx)
        R, pivots = eliminate(data, ctx)
        assert rank(data, ctx) == len(pivots) == 3
        assert pivots == pivots_ref
        assert np.array_equal(R, R_ref)
        G = nullspace(data, ctx)
        assert G.shape[0] == 7 - len(pivots)
        assert not ref_matmul(data, G.T, ctx).any()
        other = rng.integers(0, ctx.order, (7, 3))
        assert np.array_equal(matmul(data, other, ctx),
                              ref_matmul(data, other, ctx))
