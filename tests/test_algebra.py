import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eaqmds.algebra import (
    Matrix,
    hermitian_adjoint,
    mat_mul,
    matrix_rank,
    nullspace_basis,
    rref,
)
from eaqmds.codes import constacyclic_code, constacyclic_context
from eaqmds.cosets import defining_set
from eaqmds.eaqecc import ebit_count
from eaqmds.galois import build_field
from reference import (
    Polynomial,
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
    alpha2 = gf9.mul(alpha, alpha)
    p = poly_from_roots(gf9, [alpha, alpha2])
    assert p.is_monic() and p.degree == 2
    # Vieta: x^2 - (a+b)x + ab
    assert p.coeffs[1] == gf9.neg(gf9.add(alpha, alpha2))
    assert p.coeffs[0] == gf9.mul(alpha, alpha2)
    assert p(alpha) == 0 and p(alpha2) == 0


def test_poly_from_roots_mixed_contexts(gf9, gf16):
    with pytest.raises(ValueError):
        poly_from_roots(gf9, [1]) * poly_from_roots(gf16, [1])


def test_polynomial_eval_and_mul(gf16):
    p = Polynomial(gf16, [1, 1])        # 1 + x
    q = Polynomial(gf16, [3, 0, 1])     # 3 + x^2
    r = p * q
    for x in range(16):
        assert r(x) == gf16.mul(p(x), q(x))
    assert Polynomial(gf16, [0]).degree == -1


def test_adjoint_identity_and_involution(gf9):
    I = Matrix(gf9, np.eye(4))
    assert hermitian_adjoint(I, 3) == I
    rng = np.random.default_rng(2)
    M = Matrix(gf9, rng.integers(0, 9, (3, 5)))
    assert hermitian_adjoint(hermitian_adjoint(M, 3), 3) == M


def test_adjoint_of_all_ones_row(gf16):
    h0 = Matrix(gf16, np.ones((1, 6), dtype=np.int64))
    adj = hermitian_adjoint(h0, 4)
    assert adj.shape == (6, 1) and np.all(adj.data == 1)


def test_rank_examples(gf9):
    assert matrix_rank(Matrix(gf9, np.zeros((3, 4), dtype=np.int64))) == 0
    assert matrix_rank(Matrix(gf9, np.eye(5))) == 5
    for shape in [(0, 4), (3, 0)]:
        assert matrix_rank(Matrix(gf9, np.zeros(shape, dtype=np.int64))) == 0


def test_gram_rank_of_small_cyclic_code():
    # q = 2, n = 5, Z = {0, 1, 4}: over GF(16) the Gram entry (z1, z2) of
    # the root rows is sum_j beta^{(z1 + 2 z2) j} = n [z1 + 2 z2 = 0 mod 5]
    # computed by geometric-sum expansion, so only the (0, 0) entry
    # survives; the trace rows over GF(4) have the same Gram rank.
    ctx = constacyclic_context(2, 5, 1)
    Z = defining_set("i", 2, delta=1, n=5)
    assert Z.sorted() == [0, 1, 4]
    f4, _, beta = trace_root(ctx)
    H_root = root_rows(f4, beta, Z.sorted(), 5)
    gram = mat_mul(H_root, hermitian_adjoint(H_root, 2))
    hand = [[0] * 3 for _ in range(3)]
    for i, z1 in enumerate(Z.sorted()):
        for j, z2 in enumerate(Z.sorted()):
            s = 0
            for col in range(5):
                s = f4.add(s, f4.pow(beta, (z1 + 2 * z2) * col))
            hand[i][j] = s
    assert gram == Matrix(f4, hand)
    assert matrix_rank(gram) == 1
    assert ebit_count(constacyclic_code(ctx, Z).H, 2) == 1


def test_mat_mul_identity_and_errors(gf9):
    rng = np.random.default_rng(0)
    A = Matrix(gf9, rng.integers(0, 9, (3, 4)))
    assert mat_mul(A, Matrix(gf9, np.eye(4))) == A
    with pytest.raises(ValueError):
        mat_mul(A, Matrix(gf9, np.eye(3)))
    with pytest.raises(ValueError):
        mat_mul(A, Matrix(build_field(2, 2), np.eye(4)))


def test_all_ones_gram_is_n_mod_p(gf9):
    # n | q^2-1 case: h0 h0^dag = [n mod p]
    h0 = Matrix(gf9, np.ones((1, 4), dtype=np.int64))
    prod = mat_mul(h0, hermitian_adjoint(h0, 3))
    assert prod.data.tolist() == [[4 % 3]]


def test_dual_containing_gram_vanishes():
    # Z1 = C_1 u C_2 for q = 4, n = 17 is Hermitian dual-containing
    from eaqmds.cosets import cyclotomic_coset
    ctx = constacyclic_context(4, 17, 1)
    elems = cyclotomic_coset(1, 17, 16) | cyclotomic_coset(2, 17, 16)
    from eaqmds.cosets import DefiningSet
    Z1 = DefiningSet(17, 1, elems)
    H1 = constacyclic_code(ctx, Z1).H
    assert mat_mul(H1, hermitian_adjoint(H1, 4)).is_zero()


def test_nullspace_identity_and_all_ones(gf9):
    assert nullspace_basis(Matrix(gf9, np.eye(4))).nrows == 0
    empty = Matrix(gf9, np.zeros((0, 4), dtype=np.int64))
    assert nullspace_basis(empty) == Matrix(gf9, np.eye(4))
    h0 = Matrix(gf9, np.ones((1, 4), dtype=np.int64))
    G = nullspace_basis(h0)
    assert G.nrows == 3
    assert mat_mul(h0, Matrix(gf9, G.data.T)).is_zero()
    assert matrix_rank(G) == 3


def test_nullspace_of_cyclic_code():
    ctx = constacyclic_context(4, 17, 1)
    Z = defining_set("i", 4, delta=2)
    H = constacyclic_code(ctx, Z).H
    G = nullspace_basis(H)
    assert G.nrows == 12
    assert mat_mul(H, Matrix(ctx.field, G.data.T)).is_zero()


@pytest.mark.parametrize("pm", [(2, 2), (3, 2), (5, 2)])
def test_rank_invariants(pm):
    ctx = build_field(*pm)
    rng = np.random.default_rng(9)
    for _ in range(8):
        M = Matrix(ctx, rng.integers(0, ctx.order, (4, 6)))
        assert matrix_rank(M) == matrix_rank(hermitian_adjoint(M, ctx.p))
        G = nullspace_basis(M)
        assert G.nrows == M.ncols - matrix_rank(M)
        assert matrix_rank(G) == G.nrows


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
    M[-1] = [ctx.mul(scale, int(v)) for v in M[0]]
    for c in draw(st.lists(st.integers(0, cols - 1), max_size=2)):
        M[:, c] = 0
    return ctx, M


@settings(max_examples=80, deadline=None)
@given(deficient_matrices())
def test_nullspace_basis_property(case):
    ctx, M = case
    G = nullspace_basis(Matrix(ctx, M)).data
    rank = len(ref_rref(M, ctx)[1])
    assert G.shape == (M.shape[1] - rank, M.shape[1])
    assert not ref_matmul(M, G.T, ctx).any()
    assert len(ref_rref(G, ctx)[1]) == G.shape[0]


@pytest.mark.parametrize("pm", [(2, 2), (3, 2)])
def test_matmul_associativity(pm):
    ctx = build_field(*pm)
    rng = np.random.default_rng(13)
    for _ in range(5):
        A = Matrix(ctx, rng.integers(0, ctx.order, (3, 4)))
        B = Matrix(ctx, rng.integers(0, ctx.order, (4, 2)))
        C = Matrix(ctx, rng.integers(0, ctx.order, (2, 5)))
        assert mat_mul(mat_mul(A, B), C) == mat_mul(A, mat_mul(B, C))


def test_rref_pivots(gf4):
    M = Matrix(gf4, [[0, 1, 2], [0, 2, 2]])
    R, pivots = rref(M)
    assert pivots == (1, 2)
    assert R.data[0, 1] == 1 and R.data[1, 2] == 1


def test_matrix_ops_match_python_reference():
    rng = np.random.default_rng(21)
    # a small field and one of order 17^4 ~ 2^16, odd characteristic
    for ctx in (build_field(3, 2), build_field(17, 4)):
        data = rng.integers(0, ctx.order, (4, 7))
        data[3] = data[0]
        M = Matrix(ctx, data)
        R_ref, pivots_ref = ref_rref(M.data, ctx)
        R, pivots = rref(M)
        assert matrix_rank(M) == len(pivots) == 3
        assert pivots == tuple(pivots_ref)
        assert np.array_equal(R.data, R_ref)
        G = nullspace_basis(M)
        assert G.nrows == 7 - len(pivots)
        assert not ref_matmul(M.data, G.data.T, ctx).any()
        other = rng.integers(0, ctx.order, (7, 3))
        assert np.array_equal(mat_mul(M, Matrix(ctx, other)).data,
                              ref_matmul(M.data, other, ctx))


def test_matrix_validation(gf4):
    with pytest.raises(ValueError):
        Matrix(gf4, [[5]])
    with pytest.raises(ValueError):
        Matrix(gf4, [1, 2])
