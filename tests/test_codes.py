import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from eaqmds import codes, kernels
from eaqmds.cli import main
from eaqmds.codes import (
    _power_table,
    _trace_table,
    constacyclic_code,
    generator_matrix,
)
from eaqmds.cosets import DefiningSet, omega_run
from eaqmds.eaqecc import gram_matrix
from eaqmds.galois import build_field, factor_prime_power, prime_factors
from reference import (
    divisors,
    mul,
    poly_from_roots,
    ref_defining_set,
    ref_order,
    ref_rref,
    root_rows,
    trace_root,
)


def _empty(n, r=1):
    return DefiningSet(r * n, r, 0, 0)


def test_constacyclic_code_picks_evaluation_field():
    # 17 | q^2+1 for q = 4: the roots lie in GF(256), their traces in GF(16)
    code = constacyclic_code(4, _empty(17))
    assert code.field.order == 16
    f4, _, beta = trace_root(code.field, 17)
    assert f4.order == 256 and ref_order(f4, beta) == 17
    # 24 = q^2-1 for q = 5 stays in GF(25)
    assert constacyclic_code(5, _empty(24)).field.order == 25
    with pytest.raises(ValueError, match="divides neither"):
        constacyclic_code(4, _empty(7))     # 7 divides neither 15 nor 17
    with pytest.raises(ValueError, match="divides neither"):
        constacyclic_code(4, _empty(17, 3))  # n | q^2+1 needs r = 1
    with pytest.raises(ValueError, match="gcd"):
        constacyclic_code(4, _empty(8))     # gcd(n, q) != 1


def test_constacyclic_code_17_12_6():
    code = constacyclic_code(4, ref_defining_set("i", 4, delta=2))
    assert (code.n, code.k, code.d_design) == (17, 12, 6)
    assert code.H.shape == (5, 17)
    assert kernels.rank(code.H, code.field) == 5


def test_constacyclic_code_family_iv():
    code = constacyclic_code(5, ref_defining_set("iv", 5, delta1=1, delta2=3))
    assert (code.n, code.k, code.d_design) == (12, 7, 6)
    assert code.field.order == 25


def test_empty_defining_set_gives_full_space():
    code = constacyclic_code(5, _empty(24))
    assert (code.n, code.k, code.d_design) == (24, 24, 1)
    assert np.array_equal(generator_matrix(code), np.eye(24))
    # the same through the trace rows of family i
    code = constacyclic_code(4, _empty(17))
    assert (code.n, code.k, code.H.shape) == (17, 17, (0, 17))


def test_codewords_vanish_at_defining_set_roots():
    Z = ref_defining_set("iii", 5, delta=2)
    code = constacyclic_code(5, Z)
    G = generator_matrix(code)
    f = code.field
    eta = int(f.exp[(f.order - 1) // 24])
    for z in Z.sorted():
        root = f.pow(eta, z)
        for row in G:
            acc, x = 0, 1
            for cj in row:
                acc = f.add(acc, mul(f, int(cj), x))
                x = mul(f, x, root)
            assert acc == 0


@pytest.mark.parametrize("q,n,r,family,kwargs", [
    (4, 17, 1, "i", {"delta": 2}),
    (5, 12, 2, "iv", {"delta1": 1, "delta2": 3}),
    (11, 40, 3, "v", {"t": 3, "delta1": 4, "delta2": 5}),
])
def test_constacyclic_shift_invariance(q, n, r, family, kwargs):
    """(c_1..c_n) in C implies (lam*c_n, c_1, .., c_{n-1}) in C, for
    lam = eta^n a primitive r-th root of unity: 1 (cyclic), -1
    (negacyclic) and of order t = 3 (family v)."""
    code = constacyclic_code(q, ref_defining_set(family, q, **kwargs))
    assert code.n == n
    G = generator_matrix(code)
    f = code.field
    lam = int(f.exp[(f.order - 1) // r])
    assert ref_order(f, lam) == r
    shifted = np.zeros_like(G)
    shifted[:, 1:] = G[:, :-1]
    for i in range(G.shape[0]):
        shifted[i, 0] = mul(f, lam, int(G[i, -1]))
    assert not kernels.matmul(code.H, shifted.T, f).any()


def _rs_code(qm, r):
    """Reed-Solomon code of length qm-1 over GF(qm), qm = q^2: roots
    eta^1, ..., eta^{r-1}; parameters [qm-1, qm-r, r]."""
    q = round(qm ** 0.5)
    Z = omega_run(qm - 1, 1, 1, r - 1)
    return constacyclic_code(q, Z)


def test_rs_parity_check():
    triv = _rs_code(16, 1)
    assert (triv.n, triv.k, triv.d_design) == (15, 15, 1)
    assert triv.H.shape[0] == 0
    code = _rs_code(16, 3)
    assert (code.n, code.k, code.d_design) == (15, 13, 3)
    assert code.H.shape == (2, 15)
    # rows are alpha^{i j}
    f = code.field
    for i in range(1, 3):
        for j in range(15):
            assert code.H[i - 1, j] == f.pow(f.generator, i * j)


def test_rs_8_5_4_is_mds():
    code = _rs_code(9, 4)
    assert (code.n, code.k, code.d_design) == (8, 5, 4)
    assert kernels.cauchy_certificate(generator_matrix(code), code.field) is True


@pytest.mark.parametrize("qm", [4, 9, 16, 25])
def test_rs_parameter_sweep(qm):
    for r in range(1, qm - 2):
        code = _rs_code(qm, r)
        assert (code.n, code.k, code.d_design) == (qm - 1, qm - r, r)
        assert code.k == code.n - kernels.rank(code.H, code.field)


def extended_rs(q, r):
    """The extended RS code [q^2, q^2-r, r+1]: the cyclic RS code of the
    run 0..r-1 modulo q^2-1 with the point 0."""
    return constacyclic_code(q, omega_run(q * q - 1, 1, 0, r - 1), True)


def test_extended_rs_examples():
    code = extended_rs(3, 3)
    assert (code.n, code.k, code.d_design) == (9, 6, 4)
    code = extended_rs(5, 5)
    assert (code.n, code.k, code.d_design) == (25, 20, 6)
    parity = extended_rs(3, 1)
    assert (parity.n, parity.k, parity.d_design) == (9, 8, 2)
    assert np.all(parity.H == 1)
    # the point 0 extends power rows only
    with pytest.raises(ValueError, match="divides neither"):
        constacyclic_code(4, omega_run(17, 1, 0, 0), point0=True)


def test_extended_rs_structure():
    code = extended_rs(3, 3)
    f = code.field
    # first evaluation point is 0 with 0^0 = 1 in the all-ones row
    assert np.all(code.H[0] == 1)
    assert code.H[1, 0] == 0 and code.H[2, 0] == 0
    # remaining points enumerate the nonzero field elements once
    assert sorted(code.H[1, 1:].tolist()) == sorted(range(1, 9))
    # H[i, j] = point_j^i for the points 0, g^0, g^1, ...
    points = [0] + [f.pow(f.generator, j) for j in range(8)]
    for i in range(3):
        assert code.H[i].tolist() == [f.pow(x, i) for x in points]


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_extended_rs_parameter_sweep(q):
    for r in range(1, q * q - 2):
        code = extended_rs(q, r)
        assert (code.n, code.k, code.d_design) == (q * q, q * q - r, r + 1)
        assert kernels.rank(code.H, code.field) == r


def test_generator_matrix_nullspace():
    code = extended_rs(3, 3)
    G = generator_matrix(code)
    assert G.shape[0] == 6
    assert not kernels.matmul(code.H, G.T, code.field).any()


def test_subfield_subcode_structure():
    """[17,12,6] over GF(16) is the GF(16)-subfield subcode of the code
    with roots beta^z in GF(256): g(x) = prod (x - beta^z) has GF(16)
    coefficients and every codeword vanishes at the roots."""
    code = constacyclic_code(4, ref_defining_set("i", 4, delta=2))
    assert code.field.order == 16
    f4, emb, beta = trace_root(code.field, 17)
    zs = code.defining_set.sorted()
    g = poly_from_roots(f4, [f4.pow(beta, z) for z in zs])
    assert g.is_monic() and g.degree == 5
    assert set(g.coeffs) <= set(emb.tolist())
    G = generator_matrix(code)
    assert G.shape[0] == 12 and kernels.rank(G, code.field) == 12
    H_root = root_rows(f4, beta, zs, 17)
    assert not kernels.matmul(emb[G], H_root.T, f4).any()


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8])
def test_family_i_matches_root_evaluation(q):
    """Trace rows over GF(q^2) against root rows over GF(q^4), for every
    n | q^2+1 with n > 2 and every delta, plus the sets {n/2} (in no
    family-i set) and Z_n: codewords vanish at the roots, the ebit counts
    agree, and the table's beta has order exactly n."""
    p, e = factor_prime_power(q)
    f = build_field(p, 2 * e)
    for n in range(3, q * q + 2):
        if (q * q + 1) % n:
            continue
        f4, emb, beta = trace_root(f, n)
        assert ref_order(f4, beta) == n
        assert emb[_trace_table(f, n)].tolist() == [
            f4.add(f4.pow(beta, m), f4.pow(beta, -m)) for m in range(n)]
        sets = [ref_defining_set("i", q, delta=delta, n=n)
                for delta in range(n // (q + 1) + 1)]
        sets.append(omega_run(n, 1, 0, n - 1))
        if n % 2 == 0:
            sets.append(omega_run(n, 1, n // 2, n // 2))
        for Z in sets:
            code = constacyclic_code(q, Z)
            assert code.field is f
            H_root = root_rows(f4, beta, Z.sorted(), n)
            G = emb[generator_matrix(code)]
            assert not kernels.matmul(G, H_root.T, f4).any()
            gram = kernels.matmul(H_root, kernels.adjoint(H_root, q, f4), f4)
            c = kernels.rank(gram_matrix(code.H, q, code.field), code.field)
            assert c == kernels.rank(gram, f4)


@pytest.mark.parametrize("q", [q for q in range(2, 33)
                               if len(prime_factors(q)) == 1])
def test_trace_tables_are_strided_views_of_one_sequence(q):
    """For every n | q^2+1, tr = _trace_table(f, n) over f = GF(q^2) has
    tr[0] = 2 and tr[m] != 2 for 0 < m < n, so its beta has order exactly
    n; obeys tr[m+1] = tr[1] tr[m] - tr[m-1] with indices mod n, so it is
    the Lucas sequence of tr[1] over one period; and is a read-only view
    of the field's one trace sequence."""
    p, e = factor_prime_power(q)
    f = build_field(p, 2 * e)
    two = f.add(1, 1)
    for n in divisors(q * q + 1):
        table = _trace_table(f, n)
        tr = table.tolist()
        assert len(tr) == n and tr[0] == two and two not in tr[1:]
        s = tr[1 % n]
        for m in range(n):
            step = f.add(mul(f, s, tr[m]), f.neg(tr[m - 1]))
            assert tr[(m + 1) % n] == step
        assert np.shares_memory(table, codes._trace_sequence(f))
        assert not table.flags.writeable


def test_one_trace_sequence_per_field(capsys):
    """verify --lemma rank1 --q 2..9 reads 15 trace tables over the 7
    fields GF(q^2) and builds the sequence once per field."""
    codes._trace_sequence.cache_clear()
    with mock.patch.object(codes, "_trace_table",
                           wraps=codes._trace_table) as reads:
        assert main(["verify", "--lemma", "rank1", "--q", "2..9"]) == 0
    capsys.readouterr()
    built = codes._trace_sequence.cache_info()
    assert built.misses == built.currsize == 7
    tables = {(call.args[0].order, call.args[1])
              for call in reads.call_args_list}
    assert len(tables) == 15


def test_trace_rows_need_a_symmetric_defining_set():
    with pytest.raises(ValueError, match="not closed"):
        constacyclic_code(4, omega_run(17, 1, 1, 1))


def test_singleton_bound_enforced():
    from eaqmds.codes import ClassicalCode
    code = constacyclic_code(5, ref_defining_set("iii", 5, delta=1))
    with pytest.raises(ValueError):
        ClassicalCode(n=code.n, k=code.k, d_design=code.n - code.k + 2,
                      H=code.H, q=5, field=code.field)


def test_code_record():
    code = extended_rs(3, 3)
    assert (code.n, code.k, code.d_design) == (9, 6, 4)
    assert code.field.order == 9
    cyc = constacyclic_code(4, ref_defining_set("i", 4, delta=1))
    assert cyc.defining_set.sorted() == [0, 1, 16]
    assert cyc.field is extended_rs(4, 5).field
    # H is a read-only int64 array of element codes
    for c in (code, cyc):
        assert c.H.dtype == np.int64 and not c.H.flags.writeable


def _rank_shapes(spy):
    return [call.args[0].shape for call in spy.call_args_list]


def _spy_rank():
    return mock.patch.object(kernels, "rank", wraps=kernels.rank)


def _patch_power_table(table):
    """Make constacyclic_code read its roots
    eta^m from `table`."""
    return mock.patch.object(codes, "_power_table", return_value=table)


class _Rows:
    """A stand-in root table: every block of rows read off it is H."""

    def __init__(self, H):
        self.H = H

    def __getitem__(self, index):
        return self.H


def _patch_rows(q, Z, H):
    """Make constacyclic_code(q, Z) take H as its power or trace rows."""
    if codes._traced(q, Z):
        return mock.patch.object(codes, "_trace_rows", return_value=H)
    return _patch_power_table(_Rows(H))


REFUSED = "leading {0} x {0} block of H fails its rank proof"


def _build(q, Z, patch):
    """(built, eliminations): whether constacyclic_code(q, Z) builds
    under `patch`, and the calls that reached kernels.rank or
    kernels._forward.  A refused build raises the rank-proof error."""
    with patch, _spy_rank() as rank, mock.patch.object(
            kernels, "_forward", wraps=kernels._forward) as forward:
        try:
            constacyclic_code(q, Z)
            built = True
        except codes.VerificationError as err:
            assert str(err) == REFUSED.format(len(Z))
            built = False
    return built, rank.call_count + forward.call_count


def test_power_rows_are_proved_with_no_elimination():
    # the leading block is Vandermonde in the distinct points eta^z
    with _spy_rank() as spy:
        code = constacyclic_code(5, ref_defining_set("iii", 5, delta=2))
    assert code.k == 24 - code.H.shape[0]
    assert _rank_shapes(spy) == []


def test_trace_rows_are_proved_with_no_elimination():
    # family i at q = 4: Z = {0, +-1, +-2}, rows 1, tr[zj] and tr[z(j+1)]
    with _spy_rank() as spy:
        code = constacyclic_code(4, ref_defining_set("i", 4, delta=2))
    rows = code.H.shape[0]
    assert (rows, code.k) == (5, 12)
    assert codes._lucas_vandermonde(code.H[:, :rows], code.field)
    assert _rank_shapes(spy) == []


def _prime_power(q):
    return len(prime_factors(q)) == 1


def test_every_family_i_block_passes_the_trace_check():
    """Every family i code at q <= 32, each n | q^2+1 and each delta
    (470 codes): trace rows pass _lucas_vandermonde, and no build
    eliminates."""
    traced = 0
    with _spy_rank() as spy:
        for q in filter(_prime_power, range(2, 33)):
            for n in range(2, q * q + 2):
                if (q * q + 1) % n:
                    continue
                for delta in range(n // (q + 1) + 1):
                    code = constacyclic_code(
                        q, ref_defining_set("i", q, n=n, delta=delta))
                    if codes._traced(q, code.defining_set):
                        rows = code.H.shape[0]
                        assert codes._lucas_vandermonde(code.H[:, :rows],
                                                        code.field)
                        traced += 1
    assert traced > 400
    assert _rank_shapes(spy) == []


def _traced_set(rows):
    """A defining set of `rows` elements that takes trace rows at q = 5,
    since n = 26 divides 5^2+1; _patch_rows supplies the rows."""
    return omega_run(26, 1, 0, rows - 1)


@pytest.mark.parametrize("q, n, delta, tamper", [
    (4, 17, 2, "entry"),        # tr[2] changed: the recurrence breaks
    (4, 17, 2, "start"),        # tr[0] changed: a_0 != 2
    (7, 50, 6, "period 5"),     # z = 5 gives s = 2; z = 1, 4 equal s
    (7, 50, 6, "period 10"),    # z = 5 gives s = -2; z = 4, 6 equal s
    (5, 26, 4, "period 2"),     # every s is +-2
])
def test_tampered_trace_table_is_refused(q, n, delta, tamper):
    # whether or not the tampered block is singular, trace rows that
    # contradict their kind fail the trace proof, and nothing eliminates
    Z = ref_defining_set("i", q, n=n, delta=delta)
    f = constacyclic_code(q, Z).field
    table = _trace_table(f, n).copy()
    if tamper == "entry":
        table[2] = f.add(table[2], 1)
    elif tamper == "start":
        table[0] = 1
    else:
        period = int(tamper.split()[1])
        table = _trace_table(f, period)[np.arange(n) % period]
    B = codes._trace_rows(table, Z, f)[:, :len(Z)]
    assert not codes._lucas_vandermonde(B, f)
    patch = mock.patch.object(codes, "_trace_table", return_value=table)
    assert _build(q, Z, patch) == (False, 0)


def _lucas_pair(f, s, cols):
    """Rows a_j = V_j(s) and b_j = V_{j+1}(s), j < cols, of the Lucas
    sequence V_0 = 2, V_1 = s, V_{j+1} = s V_j - V_{j-1}."""
    V = [f.add(1, 1), s]
    while len(V) <= cols:
        V.append(f.add(mul(f, s, V[-1]), f.neg(V[-2])))
    return [V[:cols], V[1:cols + 1]]


def _trace_block(f, ss, ones=False, alternating=False):
    """Square block: the all-ones row, a Lucas pair for each s, the row
    ((-1)^j), as _trace_rows lays out trace rows."""
    rows = 2 * len(ss) + ones + alternating
    B = [[1] * rows] if ones else []
    for s in ss:
        B += _lucas_pair(f, s, rows)
    if alternating:
        B.append([f.neg(1) if j % 2 else 1 for j in range(rows)])
    return np.array(B, dtype=np.int64)


def _singular_by_theory(f, ss, ones, alternating):
    two = f.add(1, 1)
    return (len(set(ss)) < len(ss) or two in ss or f.neg(two) in ss
            or (ones and alternating and f.p == 2))


@pytest.mark.parametrize("ss, ones, alternating", [
    (["2"], False, False),           # s = 2: both rows (2, 2, 2, ...)
    (["2", 7], True, False),         # s = 2 beside the all-ones row
    (["-2"], False, True),           # s = -2: rows 2 (-1)^j, -2 (-1)^j
    ([7, 7], False, False),          # two equal s
    ([3, 7, 3], True, True),         # two equal s among three
])
def test_degenerate_trace_pairs_are_refused(ss, ones, alternating):
    f = build_field(5, 2)
    two = f.add(1, 1)
    ss = [{"2": two, "-2": f.neg(two)}.get(s, s) for s in ss]
    B = _trace_block(f, ss, ones, alternating)
    assert _singular_by_theory(f, ss, ones, alternating)
    assert not codes._lucas_vandermonde(B, f)
    assert len(ref_rref(B, f)[1]) < len(B)
    Z = _traced_set(len(B))
    assert _build(5, Z, _patch_rows(5, Z, B)) == (False, 0)


def _geometric_pair(f, x, cols):
    """Rows c x^j and c x^(j+1) with c = 1 + x^-2: they obey a_{j+1} =
    s a_j - a_{j-1} for s = a_1 = x + 1/x and b_j = a_{j+1}, but a_0 = c
    is not 2, and the rows are proportional."""
    c = f.add(1, f.pow(x, -2))
    return [[mul(f, c, f.pow(x, j)) for j in range(cols)],
            [mul(f, c, f.pow(x, j + 1)) for j in range(cols)]]


def _scaled_pair(f, s, cols):
    """The Lucas row a of s, and for b the multiple of a that agrees with
    a_cols in its last entry: the recurrence and a_0 = 2 hold, b is not a
    shifted by one, and the rows are proportional."""
    a, b = _lucas_pair(f, s, cols)
    c = mul(f, b[-1], f.pow(a[-1], -1))
    return [a, [mul(f, c, v) for v in a]]


@pytest.mark.parametrize("pair", [_geometric_pair, _scaled_pair],
                         ids=["a_0 not 2", "b not a shifted"])
def test_pairs_must_be_lucas_shifts(pair):
    f = build_field(5, 2)
    B = np.array([[1] * 3] + pair(f, int(f.exp[1]), 3), dtype=np.int64)
    assert len(ref_rref(B, f)[1]) < 3
    assert not codes._lucas_vandermonde(B, f)
    Z = _traced_set(3)
    assert _build(5, Z, _patch_rows(5, Z, B)) == (False, 0)


@st.composite
def trace_block_cases(draw):
    """(field, B, valid): B laid out as trace rows from Lucas pairs of
    arbitrary s, repeats and +-2 included, then perhaps one entry
    altered; valid when no entry was altered and the points 1, x^+-1
    and -1 are pairwise distinct by theory."""
    f = build_field(*draw(st.sampled_from(VANDERMONDE_FIELDS)))
    ss = draw(st.lists(st.integers(0, f.order - 1), min_size=0, max_size=4))
    ones, alternating = draw(st.booleans()), draw(st.booleans())
    assume(ss or ones or alternating)
    B = _trace_block(f, ss, ones, alternating)
    altered = draw(st.booleans())
    if altered:
        i, j = draw(st.integers(0, len(B) - 1)), draw(st.integers(0, len(B) - 1))
        B[i, j] = draw(st.sampled_from(
            [v for v in range(f.order) if v != B[i, j]]))
    valid = not altered and not _singular_by_theory(f, ss, ones, alternating)
    return f, B, valid


@settings(max_examples=200, deadline=None)
@given(trace_block_cases())
def test_trace_block_check_is_sound(case):
    """A passing block is nonsingular by the reference, and every block
    laid out from distinct s other than +-2 passes."""
    f, B, valid = case
    lucas = codes._lucas_vandermonde(B, f)
    if lucas:
        assert len(ref_rref(B, f)[1]) == len(B)
    if valid:
        assert lucas


def test_singular_leading_block_fails_the_build():
    # with eta^2 replaced by eta, rows z = 1, 2 agree in columns 0 and 1
    # (eta^0, eta^1) but not in column 2 (eta^1 against eta^4): the rows
    # are independent, but no accepted defining set gives such a block,
    # so the power proof refuses it and nothing eliminates
    table = _power_table(build_field(5, 2), 24).copy()
    table[2] = table[1]
    Z = omega_run(24, 1, 1, 2)
    assert _build(5, Z, _patch_power_table(table)) == (False, 0)


def test_rank_deficient_parity_check_still_raises():
    flat = np.ones(24, dtype=np.int64)
    Z = omega_run(24, 1, 1, 2)
    assert _build(5, Z, _patch_power_table(flat)) == (False, 0)


def test_extended_rs_rows_get_a_rank_proof():
    # power rows in the points g^i are proved with no elimination; with
    # every point 1 the build refuses H
    with _spy_rank() as spy:
        extended_rs(5, 9)
    assert _rank_shapes(spy) == []
    flat = np.ones(24, dtype=np.int64)
    with _patch_power_table(flat), pytest.raises(
            codes.VerificationError, match=f"^{REFUSED.format(3)}$"):
        extended_rs(5, 3)


@pytest.mark.parametrize("q", [q for q in range(2, 33) if _prime_power(q)])
def test_extended_rs_rows_are_cyclic_rs_rows_after_the_point_0(q):
    # H = [e0 | rows 0..r-1 of the cyclic RS code mod q^2-1], and row i
    # holds the powers point^i of 0, g^0, g^1, ..., g^{q^2-2}
    p, e = factor_prime_power(q)
    f = build_field(p, 2 * e)
    for r in sorted({1, q, 2 * q - 2, q * q - 2}):
        H = extended_rs(q, r).H
        rs = constacyclic_code(q, omega_run(q * q - 1, 1, 0, r - 1))
        assert (H[:, 0] == np.eye(r, 1, dtype=np.int64)[:, 0]).all()
        assert (H[:, 1:] == rs.H).all()
        i, j = np.arange(r)[:, None], np.arange(q * q - 1)
        assert (H[:, 1:] == f.exp[i * j % (q * q - 1)]).all()


# GF(4), GF(9), GF(16), GF(25), GF(49)
VANDERMONDE_FIELDS = [(2, 2), (3, 2), (2, 4), (5, 2), (7, 2)]


def _vandermonde_block(f, points):
    """(x_i^j) for 0 <= i, j < len(points), with 0^0 = 1."""
    return np.array([[f.pow(int(x), j) for j in range(len(points))]
                     for x in points], dtype=np.int64)


@st.composite
def vandermonde_cases(draw):
    """(field, H, spoil): H = [B | C], B square Vandermonde in distinct
    nonzero points, then spoiled by a repeated point, a zero point, or
    one entry of a column other than 1 altered to another nonzero value;
    C holds random columns."""
    f = build_field(*draw(st.sampled_from(VANDERMONDE_FIELDS)))
    top = f.order - 1
    spoil = draw(st.sampled_from(["none", "repeat", "zero", "alter"]))
    rows = draw(st.integers(1 if spoil == "none" else 2, min(6, top)))
    points = [int(f.exp[e]) for e in draw(st.permutations(range(top)))[:rows]]
    if spoil == "repeat":
        i, k = draw(st.lists(st.integers(0, rows - 1), min_size=2,
                             max_size=2, unique=True))
        points[k] = points[i]
    elif spoil == "zero":
        points[draw(st.integers(0, rows - 1))] = 0
    B = _vandermonde_block(f, points)
    if spoil == "alter":
        i = draw(st.integers(0, rows - 1))
        j = draw(st.sampled_from([0, *range(2, rows)]))
        B[i, j] = draw(st.sampled_from(
            [v for v in range(1, f.order) if v != B[i, j]]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    C = rng.integers(0, f.order, (rows, draw(st.integers(0, 4))))
    return f, np.concatenate([B, C], axis=1), spoil


def _vandermonde_case(pm, points, spoil="none"):
    f = build_field(*pm)
    return f, _vandermonde_block(f, points), spoil


@settings(max_examples=200, deadline=None)
@given(vandermonde_cases())
# a zero point in a 2 x 2 block, (1, 0) over (1, x), passes the log test
@example(case=_vandermonde_case((3, 2), [0, 1], "zero"))
# the rows of a repeated point agree in every log step
@example(case=_vandermonde_case((3, 2), [2, 2], "repeat"))
def test_vandermonde_certificate_matches_reference(case):
    f, H, spoil = case
    rows = H.shape[0]
    certified = codes._vandermonde(H[:, :rows], f)
    assert certified == (spoil == "none")
    if certified:
        assert len(ref_rref(H[:, :rows], f)[1]) == rows
    # power rows H over GF(q^2) build iff certified, with no elimination
    q = round(f.order ** 0.5)
    Z = omega_run(q * q - 1, 1, 0, rows - 1)
    assert _build(q, Z, _patch_rows(q, Z, H)) == (certified, 0)


def test_vandermonde_certificate_needs_nonzero_entries():
    # over GF(4) = {0, 1, g, g^2}: rows (1, g, 0), (1, 1, 1), (1, g^2, g)
    # are singular, and log 0 = -1 meets the log test of row 0 in column 2
    # (-1 = 2 log g mod 3); only the zero test rejects the block
    f = build_field(2, 2)
    g = int(f.exp[1])
    B = np.array([[1, g, 0], [1, 1, 1], [1, mul(f, g, g), g]], dtype=np.int64)
    assert len(ref_rref(B, f)[1]) < 3
    assert not codes._vandermonde(B, f)
    assert codes._vandermonde(np.ones((1, 1), dtype=np.int64), f)
    assert not codes._vandermonde(np.zeros((1, 1), dtype=np.int64), f)


def _forward_calls(argv):
    """The matrices sent to kernels._forward while the CLI runs argv, and
    the calls of the rank proofs of power and trace rows."""
    shapes = []
    forward = kernels._forward

    def spy(M, ctx):
        shapes.append(M.shape)
        return forward(M, ctx)

    with mock.patch.object(kernels, "_forward", spy), mock.patch.object(
            codes, "_vandermonde", wraps=codes._vandermonde) as power, \
            mock.patch.object(codes, "_lucas_vandermonde",
                              wraps=codes._lucas_vandermonde) as trace:
        assert main(argv) == 0
    return shapes, power.call_count + trace.call_count


def test_consta_sweep_work_is_proportional_to_rank():
    """A deterministic work count in place of a timing test: nothing
    reaches the forward elimination during the consta sweep over q =
    5..29 (171,476 cells when every rank proof and every Gram rank
    eliminated full matrices): its 10 rank proofs are Vandermonde blocks
    and its ebit counts and cross ranks monomial Gram blocks."""
    shapes, proofs = _forward_calls(["verify", "--lemma", "consta",
                                     "--q", "5..29"])
    assert shapes == []
    assert proofs == 10


@pytest.mark.parametrize("argv", [["verify"],
                                  ["enumerate", "--q", "2..16", "--t", "3"]],
                         ids=" ".join)
def test_record_paths_eliminate_nothing(capsys, argv):
    # family i's trace rows included: every rank proof and every ebit
    # count is read off the matrix's structure
    shapes, proofs = _forward_calls(argv)
    assert shapes == []
    assert proofs > 0


def test_family_groups_build_with_no_rank_call(capsys):
    # every family group up to q = 32: each parity check is proved by its
    # row kind
    shapes, proofs = _forward_calls(["enumerate", "--q", "2..32", "--t", "3"])
    records = json.loads(capsys.readouterr().out)["records"]
    groups = {(r["family"], r["q"]) for r in records}
    assert shapes == [] and proofs == len(groups) > 0
