import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eaqmds import galois, kernels
from eaqmds.codes import _trace_table, constacyclic_code
from eaqmds.cosets import defining_set
from eaqmds.galois import (
    FieldContext,
    build_field,
    factor_prime_power,
    is_prime,
    prime_factors,
    smallest_irreducible,
)
from eaqmds.kernels import adjoint
from reference import (
    digits,
    mul,
    ref_order,
    ref_poly_mul,
    ref_poly_pow,
)


def test_build_field_orders(gf16, gf9, gf256):
    assert gf16.order == 16 and gf16.order - 1 == 15
    assert gf9.order == 9  # F_{q^2} for q = 3
    assert gf256.order == 256


def test_splitting_field_for_17th_roots():
    # ord_17(16) = 2, so the 17th roots of unity over GF(16) live in GF(256),
    # and family i at q = 4 keeps only their traces, in GF(16)
    assert pow(16, 1, 17) != 1 and pow(16, 2, 17) == 1
    assert (build_field(2, 8).order - 1) % 17 == 0
    code = constacyclic_code(4, defining_set("i", 4, delta=1))
    assert code.field.order == 16 and code.H.shape == (3, 17)
    assert len(_trace_table(code.field, 17)) == 17


def test_build_field_errors():
    with pytest.raises(ValueError):
        build_field(4, 1)  # not prime
    with pytest.raises(ValueError):
        build_field(6, 2)
    with pytest.raises(ValueError):
        build_field(2, 0)
    with pytest.raises(ValueError):
        build_field(2, 21)  # 2^21 above the size ceiling


def test_modulus_validation():
    with pytest.raises(ValueError, match="not monic of degree 4"):
        FieldContext(2, 4, (1, 1, 1))  # wrong degree
    with pytest.raises(ValueError, match="not monic of degree 2"):
        FieldContext(2, 2, (1, 1, 0))  # not monic
    # digits outside [0, p) would be recorded as a modulus no field has
    for modulus in [(4, 0, 1), (-2, 0, 1), (1, 3, 1)]:
        with pytest.raises(ValueError, match=re.escape(
                f"modulus {modulus} has a digit outside [0, 3)")):
            FieldContext(3, 2, modulus)
    with pytest.raises(ValueError, match="^p=4 is not prime$"):
        FieldContext(4, 1, (1, 1))
    with pytest.raises(ValueError, match="^m=0 is below 1$"):
        FieldContext(3, 0, (1,))
    # a reducible modulus (x^4 + 1 = (x + 1)^4, x^2 + 2 = (x + 1)(x + 2))
    # is bad input, named in the error
    for p, m, modulus in [(2, 4, (1, 0, 0, 0, 1)), (3, 2, (2, 0, 1))]:
        with pytest.raises(ValueError, match=re.escape(
                f"modulus {modulus} is reducible over GF({p})")):
            FieldContext(p, m, modulus)
    alt = FieldContext(5, 2, (3, 0, 1))
    assert alt.modulus == (3, 0, 1) and alt is not build_field(5, 2)
    assert ref_order(alt, alt.generator) == 24


def test_field_arith_examples(gf9):
    g = gf9.generator
    for a in range(gf9.order):
        assert mul(gf9, a, 1) == a
        assert gf9.add(a, gf9.neg(a)) == 0
        if a:
            assert mul(gf9, a, gf9.pow(a, -1)) == 1
    # g * g^7 = 1 since g^8 = 1 by Lagrange
    assert mul(gf9, g, gf9.pow(g, 7)) == 1


# GF(2), GF(4), GF(3), GF(9), GF(25), GF(27) and GF(17^4)
ADD_FIELDS = [(2, 1), (2, 2), (3, 1), (3, 2), (5, 2), (3, 3), (17, 4)]


def digit_sum(a, b, p, m):
    return sum((x + y) % p * p**i for i, (x, y) in enumerate(zip(
        digits(a, p, m), digits(b, p, m))))


def digit_neg(a, p, m):
    return sum(-x % p * p**i for i, x in enumerate(digits(a, p, m)))


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(ADD_FIELDS), st.data())
def test_add_and_neg_match_digit_lists(pm, data):
    p, m = pm
    ctx = build_field(p, m)
    codes = st.integers(0, ctx.order - 1)
    a, b = data.draw(codes), data.draw(codes)
    assert ctx.add(a, b) == digit_sum(a, b, p, m)
    assert ctx.neg(a) == digit_neg(a, p, m)
    assert type(ctx.add(a, b)) is int and type(ctx.neg(a)) is int
    size = data.draw(st.integers(0, 12))
    A = np.array(data.draw(st.lists(codes, min_size=size, max_size=size)),
                 dtype=np.int64)
    B = np.array(data.draw(st.lists(codes, min_size=size, max_size=size)),
                 dtype=np.int64)
    assert ctx.add(A, B).tolist() == [digit_sum(int(x), int(y), p, m)
                                      for x, y in zip(A, B)]
    assert ctx.neg(A).tolist() == [digit_neg(int(x), p, m) for x in A]


@pytest.mark.parametrize("pm", ADD_FIELDS[:-1])
def test_neg_is_additive_inverse(pm):
    ctx = build_field(*pm)
    codes = np.arange(ctx.order)
    assert not ctx.add(codes, ctx.neg(codes)).any()
    assert all(ctx.add(a, ctx.neg(a)) == 0 for a in range(ctx.order))


def test_division(gf16):
    for a in range(1, 16):
        for b in range(1, 16):
            q = mul(gf16, a, gf16.pow(b, -1))
            assert mul(gf16, q, b) == a
    with pytest.raises(ZeroDivisionError):
        mul(gf16, 3, gf16.pow(0, -1))


def test_conjugate_examples(gf9, gf16):
    # the entrywise a -> a^q of the Hermitian adjoint fixes zero and is an
    # involution on GF(q^2): applying the adjoint twice gives back M
    for ctx, q in [(gf9, 3), (gf16, 4)]:
        M = np.arange(ctx.order, dtype=np.int64)[None, :]
        once = adjoint(M, q, ctx)
        assert once[0, 0] == 0
        assert once[:, 0].tolist() == [ctx.pow(a, q) for a in range(ctx.order)]
        assert np.array_equal(adjoint(once, q, ctx), M)
    with pytest.raises(ValueError):
        adjoint(np.ones((1, 1), dtype=np.int64), 2, gf9)  # wrong characteristic


def test_element_order(gf9, gf25):
    assert ref_order(gf9, 1) == 1
    assert ref_order(gf9, gf9.generator) == 8
    g = gf25.generator
    for t in (2, 3, 4, 6, 8, 12, 24):
        assert ref_order(gf25, gf25.pow(g, (25 - 1) // t)) == t
    with pytest.raises(ValueError):
        ref_order(gf25, 0)


@pytest.mark.parametrize("p,m,q", [(2, 4, 4), (3, 2, 3), (2, 8, 16)])
def test_frobenius_is_ring_homomorphism(p, m, q):
    ctx = build_field(p, m)
    els = range(ctx.order)
    for a in els:
        for b in els:
            ab = mul(ctx, a, b)
            s = ctx.add(a, b)
            assert ctx.pow(ab, q) == mul(ctx, ctx.pow(a, q), ctx.pow(b, q))
            assert ctx.pow(s, q) == ctx.add(ctx.pow(a, q), ctx.pow(b, q))


@pytest.mark.parametrize("p,m", [(2, 4), (3, 2), (5, 2), (7, 2)])
def test_unit_group_order(p, m):
    ctx = build_field(p, m)
    for a in range(1, ctx.order):
        assert ctx.pow(a, ctx.order - 1) == 1


@pytest.mark.parametrize("p,m", [(3, 2), (2, 4), (5, 2), (3, 4), (17, 4)])
def test_table_and_polynomial_backends_agree(p, m):
    """Table arithmetic against schoolbook polynomial arithmetic modulo
    the field's modulus: every pair in small fields, sampled pairs in
    GF(17^4)."""
    ctx = build_field(p, m)
    Q = ctx.order
    if Q <= 81:
        pairs = [(a, b) for a in range(Q) for b in range(Q)]
    else:
        rng = np.random.default_rng(17)
        pairs = rng.integers(0, Q, (3000, 2)).tolist()
    for a, b in pairs:
        assert mul(ctx, a, b) == ref_poly_mul(a, b, ctx)
        if a:
            assert mul(ctx, ctx.pow(a, -1), a) == 1
            assert ctx.pow(a, -1) == ref_poly_pow(a, Q - 2, ctx)
            assert ctx.pow(a, 7) == ref_poly_pow(a, 7, ctx)
            assert ctx.pow(a, -3) == ref_poly_pow(ref_poly_pow(a, Q - 2, ctx),
                                                  3, ctx)


def test_log_table_covers_largest_field():
    ctx = build_field(2, 20)
    n = ctx.order - 1
    assert ctx.log[0] == 2 * n
    assert np.array_equal(np.sort(ctx.log[1:]), np.arange(n))
    assert np.array_equal(ctx.exp[ctx.log[1:]], np.arange(1, ctx.order))
    assert np.array_equal(ctx.exp[n:2 * n], ctx.exp[:n])
    assert len(ctx.exp) == 4 * n + 1 and not ctx.exp[2 * n:].any()
    g = ctx.generator
    assert ctx.exp[1] == g and ctx.exp[12345] == ref_poly_pow(g, 12345, ctx)


# GF(2), GF(4), GF(2^8), GF(3), GF(9), GF(25), GF(27) and GF(3^6)
CONVENTION_FIELDS = [(2, 1), (2, 2), (2, 8), (3, 1), (3, 2), (5, 2), (3, 3),
                     (3, 6)]


@pytest.mark.parametrize("pm", CONVENTION_FIELDS, ids="{0[0]}-{0[1]}".format)
def test_every_log_domain_product_is_one_table_read(pm):
    # log 0 = 2(Q-1) and exp reads 0 from there on, so exp[log a + log b]
    # is a * b with zero among the factors too
    ctx = build_field(*pm)
    Q = ctx.order
    rng = np.random.default_rng(Q)
    sample = np.unique(np.r_[0, 1, Q - 1, rng.integers(0, Q, 40)]).tolist()
    L = ctx.log[sample]
    assert ctx.exp[L[:, None] + L].tolist() == [
        [ref_poly_mul(a, b, ctx) for b in sample] for a in sample]
    assert mul(ctx, 0, 0) == 0
    codes = [0, *sample, 0]
    assert ctx.neg(np.array(codes)).tolist() == [digit_neg(a, *pm)
                                                 for a in codes]
    exp, log = kernels._xor_tables(ctx)
    assert exp.dtype == kernels._narrow(Q - 1) and log.dtype == np.int32
    assert np.array_equal(exp, ctx.exp) and np.array_equal(log, ctx.log)


def test_smallest_irreducible_known_values():
    assert smallest_irreducible(2, 4) == (1, 1, 0, 0, 1)   # x^4+x+1
    assert smallest_irreducible(3, 2) == (1, 0, 1)         # x^2+1
    mod = smallest_irreducible(5, 2)
    assert mod[-1] == 1 and len(mod) == 3


# modulus and generator of GF(q^2) for every prime power q <= 32, and of
# GF(2^20) and GF(3^12): the lexicographically smallest monic irreducible
# and the smallest element code of full order, which every record's
# `field` pins
PINNED_FIELDS = {
    (2, 2): ((1, 1, 1), 2),
    (3, 2): ((1, 0, 1), 4),
    (2, 4): ((1, 1, 0, 0, 1), 2),
    (5, 2): ((2, 0, 1), 6),
    (7, 2): ((1, 0, 1), 9),
    (2, 6): ((1, 1, 0, 0, 0, 0, 1), 2),
    (3, 4): ((2, 1, 0, 0, 1), 3),
    (11, 2): ((1, 0, 1), 15),
    (13, 2): ((2, 0, 1), 15),
    (2, 8): ((1, 1, 0, 1, 1, 0, 0, 0, 1), 3),
    (17, 2): ((3, 0, 1), 19),
    (19, 2): ((1, 0, 1), 22),
    (23, 2): ((1, 0, 1), 25),
    (5, 4): ((2, 0, 0, 0, 1), 6),
    (3, 6): ((2, 1, 0, 0, 0, 0, 1), 3),
    (29, 2): ((2, 0, 1), 30),
    (31, 2): ((1, 0, 1), 35),
    (2, 10): ((1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 1), 2),
    (2, 20): ((1, 0, 0, 1) + (0,) * 16 + (1,), 2),
    (3, 12): ((2, 0, 1) + (0,) * 9 + (1,), 14),
}


@pytest.mark.parametrize("pm", PINNED_FIELDS, ids="{0[0]}-{0[1]}".format)
def test_pinned_descriptors(pm):
    (p, m), (modulus, generator) = pm, PINNED_FIELDS[pm]
    assert build_field(p, m).descriptor() == {
        "p": p, "m": m, "order": p**m, "modulus": list(modulus),
        "generator": generator}


def _mobius(n):
    out = 1
    for ell in prime_factors(n):
        if n % (ell * ell) == 0:
            return 0
        out = -out
    return out


@pytest.mark.parametrize("p,top", [(2, 8), (3, 5), (5, 3), (7, 2)])
def test_irreducible_count_is_gauss_formula(p, top):
    """Every monic f of degree m <= top, reducible ones included: the
    number that pass is (1/m) sum_{d | m} mu(d) p^(m/d)."""
    for m in range(1, top + 1):
        count = sum(bool(galois._irreducible(digits(c, p, m) + [1], p))
                    for c in range(p**m))
        gauss = sum(_mobius(d) * p ** (m // d)
                    for d in range(1, m + 1) if m % d == 0) // m
        assert count == gauss, (p, m)


def test_descriptor(gf9):
    d = gf9.descriptor()
    assert d == {"p": 3, "m": 2, "order": 9, "modulus": [1, 0, 1],
                 "generator": gf9.generator}


def test_prime_helpers():
    assert is_prime(2) and is_prime(27 // 9) and not is_prime(1)
    assert prime_factors(24) == [2, 3]
    assert factor_prime_power(27) == (3, 3)
    with pytest.raises(ValueError):
        factor_prime_power(12)


def test_build_field_caching():
    assert build_field(3, 2) is build_field(3, 2) is build_field(p=3, m=2)
    # a cached field does not repeat the search for its modulus
    build_field(3, 4)
    with mock.patch.object(galois, "smallest_irreducible",
                           wraps=galois.smallest_irreducible) as spy:
        assert build_field(3, 4) is build_field(3, 4)
    assert spy.call_count == 0
