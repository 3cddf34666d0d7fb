"""Field construction, arithmetic, embeddings and automorphisms.

The canonical minimal polynomials are cross-checked against an independent
brute-force search written directly in this file, and the table and
digit-plane arithmetic against the digit-convolution product and the
``einsum`` matrix product that preceded them.
"""

import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from modclass import finite_field
from modclass.errors import ConsistencyError, InputError, LimitError, NotSubfieldError
from modclass.finite_field import (
    FieldAutomorphism,
    FiniteField,
    automorphisms,
    embed,
    frobenius,
    make_field,
)


# ---------------------------------------------------------------- oracle

def _poly_mul_mod_p(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    return out


def _all_monic(p, d):
    # constant-first coefficient lists with leading coefficient 1
    polys = []
    for code in range(p**d):
        c = []
        v = code
        for _ in range(d):
            c.append(v % p)
            v //= p
        polys.append(c + [1])
    return polys


def _oracle_min_poly(p, n):
    """First irreducible monic of degree n in base-p order of the low coefficients."""
    reducible = set()
    for d in range(1, n):
        for a in _all_monic(p, d):
            e = n - d
            if e < d:
                continue
            for b in _all_monic(p, e):
                reducible.add(tuple(_poly_mul_mod_p(a, b, p)))
    for f in _all_monic(p, n):
        if tuple(f) not in reducible:
            return f
    raise AssertionError("no irreducible of degree %d over GF(%d)" % (n, p))


@pytest.mark.parametrize(
    "p, n", [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (3, 3), (5, 2), (7, 2)]
)
def test_canonical_min_poly_matches_oracle(p, n):
    field = make_field(p, n)
    assert [int(c) for c in field.min_poly] == _oracle_min_poly(p, n)


def test_frozen_min_polys():
    assert [int(c) for c in make_field(2, 1).min_poly] == [0, 1]
    assert [int(c) for c in make_field(2, 2).min_poly] == [1, 1, 1]
    assert [int(c) for c in make_field(2, 3).min_poly] == [1, 1, 0, 1]
    assert [int(c) for c in make_field(3, 2).min_poly] == [1, 0, 1]
    assert [int(c) for c in make_field(2, 4).min_poly] == [1, 1, 0, 0, 1]


# ---------------------------------------------------------------- digit reference

def _ref_add(K, a, b):
    return K.encode((K.decode(a) + K.decode(b)) % K.p)


def _ref_neg(K, a):
    return K.encode((-K.decode(a)) % K.p)


def _ref_mul(K, a, b):
    """Schoolbook digit convolution, then reduction of x^m mod min_poly."""
    da, db = np.broadcast_arrays(K.decode(a), K.decode(b))
    n = K.n
    conv = np.zeros(da.shape[:-1] + (2 * n - 1,), dtype=np.int64)
    for s in range(n):
        conv[..., s : s + n] += da[..., s : s + 1] * db
    return K.encode((conv @ K._reduction) % K.p)


def _ref_pow(K, a, e):
    result = np.ones_like(np.asarray(a, dtype=np.int64))
    base = np.asarray(a, dtype=np.int64)
    while e > 0:
        if e & 1:
            result = _ref_mul(K, result, base)
        base = _ref_mul(K, base, base)
        e >>= 1
    return result


def _ref_mat_mul(K, A, B):
    """Digit-plane convolution by einsum, one plane of A at a time."""
    (r, k), c, n = A.shape, B.shape[1], K.n
    if k == 0:
        return np.zeros((r, c), dtype=np.int64)
    Ad, Bd = K.decode(A), K.decode(B)
    conv = np.zeros((r, c, 2 * n - 1), dtype=np.int64)
    for s in range(n):
        conv[:, :, s : s + n] += np.einsum("ik,kjt->ijt", Ad[:, :, s], Bd)
    return K.encode((conv.reshape(r * c, 2 * n - 1) @ K._reduction) % K.p).reshape(r, c)


def _same(got, want):
    got = np.asarray(got)
    return got.dtype == np.int64 and got.shape == np.shape(want) and got.tobytes() == np.asarray(want).tobytes()


@pytest.mark.parametrize("p, n", [(2, 2), (2, 3), (3, 2), (2, 4), (5, 2), (3, 3), (7, 2), (2, 6)])
def test_table_arithmetic_matches_digit_reference_on_every_pair(p, n):
    K = make_field(p, n)
    codes = np.arange(K.q, dtype=np.int64)
    a, b = np.repeat(codes, K.q), np.tile(codes, K.q)
    assert _same(K.mul(a, b), _ref_mul(K, a, b))
    assert _same(K.add(a, b), _ref_add(K, a, b))
    assert _same(K.sub(a, b), _ref_add(K, a, _ref_neg(K, b)))
    assert _same(K.neg(codes), _ref_neg(K, codes))
    units = codes[1:]
    assert _same(K.inv(units), _ref_pow(K, units, K.q - 2))
    for e in (0, 1, K.q - 1, K.q, 3 * K.q + 5, 10**30 + 7):
        assert _same(K.pow(codes, e), _ref_pow(K, codes, e))
    for e in range(2 * n + 1):
        assert _same(K.frobenius(codes, e), _ref_pow(K, codes, p ** (e % n)))
    assert K._exp is not None  # the table path was the one tested


@pytest.mark.parametrize("p, n", [(2, 12), (2, 16), (3, 10), (251, 2)])
def test_table_arithmetic_matches_digit_reference_on_seeded_pairs(p, n):
    K = make_field(p, n)
    rng = np.random.default_rng(p * 100 + n)
    a, b = K.rand_codes(rng, 10**4), K.rand_codes(rng, 10**4)
    a[:10], b[5:15] = 0, 0
    assert _same(K.mul(a, b), _ref_mul(K, a, b))
    assert _same(K.add(a, b), _ref_add(K, a, b))
    assert _same(K.sub(a, b), _ref_add(K, a, _ref_neg(K, b)))
    assert _same(K.neg(a), _ref_neg(K, a))
    units = a[a != 0][:200]
    assert _same(K.inv(units), _ref_pow(K, units, K.q - 2))
    e = 10**12 + 39
    assert _same(K.pow(a[:200], e), _ref_pow(K, a[:200], e))
    assert _same(K.frobenius(a[:200], n - 1), _ref_pow(K, a[:200], p ** (n - 1)))


def _shapes_around_switch(K):
    """Shapes (r, k, c) at, just above and well above the last r*k*c of the
    small-product path, plus mat-vec and wide shapes on the large side."""
    if K.n == 1:
        limit = finite_field._BLAS_CELLS - 1  # int64 up to here, then float64 BLAS
    elif K.q > finite_field._TABLE_CAP:
        limit = 512  # no gather path: every shape takes the digit-plane product
    elif K.p == 2:
        limit = finite_field._GATHER_CELLS_XOR * K.n**2
    else:
        limit = finite_field._GATHER_CELLS
    side = int(round(limit ** (1 / 3)))
    return [(1, 1, 1), (3, 0, 2), (4, 2, 2), (side, side, limit // side**2),
            (side, side, limit // side**2 + 1), (2 * side, side, side), (side, side, 1),
            (limit // side, side, 1), (2, side, limit // side)]


@pytest.mark.parametrize("p, n", [(2, 2), (3, 2), (2, 4), (3, 3), (5, 2), (2, 8), (2, 17), (3, 12),
                                  (2, 1), (3, 1), (5, 1), (251, 1), (1048573, 1)])
def test_mat_mul_matches_einsum_reference(p, n):
    K = make_field(p, n)
    rng = np.random.default_rng(7 * p + n)
    for r, k, c in _shapes_around_switch(K):
        A, B = K.rand_codes(rng, (r, k)), K.rand_codes(rng, (k, c))
        A[0, : k // 2] = 0
        assert _same(K.mat_mul(A, B), _ref_mat_mul(K, A, B)), (r, k, c)
        assert _same(K.mat_mul(B.T, A.T), _ref_mat_mul(K, A, B).T), (r, k, c)


def test_mat_mul_wide_relative_trace_shape():
    K = make_field(2, 2)
    rng = np.random.default_rng(24)
    A, B = K.rand_codes(rng, (24, 24)), K.rand_codes(rng, (24, 13824))
    assert _same(K.mat_mul(A, B), _ref_mat_mul(K, A, B))


def test_plane_product_refuses_inexact_inner_dimension(monkeypatch):
    K = make_field(3, 2)
    A, B = np.ones((20, 40), dtype=np.int64), np.ones((40, 20), dtype=np.int64)
    monkeypatch.setattr(finite_field, "_FLOAT_EXACT", 40 * 2 * 4)  # k*n*(p-1)^2 = 320
    with pytest.raises(LimitError):
        K.mat_mul(A, B)


def test_prime_mat_mul_falls_back_to_int64_when_float64_is_inexact(monkeypatch):
    K = make_field(5, 1)
    rng = np.random.default_rng(5)
    A, B = K.rand_codes(rng, (40, 40)), K.rand_codes(rng, (40, 40))
    reductions = []
    floor_mod = finite_field._floor_mod

    def counting_floor_mod(C, p):
        reductions.append(C.shape)
        return floor_mod(C, p)

    monkeypatch.setattr(finite_field, "_floor_mod", counting_floor_mod)
    assert _same(K.mat_mul(A, B), _ref_mat_mul(K, A, B))
    assert reductions == [(40, 40)]  # exact in float64: the BLAS path ran
    monkeypatch.setattr(finite_field, "_FLOAT_EXACT", 40 * 4**2)  # k*(p-1)^2 = 640
    assert _same(K.mat_mul(A, B), _ref_mat_mul(K, A, B))  # int64, no LimitError
    assert reductions == [(40, 40)]


def test_floor_mod_is_exact_below_2_53():
    # a multiply by 1/p instead of the division is off on about 5% of these at p = 5
    rng = np.random.default_rng(53)
    for p in (2, 3, 5, 251, 65521, 1048573):
        C = rng.integers(0, finite_field._FLOAT_EXACT, 10**4)
        C[:3] = 0, finite_field._FLOAT_EXACT - 1, finite_field._FLOAT_EXACT // p * p - 1
        assert np.array_equal(finite_field._floor_mod(C.astype(np.float64), p), C % p), p


def test_prime_mat_mul_is_exact_at_the_float64_bound():
    # every entry p-1: the largest sums a product of inner dimension k can make
    K = make_field(1048573, 1)
    k = (finite_field._FLOAT_EXACT - 1) // (K.p - 1) ** 2  # the last k on the float64 path
    for kk in (k, k + 1):
        A, B = np.full((2, kk), K.p - 1), np.full((kk, 3), K.p - 1)
        want = np.full((2, 3), kk * (K.p - 1) ** 2 % K.p)
        assert _same(K.mat_mul(A, B), want), kk


@pytest.mark.parametrize("p, n", [(2, 1), (5, 1), (2, 2), (3, 2), (2, 20), (3, 12)])
def test_zero_handling(p, n):
    K = make_field(p, n)
    zero = np.int64(0)
    assert K.mul(zero, zero) == 0 and K.mul(zero, K.q - 1) == 0
    assert K.pow(zero, 0) == 1 and K.pow(zero, 1) == 0 and K.pow(zero, K.q - 1) == 0
    assert K.frobenius(zero, 1) == 0
    with pytest.raises(ZeroDivisionError):
        K.inv(zero)
    with pytest.raises(ZeroDivisionError):
        K.inv(np.array([1, 0], dtype=np.int64))


def test_fields_above_table_cap_build_no_table():
    K = make_field(2, 20)
    rng = np.random.default_rng(3)
    a, b = K.rand_codes(rng, 50), K.rand_codes(rng, 50)
    K.mul(a, b), K.pow(a, 5), K.frobenius(a, 3), K.inv(a[a != 0]), K.add(a, b)
    K.mat_mul(a.reshape(5, 10), b.reshape(10, 5))
    assert K.q > finite_field._TABLE_CAP
    assert K._log is None and K._exp is None


def test_failed_table_build_raises_consistency_error(monkeypatch):
    # exp of a non-primitive element is not a bijection onto the units
    monkeypatch.setattr(FiniteField, "_primitive_code", lambda self: self.q - 1)
    with pytest.raises(ConsistencyError):
        FiniteField(2, 4).mul(2, 3)
    monkeypatch.undo()
    # no element passes the primitivity test when every power comes out 1
    monkeypatch.setattr(finite_field, "_square_multiply", lambda mul, a, e: np.ones_like(a))
    with pytest.raises(ConsistencyError):
        FiniteField(3, 2).inv(np.int64(1))


# ---------------------------------------------------------------- properties

_SMALL_FIELDS = [
    (p, n)
    for p in (2, 3, 5, 7, 11, 13, 31, 251)
    for n in range(1, 17)
    if p**n <= finite_field._TABLE_CAP
]
_PROPERTY = settings(derandomize=True, deadline=None, max_examples=100)


@st.composite
def _field_and_codes(draw, count):
    K = make_field(*draw(st.sampled_from(_SMALL_FIELDS)))
    element = st.integers(0, K.q - 1)
    arrays = [np.array(draw(st.lists(element, min_size=8, max_size=8)), dtype=np.int64)
              for _ in range(count)]
    return K, arrays


@_PROPERTY
@given(_field_and_codes(3))
def test_field_axioms_hold_on_random_elements(case):
    K, (a, b, c) = case
    assert _same(K.mul(a, b), _ref_mul(K, a, b))
    assert _same(K.add(a, b), _ref_add(K, a, b))
    assert np.array_equal(K.mul(a, b), K.mul(b, a))
    assert np.array_equal(K.mul(K.mul(a, b), c), K.mul(a, K.mul(b, c)))
    assert np.array_equal(K.add(K.add(a, b), c), K.add(a, K.add(b, c)))
    assert np.array_equal(K.mul(a, K.add(b, c)), K.add(K.mul(a, b), K.mul(a, c)))
    assert np.array_equal(K.sub(a, b), K.add(a, K.neg(b)))
    assert not K.add(a, K.neg(a)).any()
    assert np.array_equal(K.mul(a, 1), a) and not K.mul(a, 0).any()
    units = a[a != 0]
    assert np.all(K.mul(units, K.inv(units)) == 1)


@st.composite
def _field_and_matrices(draw):
    K = make_field(*draw(st.sampled_from(_SMALL_FIELDS)))
    r, k, c, m = (draw(st.integers(1, 10)) for _ in range(4))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    return K, K.rand_codes(rng, (r, k)), K.rand_codes(rng, (k, c)), K.rand_codes(rng, (k, c)), K.rand_codes(rng, (c, m))


@_PROPERTY
@given(_field_and_matrices())
def test_mat_mul_is_associative_and_distributive(case):
    K, A, B, B2, C = case
    AB = K.mat_mul(A, B)
    assert _same(AB, _ref_mat_mul(K, A, B))
    assert np.array_equal(K.mat_mul(AB, C), K.mat_mul(A, K.mat_mul(B, C)))
    assert np.array_equal(K.mat_mul(A, K.add(B, B2)), K.add(AB, K.mat_mul(A, B2)))


# ---------------------------------------------------------------- axioms

@pytest.mark.parametrize("p, n", [(2, 2), (2, 3), (3, 2), (5, 1)])
def test_field_axioms_exhaustive(p, n):
    K = make_field(p, n)
    codes = np.arange(K.q, dtype=np.int64)
    for a in codes:
        for b in codes:
            ab = K.mul(a, b)
            assert ab == K.mul(b, a)
            assert K.add(a, b) == K.add(b, a)
            for c in codes:
                assert K.mul(K.mul(a, b), c) == K.mul(a, K.mul(b, c))
                assert K.add(K.add(a, b), c) == K.add(a, K.add(b, c))
                assert K.mul(a, K.add(b, c)) == K.add(K.mul(a, b), K.mul(a, c))


@pytest.mark.parametrize("p, n", [(2, 4), (3, 3), (5, 2), (7, 2)])
def test_units_and_inverses(p, n):
    K = make_field(p, n)
    codes = np.arange(1, K.q, dtype=np.int64)
    assert np.all(K.pow(codes, K.q - 1) == 1)
    inv = np.array([K.inv(a) for a in codes])
    assert np.all(K.mul(codes, inv) == 1)
    # the multiplicative group is cyclic of order q-1: some element has full order
    orders = set()
    for a in codes:
        k = 1
        b = int(a)
        while b != 1:
            b = int(K.mul(b, a))
            k += 1
        orders.add(k)
    assert max(orders) == K.q - 1


@pytest.mark.parametrize("p, n", [(2, 2), (2, 3), (3, 2), (5, 2)])
def test_inverse_of_every_unit(p, n):
    K = make_field(p, n)
    codes = np.arange(1, K.q, dtype=np.int64)
    inv = K.inv(codes)
    assert inv.shape == codes.shape
    assert np.all(K.mul(codes, inv) == 1)
    assert np.array_equal(inv, K.pow(codes, K.q - 2))
    for a in codes:  # the scalar path agrees with the elementwise one
        assert K.inv(a) == inv[a - 1]


def test_inverse_in_gf_2_20():
    K = make_field(2, 20)
    rng = np.random.default_rng(20)
    codes = rng.integers(1, K.q, size=200, dtype=np.int64)
    inv = K.inv(codes)
    assert np.all(K.mul(codes, inv) == 1)
    assert np.array_equal(inv[:10], K.pow(codes[:10], K.q - 2))
    assert int(K.inv(np.int64(1))) == 1
    with pytest.raises(ZeroDivisionError):
        K.inv(np.int64(0))


def test_add_neg_sub_consistency():
    K = make_field(3, 2)
    rng = np.random.default_rng(0)
    a = K.rand_codes(rng, 50)
    b = K.rand_codes(rng, 50)
    assert np.all(K.add(a, K.neg(a)) == 0)
    assert np.all(K.sub(a, b) == K.add(a, K.neg(b)))


def test_matrix_arithmetic_against_naive():
    K = make_field(2, 2)
    rng = np.random.default_rng(1)
    A = K.rand_codes(rng, (4, 5))
    B = K.rand_codes(rng, (5, 3))
    C = K.mat_mul(A, B)
    for i in range(4):
        for j in range(3):
            acc = 0
            for k in range(5):
                acc = K.add(acc, K.mul(A[i, k], B[k, j]))
            assert C[i, j] == acc
    v = K.rand_codes(rng, 5)
    w = K.mat_vec(A, v)
    for i in range(4):
        acc = 0
        for k in range(5):
            acc = K.add(acc, K.mul(A[i, k], v[k]))
        assert w[i] == acc


def test_identity_matrix():
    K = make_field(3, 1)
    A = np.array([[1, 1], [0, 1]], dtype=np.int64)
    assert np.array_equal(K.identity(2), np.eye(2, dtype=np.int64))
    assert np.array_equal(K.mat_mul(A, K.identity(2)), A)
    assert np.array_equal(K.mat_mul(A, K.mat_mul(A, A)), K.identity(2))  # unipotent, order p


# ---------------------------------------------------------------- codes

def test_decode_encode_round_trip():
    K = make_field(3, 2)
    codes = np.arange(K.q, dtype=np.int64)
    digits = K.decode(codes)
    assert digits.shape == (K.q, 2)
    assert np.array_equal(digits[:, 0] + 3 * digits[:, 1], codes)
    assert np.array_equal(K.encode(digits), codes)


# ---------------------------------------------------------------- embeddings

def test_embedding_is_ring_hom():
    K, L = make_field(2, 2), make_field(2, 4)
    f = embed(K, L)
    for a in range(K.q):
        for b in range(K.q):
            assert f.apply_codes(K.add(a, b)) == L.add(f.apply_codes(a), f.apply_codes(b))
            assert f.apply_codes(K.mul(a, b)) == L.mul(f.apply_codes(a), f.apply_codes(b))
    assert f.apply_codes(0) == 0 and f.apply_codes(1) == 1
    images = {int(f.apply_codes(a)) for a in range(K.q)}
    assert len(images) == K.q  # injective


def test_embedding_triangle_commutes():
    F, K, L = make_field(2, 1), make_field(2, 2), make_field(2, 4)
    lo = embed(F, K)
    hi = embed(K, L)
    direct = embed(F, L)
    for c in range(F.q):
        assert hi.apply_codes(lo.apply_codes(c)) == direct.apply_codes(c)


def test_embedding_rejects_non_subfield():
    with pytest.raises(NotSubfieldError):
        embed(make_field(2, 2), make_field(2, 3))
    with pytest.raises(NotSubfieldError):
        embed(make_field(2, 1), make_field(3, 1))


# ---------------------------------------------------------------- frobenius

def test_frobenius_is_field_automorphism():
    K = make_field(2, 4)
    sig = frobenius(K)
    for a in range(K.q):
        for b in range(0, K.q, 3):
            assert sig.apply_codes(K.add(a, b)) == K.add(sig.apply_codes(a), sig.apply_codes(b))
            assert sig.apply_codes(K.mul(a, b)) == K.mul(sig.apply_codes(a), sig.apply_codes(b))


def test_automorphism_group_is_cyclic_of_order_n():
    K = make_field(2, 4)
    auts = automorphisms(K)
    assert auts == [FieldAutomorphism(K, e) for e in range(4)]
    assert FieldAutomorphism(K, 4) == FieldAutomorphism(K, 0)  # exponents mod n
    assert auts[0].is_identity() and not frobenius(K).is_identity()
    codes = np.arange(K.q, dtype=np.int64)
    acc, tables = codes, []
    for aut in auts:
        assert np.array_equal(aut.apply_codes(codes), acc)  # sigma^e is e steps of sigma
        tables.append(acc.tobytes())
        acc = frobenius(K).apply_codes(acc)
    assert np.array_equal(acc, codes)  # order divides n
    assert len(set(tables)) == 4  # order is exactly n


def test_fixed_field_of_frobenius_power():
    K = make_field(2, 4)
    sq = FieldAutomorphism(K, 2)  # a -> a**(p**2), fixes exactly GF(4)
    codes = np.arange(K.q, dtype=np.int64)
    fixed = codes[sq.apply_codes(codes) == codes]
    image = embed(make_field(2, 2), K).apply_codes(np.arange(4))
    assert sorted(fixed.tolist()) == sorted(image.tolist())


def test_frobenius_table_matches_pow():
    K = make_field(3, 3)
    codes = np.arange(K.q, dtype=np.int64)
    assert np.all(K.frobenius(codes, 1) == K.pow(codes, 3))
    assert np.all(K.frobenius(codes, 2) == K.pow(codes, 9))


# ---------------------------------------------------------------- limits

def test_construction_validation():
    with pytest.raises(InputError):
        make_field(4, 1)
    with pytest.raises(InputError):
        make_field(2, 0)
    with pytest.raises(LimitError):
        make_field(2, 25)


def test_size_cap_comes_before_the_primality_test(monkeypatch):
    # trial division of a prime near 10^18 would run for hours
    def forbidden(p):
        raise AssertionError("primality tested before the size cap")

    monkeypatch.setattr(finite_field, "is_prime", forbidden)
    with pytest.raises(LimitError):
        make_field(10**18 + 3, 1)


def test_field_cache_identity():
    assert make_field(2, 3) is make_field(2, 3)


def test_failed_spot_check_raises_consistency_error(monkeypatch):
    # a forced fact is checked by a raise, not an assert, so python -O keeps it
    monkeypatch.setattr(FiniteField, "pow", lambda self, a, e: np.int64(2))
    with pytest.raises(ConsistencyError):
        FiniteField(5, 1)


@pytest.mark.parametrize("p", [2, 3, 7, 101])
def test_prime_field_inverse_matches_fermat(p):
    K = make_field(p, 1)
    units = np.arange(1, p, dtype=np.int64)
    want = [pow(int(a), p - 2, p) for a in units]
    assert K.inv(units).tolist() == want
    assert [int(K.inv(np.int64(a))) for a in units] == want
    assert K.inv(units.reshape(1, -1)).shape == (1, p - 1)
    with pytest.raises(ZeroDivisionError):
        K.inv(np.array([1, 0], dtype=np.int64) % p)
    with pytest.raises(ZeroDivisionError):
        K.inv(np.int64(0))


def test_forced_fact_checks_survive_python_O():
    # python -O strips assert statements; the checks of forced facts must stay
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    tests = [
        "tests/test_green.py::test_relative_trace_check_raises_consistency_error",
        "tests/test_finite_field.py::test_failed_spot_check_raises_consistency_error",
        "tests/test_finite_field.py::test_failed_table_build_raises_consistency_error",
        "tests/test_green.py::test_seeds_that_do_not_generate_fail_the_full_trace_check",
        "tests/test_meataxe.py::test_seeds_that_do_not_generate_raise",
    ]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(root, "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "pytest", "-q", "-p", "no:cacheprovider", *tests],
        cwd=root, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "5 passed" in proc.stdout
