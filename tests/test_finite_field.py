"""Field construction, arithmetic, embeddings and automorphisms.

The canonical minimal polynomials are cross-checked against an independent
brute-force search written directly in this file.
"""

import os
import subprocess
import sys

import numpy as np
import pytest

from modclass.errors import ConsistencyError, InputError, LimitError, NotSubfieldError
from modclass.finite_field import (
    FieldAutomorphism,
    FiniteField,
    automorphisms,
    embed,
    frobenius,
    make_field,
    subfields,
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


def test_mat_pow_and_identity():
    K = make_field(3, 1)
    A = np.array([[1, 1], [0, 1]], dtype=np.int64)
    assert np.array_equal(K.mat_pow(A, 3), np.eye(2, dtype=np.int64))
    assert np.array_equal(K.mat_pow(A, 0), K.identity(2))


# ---------------------------------------------------------------- elements

def test_field_element_dunders():
    K = make_field(2, 2)
    a = K.element(2)  # the generator class
    b = K.element(3)
    assert (a + b).code == K.add(2, 3)
    assert (a * b).code == K.mul(2, 3)
    assert (a - b) + b == a
    assert (a / b) * b == a
    assert a**4 == a  # x**q == x
    assert -a + a == K.element(0)
    assert a != b and a == K.element(2)
    assert len({a, K.element(2), b}) == 2
    one = K.element(1)
    assert int((one + one).code) == 0  # characteristic 2


def test_element_coeffs_round_trip():
    K = make_field(3, 2)
    for code in range(K.q):
        e = K.element(code)
        c = e.coeffs
        assert int(c[0]) + 3 * int(c[1]) == code


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


def test_subfields_of_gf16():
    ns = [f.n for f in subfields(make_field(2, 4))]
    assert ns == [1, 2, 4]


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
    assert len(auts) == 4
    sig = frobenius(K)
    acc = FieldAutomorphism(K, 0)
    seen = set()
    for _ in range(4):
        seen.add(acc)
        acc = acc.compose(sig)
    assert acc == FieldAutomorphism(K, 0)  # order divides n
    assert len(seen) == 4  # order is exactly n


def test_fixed_field_of_frobenius_power():
    K = make_field(2, 4)
    sq = FieldAutomorphism(K, 2)  # a -> a**(p**2), fixes GF(4)
    fixed = sq.fixed_field()
    assert fixed.n == 2
    f = embed(fixed, K)
    for a in range(fixed.q):
        assert sq.apply_codes(f.apply_codes(a)) == f.apply_codes(a)


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
    assert "2 passed" in proc.stdout
