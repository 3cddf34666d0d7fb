"""Hom spaces from spinning, checked against the dense Kronecker solver.

The reference solves M A_g = B_g M for all d_src * d_tgt entries of M at
once, as one (g * d_tgt * d_src) x (d_tgt * d_src) system on the row-major
vec(M).  ``hom_basis_matrices`` must return exactly the basis that the
reference's nullspace returns, matrix for matrix and in the same order,
because the randomized searches downstream take their branches from it.
"""

import numpy as np
import pytest

from modclass import linalg
from modclass.finite_field import make_field
from modclass.meataxe import composition_factors, decompose, simple_modules
from modclass.modrep import Rep, direct_sum, hom_basis_matrices, regular_module, trivial_module
from modclass.perm_group import PermGroup, catalog


def kronecker_hom_basis(field, mats_src, mats_tgt, d_src, d_tgt):
    """Reference solver: the nullspace of the Kronecker system for vec(M)."""
    D = d_src * d_tgt
    if D == 0:
        return []
    blocks = []
    eye_t = np.eye(d_tgt, dtype=np.int64)
    eye_s = np.eye(d_src, dtype=np.int64)
    for A, B in zip(mats_src, mats_tgt):
        left = np.kron(eye_t, A.T)  # vec(M A), row-major vec
        right = np.kron(B, eye_s)  # vec(B M)
        blocks.append(field.sub(left, right))
    if not blocks:
        return [m.reshape(d_tgt, d_src) for m in np.eye(D, dtype=np.int64)]
    rows = linalg.nullspace(field, np.vstack(blocks))
    return [row.reshape(d_tgt, d_src) for row in rows]


def _assert_same_basis(got, want):
    assert len(got) == len(want)
    for M, R in zip(got, want):
        assert M.dtype == R.dtype and M.shape == R.shape
        assert M.tobytes() == R.tobytes()


def _random_basis(V: Rep, rng) -> Rep:
    K = V.field
    Q = None
    while Q is None or not linalg.is_invertible(K, Q):
        Q = K.rand_codes(rng, (V.dim, V.dim))
    Qi = linalg.inverse(K, Q)
    return Rep(V.group, K, [K.mat_mul(K.mat_mul(Qi, M), Q) for M in V.matrices], check=False)


GRID = [
    (name, p, n)
    for name, G in catalog().items()
    for p in (2, 3, 5, 7)
    if G.order % p == 0
    for n in (1, 2)
]


@pytest.mark.parametrize("name, p, n", GRID)
def test_spinning_matches_kronecker_oracle(name, p, n):
    G = catalog()[name]
    K = make_field(p, n)
    rng = np.random.default_rng(G.order * 100 + p * 10 + n)
    reg = regular_module(G, K)
    triv = trivial_module(G, K)
    simples = list({W.dim: W for W in composition_factors(reg)}.values())
    pair = direct_sum(simples[-1], simples[-1])
    # the dense reference over GF(p^2) needs a minute for a random-basis
    # 24-dimensional module, so S4 gets a smaller random-basis module there
    mixed = _random_basis(reg if n == 1 or reg.dim <= 12 else pair, rng)
    mods = [triv, reg, mixed, *simples, pair]
    mods.append(direct_sum(reg, triv) if reg.dim < 24 else direct_sum(triv, simples[-1]))
    for V in mods:
        for U in mods:
            got = hom_basis_matrices(K, V.matrices, U.matrices, V.dim, U.dim)
            want = kronecker_hom_basis(K, V.matrices, U.matrices, V.dim, U.dim)
            _assert_same_basis(got, want)


def test_empty_generator_list_and_zero_dimension():
    K = make_field(3, 2)
    # no generators (trivial group): every matrix is a homomorphism
    _assert_same_basis(hom_basis_matrices(K, [], [], 2, 3), kronecker_hom_basis(K, [], [], 2, 3))
    assert len(hom_basis_matrices(K, [], [], 2, 3)) == 6
    # identity generators on both sides (a trivial subgroup) act like none;
    # on one side only they do not
    I2, I3 = np.eye(2, dtype=np.int64), np.eye(3, dtype=np.int64)
    P3 = np.array([[0, 1, 0], [0, 0, 1], [1, 0, 0]], dtype=np.int64)
    for src, tgt in (([I2, I2], [I3, I3]), ([I2], [P3])):
        _assert_same_basis(hom_basis_matrices(K, src, tgt, 2, 3), kronecker_hom_basis(K, src, tgt, 2, 3))
    assert len(hom_basis_matrices(K, [I2], [P3], 2, 3)) == 2
    A = np.array([[0, 1], [1, 0]], dtype=np.int64)
    empty = np.zeros((0, 0), dtype=np.int64)
    assert hom_basis_matrices(K, [empty], [A], 0, 2) == []
    assert hom_basis_matrices(K, [A], [empty], 2, 0) == []
    assert hom_basis_matrices(K, [empty], [empty], 0, 0) == []


def test_regular_s5_mod_5_decomposes():
    # dimension 120: the Kronecker system would take about 3.3 GB
    S5 = PermGroup(5, [(1, 0, 2, 3, 4), (1, 2, 3, 4, 0)])
    K = make_field(5, 1)
    dec = decompose(regular_module(S5, K))
    assert dec.total_dim() == 120
    # each projective indecomposable occurs as often as its simple head's dimension
    dims = sorted(W.dim for W in simple_modules(S5, K).modules)
    assert len(dec.summands) == len(dims)
    assert sorted(mult for _, mult in dec.summands) == dims
