"""Row reduction, nullspaces, tracked row spaces and module spinning."""

import numpy as np
import pytest

from modclass.errors import InputError
from modclass.finite_field import make_field
from modclass import linalg as L

F2 = make_field(2, 1)
F4 = make_field(2, 2)
F3 = make_field(3, 1)


def test_rref_shape_and_pivots():
    A = np.array([[1, 1, 0], [1, 1, 1], [0, 0, 1]], dtype=np.int64)
    R, pivots = L.rref(F2, A)
    assert list(pivots) == [0, 2]
    assert L.rank(F2, A) == 2
    # pivot columns are unit vectors in R
    for i, c in enumerate(pivots):
        col = R[: len(pivots), c]
        assert col[i] == 1 and np.count_nonzero(col) == 1


def test_nullspace_annihilates_and_has_right_dim():
    rng = np.random.default_rng(2)
    for K in (F2, F4, F3):
        for _ in range(8):
            A = K.rand_codes(rng, (4, 6))
            N = L.nullspace(K, A)
            assert N.shape[0] == 6 - L.rank(K, A)
            if N.shape[0]:
                assert not K.mat_mul(A, N.T).any()


def _loop_nullspace(K, A):
    # reference back-substitution, one entry at a time
    R, pivots = L.rref(K, A)
    d = A.shape[1]
    free = [c for c in range(d) if c not in pivots]
    out = np.zeros((len(free), d), dtype=np.int64)
    for i, fcol in enumerate(free):
        out[i, fcol] = 1
        for row, pcol in enumerate(pivots):
            out[i, pcol] = K.neg(R[row, fcol])
    return out


def test_nullspace_matches_loop_reference():
    rng = np.random.default_rng(7)
    for K in (F2, F4, F3, make_field(3, 2)):
        for shape in ((3, 7), (7, 3), (6, 6), (1, 5), (5, 1)):
            for rank_cap in (0, 1, 2, None):
                A = K.rand_codes(rng, shape)
                if rank_cap is not None:  # force a rank-deficient input
                    left = K.rand_codes(rng, (shape[0], rank_cap))
                    A = K.mat_mul(left, K.rand_codes(rng, (rank_cap, shape[1])))
                N = L.nullspace(K, A)
                ref = _loop_nullspace(K, A)
                assert N.dtype == ref.dtype and np.array_equal(N, ref)


def test_solve_and_inverse():
    rng = np.random.default_rng(4)
    for K in (F2, F4):
        M = None
        while M is None or not L.is_invertible(K, M):
            M = K.rand_codes(rng, (4, 4))
        Minv = L.inverse(K, M)
        assert np.array_equal(K.mat_mul(M, Minv), K.identity(4))
        b = K.rand_codes(rng, 4)
        x = L.solve(K, M, b)
        assert np.array_equal(K.mat_vec(M, x), b)


def test_inverse_rejects_singular():
    A = np.array([[1, 1], [1, 1]], dtype=np.int64)
    assert not L.is_invertible(F2, A)
    with pytest.raises(InputError):
        L.inverse(F2, A)


def test_solve_reports_no_solution():
    A = np.array([[1, 0], [1, 0]], dtype=np.int64)
    b = np.array([0, 1], dtype=np.int64)
    assert L.solve(F2, A, b) is None


def test_rowspace_tracking_expresses_members():
    sp = L.RowSpace(F4, 4, track=True)
    rows = [
        np.array([1, 2, 0, 0], dtype=np.int64),
        np.array([0, 1, 1, 0], dtype=np.int64),
        np.array([1, 3, 1, 0], dtype=np.int64),  # sum of the first two
    ]
    added = [sp.add(r) for r in rows]
    assert added == [True, True, False]
    assert sp.dim == 2
    residual, coords = sp.reduce_with_coords(rows[2])
    assert not residual.any()
    # coords express the vector over the raw basis rows
    raw = sp.raw_basis_rows()
    acc = F4.zeros(4)
    for c, r in zip(coords, raw):
        acc = F4.add(acc, F4.mul(c, r))
    assert np.array_equal(acc, rows[2])
    outside, _ = sp.reduce_with_coords(np.array([0, 0, 0, 1], dtype=np.int64))
    assert outside.any()


def test_spin_produces_invariant_subspace():
    # right regular style matrices of C4 over GF(2), seeded with one vector
    M = np.zeros((4, 4), dtype=np.int64)
    for i in range(4):
        M[i, (i + 1) % 4] = 1
    seed = np.array([1, 0, 0, 0], dtype=np.int64)
    sp = L.spin(F2, [M], [seed])
    assert sp.dim == 4
    fixed = np.array([1, 1, 1, 1], dtype=np.int64)
    sp2 = L.spin(F2, [M], [fixed])
    assert sp2.dim == 1
    assert L.is_invariant(F2, sp2.echelon_matrix(), [M])


def test_action_on_subspace_intertwines():
    M = np.zeros((4, 4), dtype=np.int64)
    for i in range(4):
        M[i, (i + 1) % 4] = 1
    # invariant plane spanned by e0+e2 and e1+e3
    B = np.array([[1, 0, 1, 0], [0, 1, 0, 1]], dtype=np.int64)
    acts = L.action_on_subspace(F2, B, [M])
    # columns convention: M @ B.T == B.T @ act
    assert np.array_equal(F2.mat_mul(M, B.T.copy()), F2.mat_mul(B.T.copy(), acts[0]))


def test_action_on_quotient_respects_projection():
    M = np.zeros((4, 4), dtype=np.int64)
    for i in range(4):
        M[i, (i + 1) % 4] = 1
    B = np.array([[1, 0, 1, 0], [0, 1, 0, 1]], dtype=np.int64)
    quo_mats, free = L.action_on_quotient(F2, B, [M])
    sp = L.RowSpace(F2, 4)
    for row in B:
        sp.add(row)

    def proj(v):
        return sp.reduce(v)[free]

    rng = np.random.default_rng(6)
    for _ in range(10):
        v = F2.rand_codes(rng, 4)
        assert np.array_equal(proj(F2.mat_vec(M, v)), F2.mat_vec(quo_mats[0], proj(v)))


def test_action_on_subspace_rejects_non_invariant():
    M = np.zeros((4, 4), dtype=np.int64)
    for i in range(4):
        M[i, (i + 1) % 4] = 1
    B = np.array([[1, 0, 0, 0]], dtype=np.int64)
    with pytest.raises(InputError):
        L.action_on_subspace(F2, B, [M])
