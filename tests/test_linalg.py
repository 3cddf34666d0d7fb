"""Row reduction, nullspaces, tracked row spaces and module spinning."""

import numpy as np
import pytest

from modclass.errors import InputError
from modclass.finite_field import make_field
from modclass import linalg as L
from modclass.modrep import permutation_module, regular_module
from modclass.perm_group import catalog

F2 = make_field(2, 1)
F4 = make_field(2, 2)
F3 = make_field(3, 1)


def _is_invariant(K, B, mats):
    # the row span of B is invariant when no image M b raises its rank
    images = [K.mat_mul(B, np.ascontiguousarray(M.T)) for M in mats]
    return L.rank(K, np.vstack([B] + images)) == L.rank(K, B)


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
    # rref against the one-call-per-step reference, nullspace against the
    # one-entry-at-a-time back-substitution
    for seed in (7, 8, 9):
        rng = np.random.default_rng(seed)
        for K in (F2, F4, F3, make_field(3, 2), make_field(7, 1), make_field(2, 20)):
            for shape in ((3, 7), (7, 3), (6, 6), (1, 5), (5, 1)):
                for rank_cap in (0, 1, 2, None):
                    A = K.rand_codes(rng, shape)
                    if rank_cap is not None:  # force a rank-deficient input
                        left = K.rand_codes(rng, (shape[0], rank_cap))
                        A = K.mat_mul(left, K.rand_codes(rng, (rank_cap, shape[1])))
                    R, pivots = L.rref(K, A)
                    R_ref, pivots_ref = _loop_rref(K, A)
                    assert _same(R, R_ref) and pivots == pivots_ref
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
        assert L.inverse(K, K.zeros(0, 0)).shape == (0, 0)


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
    residual, coords = sp.reduce_rows(rows[2][None])
    assert not residual.any()
    # coords express the vector over the raw basis rows
    raw = sp.raw_basis_rows()
    acc = F4.zeros(4)
    for c, r in zip(coords[0], raw):
        acc = F4.add(acc, F4.mul(c, r))
    assert np.array_equal(acc, rows[2])
    outside, _ = sp.reduce_rows(np.array([[0, 0, 0, 1]], dtype=np.int64))
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
    assert _is_invariant(F2, sp2.echelon_matrix(), [M])


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
        return sp.reduce_rows(v[None])[0][0, free]

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


# ----- oracle: the sequential semi-echelon RowSpace and spin -----


class _SequentialRowSpace:
    """Reference row space: rows kept as inserted, sorted by pivot, and
    reduced one pivot at a time."""

    def __init__(self, field, ambient, track=False):
        self.field = field
        self.ambient = ambient
        self.track = track
        self._pivots = []
        self._rows = []
        self._exprs = []
        self._raw = []

    @property
    def dim(self):
        return len(self._rows)

    def _reduce(self, v, want_coords):
        field = self.field
        residual = np.asarray(v, dtype=np.int64).copy()
        coords = np.zeros(len(self._raw), dtype=np.int64) if want_coords else None
        for i, pcol in enumerate(self._pivots):
            factor = residual[pcol]
            if factor:
                residual = field.sub(residual, field.mul(factor, self._rows[i]))
                if want_coords:
                    coords = field.add(coords, field.mul(factor, self._exprs[i][: len(coords)]))
        return residual, coords

    def reduce(self, v):
        return self._reduce(v, False)[0]

    def reduce_with_coords(self, v):
        if not self.track:
            raise InputError("RowSpace built without tracking")
        return self._reduce(v, True)

    def reduce_rows(self, V):
        out = [self._reduce(v, self.track) for v in V]
        residual = np.stack([r for r, _ in out])
        return residual, np.stack([c for _, c in out]) if self.track else None

    def add(self, v):
        return self._insert(v)[0]

    def _insert(self, v):
        field = self.field
        residual, coords = self._reduce(v, self.track)
        nz = np.nonzero(residual)[0]
        if nz.size == 0:
            return False, coords
        pivot = int(nz[0])
        s = field.inv(residual[pivot])
        row = field.mul(s, residual)
        pos = int(np.searchsorted(self._pivots, pivot))
        if self.track:
            k = len(self._raw)
            expr = np.zeros(self.ambient, dtype=np.int64)
            expr[:k] = field.neg(field.mul(s, coords))
            expr[k] = s
            self._raw.append(np.asarray(v, dtype=np.int64).copy())
            self._exprs.insert(pos, expr)
        self._pivots.insert(pos, pivot)
        self._rows.insert(pos, row)
        return True, None

    def raw_basis_rows(self):
        return list(self._raw)

    def echelon_matrix(self):
        if not self._rows:
            return np.zeros((0, self.ambient), dtype=np.int64)
        return np.stack(self._rows)

    def pivot_columns(self):
        return list(self._pivots)


def _sequential_spin(field, mats, seeds, log=None):
    ambient = mats[0].shape[0] if mats else len(seeds[0])
    space = _SequentialRowSpace(field, ambient, track=True)
    raw = space._raw
    j = 0
    for i, seed in enumerate(seeds):
        if space.dim == ambient:
            break
        if not space.add(seed):
            continue
        if log is not None:
            log.append((-1, i, None))
        while j < len(raw):
            v = raw[j]
            for g, M in enumerate(mats):
                w = field.mat_vec(M, v)
                if log is None:
                    space.add(w)
                else:
                    log.append((j, g, space._insert(w)[1]))
            j += 1
    return space


# ----- reference: the fully reduced RowSpace one vector at a time -----


class _PerVectorRowSpace(L.RowSpace):
    """Reference insertion and reduction: each vector is reduced on its own,
    by the rows with a nonzero entry at its pivots (`_reduce`), and its row
    is built and cleared from the others by elementwise field calls."""

    def _reduce(self, v, want_coords):
        field = self.field
        k, a = self._k, self.ambient
        v = np.asarray(v, dtype=np.int64)
        f = v[self._pivots[:k]]
        nz = f.nonzero()[0]
        if not nz.size:
            return v.copy(), np.zeros(k, dtype=np.int64) if want_coords else None
        width = a + k if want_coords else a
        combo = field.mat_mul(f[None, nz], self._rows[nz, :width])[0]
        return field.sub(v, combo[:a]), combo[a:] if want_coords else None

    def reduce(self, v):
        return self._reduce(v, False)[0]

    def reduce_with_coords(self, v):
        if not self.track:
            raise InputError("RowSpace built without tracking")
        return self._reduce(v, True)

    def add(self, v):
        return self._insert(v)[0]

    def _insert(self, v):
        field = self.field
        residual, coords = self._reduce(v, self.track)
        nz = residual.nonzero()[0]
        if not nz.size:
            return False, coords
        pivot = int(nz[0])
        k, a = self._k, self.ambient
        if k == len(self._pivots):
            self._alloc(min(2 * k, a))
        width = self._width(k + 1)
        if self.track:
            new = np.empty(width, dtype=np.int64)
            new[:a] = residual
            new[a:-1] = field.neg(coords)
            new[-1] = 1
        else:
            new = residual
        row = field.mul(field.inv(residual[pivot]), new)
        hit = self._rows[:k, pivot].nonzero()[0]
        if hit.size:
            rows = self._rows[hit, :width]
            self._rows[hit, :width] = field.sub(rows, field.mul(rows[:, pivot, None], row))
        self._pivots[k] = pivot
        self._rows[k, :width] = row
        self._inserted.append(row[:a].copy() if self.track else row)
        if self.track:
            self._raw.append(np.asarray(v, dtype=np.int64).copy())
        self._k = k + 1
        return True, None


def _per_vector_spin(field, mats, seeds, log=None):
    ambient = mats[0].shape[0] if mats else len(seeds[0])
    stack = L._stacked(mats, ambient)
    space = _PerVectorRowSpace(field, ambient, track=True)
    raw = space._raw
    j = 0
    for i, seed in enumerate(seeds):
        if space.dim == ambient:
            break
        if not space.add(seed):
            continue
        if log is not None:
            log.append((-1, i, None))
        while j < len(raw):
            if space.dim == ambient:
                if log is not None:
                    rest = field.mat_mul(np.stack(raw[j:]), stack.T).reshape(-1, ambient)
                    _, coords = space.reduce_rows(rest)
                    n = len(mats)
                    log.extend((j + r // n, r % n, c) for r, c in enumerate(coords))
                break
            images = field.mat_vec(stack, raw[j]).reshape(-1, ambient)
            for g, w in enumerate(images):
                if log is None:
                    space.add(w)
                else:
                    log.append((j, g, space._insert(w)[1]))
            j += 1
    return space


def _loop_rref(field, A):
    """Reference rref: one elementwise field call per step."""
    A = np.asarray(A, dtype=np.int64).copy()
    m, d = A.shape
    pivots = []
    r = 0
    for c in range(d):
        if r == m:
            break
        nz = np.nonzero(A[r:, c])[0]
        if nz.size == 0:
            continue
        pr = r + int(nz[0])
        if pr != r:
            A[[r, pr]] = A[[pr, r]]
        A[r] = field.mul(field.inv(A[r, c]), A[r])
        others = np.nonzero(A[:, c])[0]
        others = others[others != r]
        if others.size:
            A[others] = field.sub(A[others], field.mul(A[others, c][:, None], A[r][None, :]))
        pivots.append(c)
        r += 1
    return A, pivots


# GF(2^20) has no log/exp tables: its rows go through digit convolutions
ORACLE_FIELDS = [(2, 1), (3, 1), (5, 1), (2, 2), (3, 2), (5, 2), (7, 1), (2, 20)]


def _same(a, b):
    if a is None or b is None:
        return a is None and b is None
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b)


def _vector_stream(K, d, rng, n):
    """Random, zero, sparse, scaled and dependent vectors, then enough random
    ones to fill the space."""
    seen = []
    for t in range(n):
        kind = t % 5
        if kind == 0 or not seen:
            v = K.rand_codes(rng, d)
        elif kind == 1:
            v = K.zeros(d)
        elif kind == 2:
            v = K.zeros(d)
            v[rng.integers(0, d)] = rng.integers(1, K.q)
        elif kind == 3:
            v = K.mul(np.int64(rng.integers(1, K.q)), seen[rng.integers(0, len(seen))])
        else:
            cs = K.rand_codes(rng, len(seen))
            v = K.mat_vec(np.stack(seen).T.copy(), cs)
        seen.append(v)
        yield v
    for _ in range(6 * d):
        yield K.rand_codes(rng, d)


def _assert_spaces_agree(new, old, probes):
    assert new.dim == old.dim
    assert _same(new.echelon_matrix(), old.echelon_matrix())
    assert new.pivot_columns() == old.pivot_columns()
    for v in probes:  # one vector at a time against the reference's own reduction
        r_new, c_new = new.reduce_rows(v[None])
        assert _same(r_new[0], old.reduce(v))
        if old.track:
            r_old, c_old = old.reduce_with_coords(v)
            assert _same(r_new[0], r_old) and _same(c_new[0], c_old)
        else:
            assert c_new is None
    r_new, c_new = new.reduce_rows(np.stack(probes))
    r_old, c_old = old.reduce_rows(np.stack(probes))
    assert _same(r_new, r_old) and _same(c_new, c_old)
    if old.track:
        raw_new, raw_old = new.raw_basis_rows(), old.raw_basis_rows()
        assert len(raw_new) == len(raw_old)
        assert all(_same(a, b) for a, b in zip(raw_new, raw_old))


def _assert_stacked_insert(space, ref, V, probes):
    """Insert the stack V at once into space and one by one into ref."""
    added, E = space._insert_rows(V)
    d = space.ambient
    assert E.dtype == np.int64 and len(added) == len(V)
    for v, new, e in zip(V, added, E):
        ok, coords = ref._insert(v)
        assert new == ok
        if not ok:  # e is (0 | -coords) against the rows present at its turn
            assert not e[:d].any()
            if ref.track:
                assert _same(e[d : d + len(coords)], ref.field.neg(coords))
                assert not e[d + len(coords) :].any()
    _assert_spaces_agree(space, ref, probes)


@pytest.mark.parametrize("p,n", ORACLE_FIELDS)
@pytest.mark.parametrize("track", [False, True])
def test_rowspace_matches_sequential_oracle(p, n, track):
    K = make_field(p, n)
    for seed in range(3):
        rng = np.random.default_rng(100 * p + 10 * n + track + 1000 * seed)
        for d in (1, 5, 11):
            new = L.RowSpace(K, d, track=track)
            old = _SequentialRowSpace(K, d, track=track)
            ref = _PerVectorRowSpace(K, d, track=track)
            probes = [K.rand_codes(rng, d) for _ in range(3)] + [K.zeros(d)]
            stream = list(_vector_stream(K, d, rng, 3 * d))
            for v in stream:
                probes[0] = v
                assert new.add(v) == old.add(v) == ref.add(v)
                _assert_spaces_agree(new, old, probes)
                _assert_spaces_agree(new, ref, probes)
            assert new.dim == d  # the stream filled the ambient space
            if not track:
                assert new.reduce_rows(probes[1][None])[1] is None
                with pytest.raises(InputError):
                    new.raw_basis_rows()
            # the same stream in stacks of 1 to 4 candidates at once
            stacked = L.RowSpace(K, d, track=track)
            ref = _PerVectorRowSpace(K, d, track=track)
            lo = 0
            while lo < len(stream):
                hi = lo + int(rng.integers(1, 5))
                _assert_stacked_insert(stacked, ref, np.stack(stream[lo:hi]), probes)
                lo = hi
            assert stacked.dim == d


def _random_module(K, d, rng, blocks, gens=2):
    """`gens` generators, block upper triangular along `blocks` when given,
    so that spins can stop at proper invariant subspaces."""
    mats = []
    for _ in range(gens):
        M = K.rand_codes(rng, (d, d))
        start = 0
        for b in blocks:
            M[start + b :, start : start + b] = 0
            start += b
        mats.append(M)
    return mats


def _assert_logs_agree(log_new, log_old):
    assert len(log_new) == len(log_old)
    for (j1, g1, c1), (j2, g2, c2) in zip(log_new, log_old):
        assert (j1, g1) == (j2, g2) and _same(c1, c2)


@pytest.mark.parametrize("p,n", ORACLE_FIELDS)
def test_spin_logs_match_sequential_oracle(p, n):
    K = make_field(p, n)
    for seed in range(3):
        rng = np.random.default_rng(7 * p + n + 1000 * seed)
        # (8, (8,)) with four generators fills the span partway through the
        # images of one vector; (7, ones) stops at every proper subspace
        for d, blocks, gens in ((6, (), 2), (9, (3, 2), 2), (8, (8,), 4), (7, (1,) * 7, 2)):
            mats = _random_module(K, d, rng, blocks, gens)
            for seeds in (
                [K.rand_codes(rng, d)],
                [np.eye(d, dtype=np.int64)[d - 1]],
                [K.zeros(d), np.eye(d, dtype=np.int64)[d - 1], K.rand_codes(rng, d)],
                list(K.identity(d)),
            ):
                log_new, log_old, log_ref = [], [], []
                new = L.spin(K, mats, seeds, log=log_new)
                old = _sequential_spin(K, mats, seeds, log=log_old)
                ref = _per_vector_spin(K, mats, seeds, log=log_ref)
                _assert_logs_agree(log_new, log_old)
                _assert_logs_agree(log_new, log_ref)
                probes = [K.rand_codes(rng, d)]
                _assert_spaces_agree(new, old, probes)
                _assert_spaces_agree(new, ref, probes)
                plain = L.spin(K, mats, seeds)
                _assert_spaces_agree(plain, old, probes)
                _assert_spaces_agree(plain, _per_vector_spin(K, mats, seeds), probes)


def _sequential_action_on_subspace(K, B, mats):
    space = _SequentialRowSpace(K, B.shape[1], track=True)
    for row in B:
        space.add(row)
    out = []
    for M in mats:
        A = np.zeros((B.shape[0],) * 2, dtype=np.int64)
        for i, row in enumerate(B):
            A[:, i] = space.reduce_with_coords(K.mat_vec(M, row))[1]
        out.append(A)
    return out


def _sequential_action_on_quotient(K, B, mats):
    space = _SequentialRowSpace(K, B.shape[1])
    for row in B:
        space.add(row)
    free = [c for c in range(B.shape[1]) if c not in space.pivot_columns()]
    out = []
    for M in mats:
        A = np.zeros((len(free),) * 2, dtype=np.int64)
        for j, c in enumerate(free):
            A[:, j] = space.reduce(M[:, c])[free]
        out.append(A)
    return out, free


@pytest.mark.parametrize("p,n", ORACLE_FIELDS)
def test_block_actions_match_sequential_oracle(p, n):
    K = make_field(p, n)
    rng = np.random.default_rng(11 * p + n)
    d = 9
    mats = _random_module(K, d, rng, (4, 5))
    for seed in (np.eye(d, dtype=np.int64)[0], np.eye(d, dtype=np.int64)[3], K.rand_codes(rng, d)):
        span = L.spin(K, mats, [seed])
        for B in (span.echelon_matrix(), np.stack(span.raw_basis_rows())):
            assert _is_invariant(K, B, mats)
            got = L.action_on_subspace(K, B, mats)
            want = _sequential_action_on_subspace(K, B, mats)
            assert all(_same(a, b) for a, b in zip(got, want))
            got_q, free = L.action_on_quotient(K, B, mats)
            want_q, want_free = _sequential_action_on_quotient(K, B, mats)
            assert free == want_free
            assert all(_same(a, b) for a, b in zip(got_q, want_q))
    assert not _is_invariant(K, np.eye(d, dtype=np.int64)[4:5], mats)


# ----- oracle: one logged sequential spin per seed -----


def _spin_action(log, n_mats, d):
    """Action matrices, stacked, in the raw basis of a full-dimensional logged spin.

    Column j of matrix g holds the raw-basis coordinates of mats[g] @ raw[j]:
    a unit vector when that image joined the basis, else the logged coords.
    """
    A = np.zeros((n_mats, d, d), dtype=np.int64)
    n_raw = 0
    for j, g, coords in log:
        if coords is None:
            if j >= 0:
                A[g, n_raw, j] = 1
            n_raw += 1
        else:
            A[g, : len(coords), j] = coords
    return A


def _assert_spin_each_matches_spin(K, mats, seeds):
    d = seeds.shape[1]
    dims, acts = L.spin_each(K, mats, seeds, actions=True)
    plain_dims, no_acts = L.spin_each(K, mats, seeds)
    assert no_acts is None
    assert _same(dims, plain_dims)
    assert acts.shape == (len(seeds), len(mats), d, d) and acts.dtype == np.int64
    for v, dim, A in zip(seeds, dims, acts):
        log = []
        span = L.spin(K, mats, [v], log=log)
        assert dim == span.dim
        want = _spin_action(log, len(mats), d) if dim == d else np.zeros_like(A)
        assert _same(A, want)
    return dims


def _seed_sample(K, d, rng):
    """Every vector when there are few, else unit vectors, their sum,
    scaled copies and random vectors, and the zero vector."""
    if K.q**d <= 512:
        codes = np.arange(K.q**d, dtype=np.int64)
        return (codes[:, None] // K.q ** np.arange(d, dtype=np.int64)) % K.q
    eye = K.identity(d)
    rand = K.rand_codes(rng, (40, d))
    ones = np.ones((1, d), dtype=np.int64)
    return np.vstack([eye, ones, K.mul(K.gen_code, rand[:5]), rand, K.zeros(1, d)])


SPIN_EACH_FIELDS = [(2, 1), (3, 1), (5, 1), (2, 2), (2, 3), (3, 2)]


@pytest.mark.parametrize("p,n", SPIN_EACH_FIELDS)
def test_spin_each_matches_logged_spins(p, n):
    K = make_field(p, n)
    rng = np.random.default_rng(13 * p + n)
    cat = catalog()
    modules = [
        list(regular_module(cat["C4"], K).matrices),  # uniserial when p = 2: spins of every dim
        list(regular_module(cat["S3"], K).matrices),
        list(permutation_module(cat["S4"], K).matrices),  # all-ones line, sum-zero hyperplane
        _random_module(K, 7, rng, (2, 3)),
        _random_module(K, 5, rng, ()),
    ]
    short = set()
    for mats in modules:
        d = mats[0].shape[0]
        dims = _assert_spin_each_matches_spin(K, mats, _seed_sample(K, d, rng))
        short |= {int(x) for x in dims if 0 < x < d}
    assert len(short) >= 2  # short spins of different dimensions took part


@pytest.mark.parametrize("p,n", SPIN_EACH_FIELDS)
def test_spin_each_edge_cases(p, n):
    K = make_field(p, n)
    rng = np.random.default_rng(17 * p + n)
    # d = 1, and a group without generators: every spin is the seed's line
    one = [K.rand_codes(rng, (1, 1)) % (K.q - 1) + 1]
    _assert_spin_each_matches_spin(K, one, np.array([[0], [1], [K.q - 1]], dtype=np.int64))
    seeds = np.vstack([K.zeros(1, 3), K.identity(3), K.rand_codes(rng, (4, 3))])
    dims = _assert_spin_each_matches_spin(K, [], seeds)
    assert dims.tolist() == [0, 1, 1, 1] + [int(v.any()) for v in seeds[4:]]
    assert _assert_spin_each_matches_spin(K, [], np.ones((2, 1), dtype=np.int64)).tolist() == [1, 1]
    dims, acts = L.spin_each(K, one, np.zeros((0, 1), dtype=np.int64), actions=True)
    assert dims.shape == (0,) and acts.shape == (0, 1, 1, 1)


def test_spin_each_blocks_agree(monkeypatch):
    K = make_field(3, 1)
    rng = np.random.default_rng(5)
    mats = _random_module(K, 6, rng, (2, 4))
    seeds = _seed_sample(K, 6, rng)
    whole = L.spin_each(K, mats, seeds, actions=True)
    monkeypatch.setattr(L, "_SPIN_BLOCK", 7)
    parts = L.spin_each(K, mats, seeds, actions=True)
    assert _same(whole[0], parts[0]) and _same(whole[1], parts[1])
