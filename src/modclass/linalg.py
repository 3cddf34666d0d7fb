"""Exact linear algebra over GF(p^n) on integer-coded numpy matrices.

Vectors are 1-D code arrays; a subspace is held either as rows of a matrix
or as a :class:`RowSpace`, a growing set of fully reduced rows used by the
spinning algorithms.  A RowSpace reduces only whole stacks of vectors
(:meth:`RowSpace.reduce_rows`, one matrix product; one vector is a stack of
one), so the restricted and quotient actions each reduce all images at
once, and `spin` inserts all images of one vector from one product.
Everything here is deterministic.

The row arithmetic of `rref` and RowSpace is the field's: ``sub_outer``,
``mul``, ``inv1`` and ``combine`` (see :mod:`modclass.finite_field`) pick
one expression per kind of field (``inv1`` through the polynomial kernels
of :mod:`modclass.polynomials`), so nothing here branches on the field.
"""

from __future__ import annotations

import numpy as np

from .errors import InputError
from .finite_field import FiniteField


def rref(field: FiniteField, A: np.ndarray):
    """Reduced row echelon form; returns (R, pivot_columns)."""
    A = np.array(A, dtype=np.int64)
    m, d = A.shape
    pivots: list[int] = []
    r = 0
    for c in range(d):
        if r == m:
            break
        nz = A[r:, c].nonzero()[0]
        if not nz.size:
            continue
        pr = r + int(nz[0])
        if pr != r:
            A[[r, pr]] = A[[pr, r]]
        if A[r, c] != 1:
            A[r] = field.mul(field.inv1(A[r, c]), A[r])
        others = A[:, c].nonzero()[0]
        others = others[others != r]
        if others.size:
            A[others] = field.sub_outer(A[others], A[others, c], A[r])
        pivots.append(c)
        r += 1
    return A, pivots


def rank(field: FiniteField, A: np.ndarray) -> int:
    return len(rref(field, A)[1])


def nullspace(field: FiniteField, A: np.ndarray) -> np.ndarray:
    """Rows spanning {v : A v = 0}."""
    A = np.asarray(A, dtype=np.int64)
    m, d = A.shape
    R, pivots = rref(field, A)
    pivot_set = set(pivots)
    free = [c for c in range(d) if c not in pivot_set]
    out = np.zeros((len(free), d), dtype=np.int64)
    out[np.arange(len(free)), free] = 1
    out[:, pivots] = field.neg(R[: len(pivots), free]).T
    return out


def solve(field: FiniteField, A: np.ndarray, b: np.ndarray):
    """One solution of A x = b, or None."""
    A = np.asarray(A, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64).reshape(-1, 1)
    m, d = A.shape
    R, pivots = rref(field, np.hstack([A, b]))
    if d in pivots:
        return None
    x = np.zeros(d, dtype=np.int64)
    for row, pcol in enumerate(pivots):
        x[pcol] = R[row, d]
    return x


def inverse(field: FiniteField, M: np.ndarray) -> np.ndarray:
    M = np.asarray(M, dtype=np.int64)
    d = M.shape[0]
    if M.shape != (d, d):
        raise InputError("inverse requires a square matrix")
    R, pivots = rref(field, np.hstack([M, field.identity(d)]))
    if pivots != list(range(d)):
        raise InputError("matrix is singular")
    return R[:, d:]


def is_invertible(field: FiniteField, M: np.ndarray) -> bool:
    M = np.asarray(M, dtype=np.int64)
    return M.shape[0] == M.shape[1] and rank(field, M) == M.shape[0]


class RowSpace:
    """Growing subspace with optional raw-basis coordinate tracking.

    The subspace is held as fully reduced rows: row i has a 1 at its pivot
    column and a 0 at every other row's pivot.  Reducing a stack of
    vectors (:meth:`reduce_rows`, the only reduction) is then one product
    of their entries at the pivots with the rows, and the residual of v is
    the unique member of v + span with zeros at every pivot.

    With tracking, the vectors added through :meth:`add` are also kept
    verbatim (the raw basis, in insertion order), and each row carries its
    expression in them to its right, so the same product also yields the
    coordinates of v - residual in the raw basis.  The rows live in one
    array that doubles when full.

    Insertion reduces a whole stack of candidates with one product and then
    takes them in order; each new row is cleared, by one rank-one update,
    from the rows that have its pivot and from the candidates still
    waiting.  The row arithmetic is the field's own
    (:meth:`~modclass.finite_field.FiniteField.sub_outer`, ``mul`` and
    ``inv1``), which picks its expression by the kind of field.
    """

    def __init__(self, field: FiniteField, ambient: int, track: bool = False):
        self.field = field
        self.ambient = ambient
        self.track = track
        self._k = 0
        self._alloc(min(ambient, 8))
        self._inserted: list[np.ndarray] = []  # rows as inserted, before later clearing
        self._raw: list[np.ndarray] = []

    def _alloc(self, cap: int) -> None:
        """Room for cap rows: pivots, and rows [reduced row | expression]."""
        k = self._k
        pivots = np.zeros(cap, dtype=np.intp)
        rows = np.zeros((cap, self.ambient + (cap if self.track else 0)), dtype=np.int64)
        if k:
            pivots[:k] = self._pivots[:k]
            rows[:k, : self._width(k)] = self._rows[:k, : self._width(k)]
        self._pivots, self._rows = pivots, rows

    def _width(self, k: int) -> int:
        """Columns in use while there are k rows."""
        return self.ambient + k if self.track else self.ambient

    @property
    def dim(self) -> int:
        return self._k

    def reduce_rows(self, V: np.ndarray):
        """(residuals, coords) of the rows of V; coords is None when untracked."""
        field = self.field
        k, a = self._k, self.ambient
        V = np.asarray(V, dtype=np.int64)
        combo = field.mat_mul(V[:, self._pivots[:k]], self._rows[:k, : self._width(k)])
        residual = field.sub(V, combo[:, :a])
        return residual, combo[:, a:] if self.track else None

    def add(self, v: np.ndarray) -> bool:
        """Insert v if independent of the current rows; returns True if added."""
        return self._insert_rows(np.asarray(v, dtype=np.int64)[None])[0][0]

    def _insert_rows(self, V: np.ndarray):
        """Insert the rows of V in order, each exactly as :meth:`add` would.

        Returns (added, E): added[i] tells whether V[i] joined.  E[i] is
        (residual | -coords) of V[i] against the rows present at its turn,
        coords being its coordinates in the raw basis as it stood then
        (residual only when untracked); for a dependent V[i] the residual is
        zero.  All of V is reduced by one product; a candidate is reduced
        further only by the rows that joined from V before it.
        """
        field = self.field
        a, k = self.ambient, self._k
        m = len(V)
        need = min(k + m, a)
        while len(self._pivots) < need:
            self._alloc(min(2 * len(self._pivots), a))
        width = self._width(need)
        E = np.zeros((m, width), dtype=np.int64)
        E[:, :a] = V
        if k:
            E = field.sub(E, field.mat_mul(V[:, self._pivots[:k]], self._rows[:k, :width]))
        added = [False] * m
        for i in range(m):
            nz = E[i, :a].nonzero()[0]
            if not nz.size:
                continue
            pivot, k = int(nz[0]), self._k
            row = E[i]
            if self.track:  # V[i] = raw[k], so its row is s * (residual | -coords | 1)
                row[a + k] = 1
            if row[pivot] != 1:
                row = field.mul(field.inv1(row[pivot]), row)
            # clear the new pivot column from the rows and candidates that have it
            if k:
                rows = self._rows[:k, :width]
                field.sub_outer(rows, rows[:, pivot], row)
            if i + 1 < m:
                field.sub_outer(E[i + 1 :], E[i + 1 :, pivot], row)
            self._pivots[k] = pivot
            self._rows[k, :width] = row
            self._inserted.append(row[:a].copy())  # keeps neither E nor the expression alive
            if self.track:
                self._raw.append(V[i].copy())
            self._k = k + 1
            added[i] = True
        return added, E

    def raw_basis_rows(self) -> list[np.ndarray]:
        if not self.track:
            raise InputError("RowSpace built without tracking")
        return list(self._raw)

    def echelon_matrix(self) -> np.ndarray:
        """The rows as they were inserted, sorted by pivot: a semi-echelon basis."""
        if not self._k:
            return np.zeros((0, self.ambient), dtype=np.int64)
        order = np.argsort(self._pivots[: self._k])
        return np.stack([self._inserted[i] for i in order])

    def pivot_columns(self) -> list[int]:
        return sorted(self._pivots[: self._k].tolist())


def spin(
    field: FiniteField, mats: list[np.ndarray], seeds: list[np.ndarray], log: list | None = None
) -> RowSpace:
    """Close the span of the seeds under the given matrices, breadth-first.

    Deterministic: each discovered basis vector is hit by every matrix in
    order, and a seed is taken up only once the span of the earlier seeds is
    closed (and skipped if it lies in that span).  Returns a tracked
    RowSpace whose raw basis is the discovery-order spanning set.

    If ``log`` is a list, one entry per event is appended in discovery
    order: ``(-1, i, None)`` when seed i joins the raw basis,
    ``(j, g, None)`` when ``mats[g] @ raw[j]`` joins it, and
    ``(j, g, coords)`` when that image is dependent, coords being its
    coordinates in the raw basis as it stood then.

    One stacked product gives a vector's images under all the matrices,
    and one insertion (:meth:`RowSpace._insert_rows`) takes them in order.
    Once the span is the whole space every image left is dependent: the
    log gets them from one block reduction, and without a log the spin
    stops there.
    """
    ambient = mats[0].shape[0] if mats else len(seeds[0])
    stack = _stacked(mats, ambient)
    space = RowSpace(field, ambient, track=True)
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
                # every image left is dependent: log them all from one reduction
                if log is not None:
                    rest = field.mat_mul(np.stack(raw[j:]), stack.T).reshape(-1, ambient)
                    _, coords = space.reduce_rows(rest)
                    n = len(mats)
                    log.extend((j + r // n, r % n, c) for r, c in enumerate(coords))
                break
            k = space.dim
            added, E = space._insert_rows(field.mat_vec(stack, raw[j]).reshape(-1, ambient))
            if log is not None:
                coords = field.neg(E[:, ambient:])
                for g, new in enumerate(added):
                    log.append((j, g, None if new else coords[g, :k]))
                    k += new
            j += 1
    return space


# spin_each spins at most this many seeds at once, so the memory of a scan
# grows with this block and the dimension, not with the number of points.
_SPIN_BLOCK = 1024


def spin_each(field: FiniteField, mats: list[np.ndarray], seeds: np.ndarray, actions: bool = False):
    """Spin every seed on its own, all of them in lockstep.

    Returns (dims, acts): dims[i] is the dimension of spin(field, mats,
    [seeds[i]]).  With ``actions``, acts[i] stacks the matrices of the action
    in the raw basis of that spin (column j of matrix g holds the coordinates
    of mats[g] @ raw[j]) for every seed whose spin is the whole space, and is
    zero for the others; otherwise acts is None.

    The seeds are spun breadth-first like `spin`, but in lockstep: every
    seed meets the same events (raw vector j, matrix g).  One product gives
    the images of all raw vectors j under every matrix, one batched product
    reduces them against each seed's fully reduced rows, and the independent
    ones join their spins together.  So each raw basis is the one `spin`
    finds, and coordinates in a basis are unique.
    """
    seeds = np.asarray(seeds, dtype=np.int64)
    d = seeds.shape[1]
    stack_t = _stacked(mats, d).T  # (d, len(mats) * d): one product applies every matrix
    blocks = [
        _spin_block(field, stack_t, seeds[lo : lo + _SPIN_BLOCK], actions)
        for lo in range(0, len(seeds), _SPIN_BLOCK) or [0]
    ]
    dims = np.concatenate([b[0] for b in blocks])
    return dims, np.concatenate([b[1] for b in blocks]) if actions else None


def _spin_block(field: FiniteField, stack_t: np.ndarray, seeds: np.ndarray, track: bool):
    """spin_each on one block of seeds; the matrices come stacked as stack_t.

    Seed s holds its raw basis in raw[s, :k[s]] and its fully reduced rows
    in rows[s, :k[s]], each followed by its expression in the raw basis
    when tracked.  Rows past k[s] are zero, so they take part in every
    batched product without effect, and so do seeds whose spin is closed
    (their next raw vector is zero) or full (no image is independent).
    With tracking the events go on once a spin is full, to read the
    coordinates of every image.
    """
    m, d = seeds.shape
    n = stack_t.shape[1] // d
    width = 2 * d if track else d
    raw = np.zeros((m, d, d), dtype=np.int64)
    rows = np.zeros((m, d, width), dtype=np.int64)
    pivots = np.zeros((m, d), dtype=np.intp)
    k = np.zeros(m, dtype=np.intp)
    acts = np.zeros((m, n, d, d), dtype=np.int64) if track else None

    def insert(W, combo):
        """Reduce the candidate W[s] of every seed s; the independent ones
        join, and their indices are returned."""
        residual = field.sub(W, combo[:, :d])
        new = np.flatnonzero(residual.any(axis=1))
        if not new.size:
            return new
        res, kn = residual[new], k[new]
        r = kn.max()  # rows in use by these seeds
        piv = np.argmax(res != 0, axis=1)
        # residual = w - coords . raw, so row = s * (residual | -coords | 1 at raw k)
        row = np.zeros((len(new), width), dtype=np.int64)
        row[:, :d] = res
        if track:
            row[:, d:] = field.neg(combo[new, d:])
            row[np.arange(len(new)), d + kn] = 1
        row = field.mul(field.inv(res[np.arange(len(new)), piv])[:, None], row)
        # clear the new pivot column from the rows that have it
        old = rows[new, :r]
        hit = np.take_along_axis(old, piv[:, None, None], axis=2)[:, :, 0]  # (new, r)
        rows[new, :r] = field.sub_outer(old, hit, row)
        rows[new, kn] = row
        pivots[new, kn] = piv
        raw[new, kn] = W[new]
        k[new] = kn + 1
        return new

    insert(seeds, np.zeros((m, width), dtype=np.int64))
    for j in range(d):
        if not ((k > j) & ((k < d) | track)).any():
            break
        images = field.mat_mul(raw[:, j], stack_t)  # (m, n * d)
        for g in range(n):
            r = k.max()
            W = images[:, g * d : (g + 1) * d]
            coeffs = np.take_along_axis(W, pivots[:, :r], axis=1)
            combo = field.combine(coeffs, rows[:, :r])
            new = insert(W, combo)
            if track:
                # column j of matrix g: the coordinates of a dependent image,
                # a unit vector for one that joined the raw basis
                acts[:, g, :, j] = combo[:, d:]
                acts[new, g, :, j] = 0
                acts[new, g, k[new] - 1, j] = 1
    if track:
        acts[k < d] = 0
    return k, acts


def _stacked(mats: list[np.ndarray], d: int) -> np.ndarray:
    """The matrices stacked vertically, so one product applies all of them."""
    return np.concatenate(mats) if len(mats) else np.zeros((0, d), dtype=np.int64)


def _images(field: FiniteField, rows: np.ndarray, mats: list[np.ndarray]) -> np.ndarray:
    """Images M @ r of every row r under every matrix, as rows grouped by M."""
    k, d = rows.shape
    prod = field.mat_mul(_stacked(mats, d), rows.T)  # (len(mats) * d, k)
    return prod.reshape(len(mats), d, k).transpose(0, 2, 1).reshape(-1, d)


def _space_of(field: FiniteField, basis_rows: np.ndarray, track: bool = False) -> RowSpace:
    space = RowSpace(field, basis_rows.shape[1], track=track)
    space._insert_rows(np.asarray(basis_rows, dtype=np.int64))
    return space


def action_on_subspace(field: FiniteField, basis_rows: np.ndarray, mats: list[np.ndarray]):
    """Matrices of the restricted action in the coordinates of basis_rows."""
    k = basis_rows.shape[0]
    space = _space_of(field, basis_rows, track=True)
    if space.dim < k:
        raise InputError("subspace basis rows are dependent")
    residual, coords = space.reduce_rows(_images(field, basis_rows, mats))
    if residual.any():
        raise InputError("subspace is not invariant under the action")
    return [np.ascontiguousarray(A.T) for A in coords.reshape(len(mats), k, k)]


def action_on_quotient(field: FiniteField, basis_rows: np.ndarray, mats: list[np.ndarray]):
    """Matrices of the induced action on ambient/span(basis_rows).

    Quotient coordinates are taken at the non-pivot columns of the subspace's
    echelon form (unit vectors there descend to a basis of the quotient).
    Returns (matrices, free_columns).
    """
    d = basis_rows.shape[1]
    space = _space_of(field, basis_rows)
    piv = set(space.pivot_columns())
    free = [c for c in range(d) if c not in piv]
    # the image of the unit vector e_c under M is the column M[:, c]
    residual, _ = space.reduce_rows(_stacked([M[:, free].T for M in mats], d))
    m = len(free)
    return [np.ascontiguousarray(R[:, free].T) for R in residual.reshape(len(mats), m, d)], free
