"""Exact linear algebra over GF(p^n) on integer-coded numpy matrices.

Vectors are 1-D code arrays; a subspace is held either as rows of a matrix
or as a :class:`RowSpace`, an incremental echelon structure used by the
spinning algorithms.  Everything here is deterministic.
"""

from __future__ import annotations

import bisect

import numpy as np

from .errors import InputError
from .finite_field import FiniteField


def rref(field: FiniteField, A: np.ndarray):
    """Reduced row echelon form; returns (R, pivot_columns)."""
    A = np.asarray(A, dtype=np.int64).copy()
    m, d = A.shape
    pivots: list[int] = []
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
    if len(pivots) < d or pivots[d - 1] != d - 1:
        raise InputError("matrix is singular")
    return R[:, d:]


def is_invertible(field: FiniteField, M: np.ndarray) -> bool:
    M = np.asarray(M, dtype=np.int64)
    return M.shape[0] == M.shape[1] and rank(field, M) == M.shape[0]


class RowSpace:
    """Growing echelonized subspace with optional raw-basis coordinate tracking.

    Rows added through :meth:`add` are kept twice when tracking: verbatim
    (the raw basis, in insertion order) and as echelon rows whose expression
    in the raw basis is maintained, so membership tests can also report
    coordinates relative to the vectors as they were inserted.
    """

    def __init__(self, field: FiniteField, ambient: int, track: bool = False):
        self.field = field
        self.ambient = ambient
        self.track = track
        self._pivots: list[int] = []
        self._rows: list[np.ndarray] = []
        self._exprs: list[np.ndarray] = []
        self._raw: list[np.ndarray] = []

    @property
    def dim(self) -> int:
        return len(self._rows)

    def _reduce(self, v: np.ndarray, want_coords: bool):
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

    def reduce(self, v: np.ndarray) -> np.ndarray:
        return self._reduce(v, False)[0]

    def reduce_with_coords(self, v: np.ndarray):
        if not self.track:
            raise InputError("RowSpace built without tracking")
        return self._reduce(v, True)

    def contains(self, v: np.ndarray) -> bool:
        return not self.reduce(v).any()

    def add(self, v: np.ndarray) -> bool:
        """Insert v if independent of the current rows; returns True if added."""
        return self._insert(v)[0]

    def _insert(self, v: np.ndarray):
        """(True, None) after inserting an independent v; otherwise (False,
        coords) with v's coordinates in the raw basis (None when untracked)."""
        field = self.field
        residual, coords = self._reduce(v, self.track)
        nz = np.nonzero(residual)[0]
        if nz.size == 0:
            return False, coords
        pivot = int(nz[0])
        s = field.inv(residual[pivot])
        row = field.mul(s, residual)
        pos = bisect.bisect_left(self._pivots, pivot)
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

    def raw_basis_rows(self) -> list[np.ndarray]:
        if not self.track:
            raise InputError("RowSpace built without tracking")
        return list(self._raw)

    def echelon_matrix(self) -> np.ndarray:
        if not self._rows:
            return np.zeros((0, self.ambient), dtype=np.int64)
        return np.stack(self._rows)

    def pivot_columns(self) -> list[int]:
        return list(self._pivots)


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
    """
    ambient = mats[0].shape[0] if mats else len(seeds[0])
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
            v = raw[j]
            for g, M in enumerate(mats):
                w = field.mat_vec(M, v)
                if log is None:
                    space.add(w)
                else:
                    log.append((j, g, space._insert(w)[1]))
            j += 1
    return space


def is_invariant(field: FiniteField, basis_rows: np.ndarray, mats: list[np.ndarray]) -> bool:
    space = RowSpace(field, basis_rows.shape[1])
    for row in basis_rows:
        space.add(row)
    for M in mats:
        for row in basis_rows:
            if not space.contains(field.mat_vec(M, row)):
                return False
    return True


def action_on_subspace(field: FiniteField, basis_rows: np.ndarray, mats: list[np.ndarray]):
    """Matrices of the restricted action in the coordinates of basis_rows."""
    k, d = basis_rows.shape
    space = RowSpace(field, d, track=True)
    for row in basis_rows:
        if not space.add(row):
            raise InputError("subspace basis rows are dependent")
    out = []
    for M in mats:
        A = np.zeros((k, k), dtype=np.int64)
        for i in range(k):
            residual, coords = space.reduce_with_coords(field.mat_vec(M, basis_rows[i]))
            if residual.any():
                raise InputError("subspace is not invariant under the action")
            A[:, i] = coords
        out.append(A)
    return out


def action_on_quotient(field: FiniteField, basis_rows: np.ndarray, mats: list[np.ndarray]):
    """Matrices of the induced action on ambient/span(basis_rows).

    Quotient coordinates are taken at the non-pivot columns of the subspace's
    echelon form (unit vectors there descend to a basis of the quotient).
    Returns (matrices, free_columns).
    """
    k, d = basis_rows.shape
    space = RowSpace(field, d)
    for row in basis_rows:
        space.add(row)
    piv = set(space.pivot_columns())
    free = [c for c in range(d) if c not in piv]
    out = []
    for M in mats:
        A = np.zeros((len(free), len(free)), dtype=np.int64)
        for j, c in enumerate(free):
            e = np.zeros(d, dtype=np.int64)
            e[c] = 1
            residual = space.reduce(field.mat_vec(M, e))
            A[:, j] = residual[free]
        out.append(A)
    return out, free
