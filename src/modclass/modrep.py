"""Modules over group algebras KG: matrix representations and functors.

A :class:`Rep` assigns one invertible matrix over a finite field to each
group generator; matrices act on column vectors, and the images of all
elements form one stack per module, built level by level along the
group's breadth-first word tree (`Rep.element_matrices`).  Permutation
modules, tensor products, the scalar functors (extension and restriction
along a subfield), the subgroup functors (restriction and induction),
Frobenius twists and homomorphism spaces all live here.

`hom_space(V, U)` is the one Hom solver: it takes two modules and returns
the canonical basis of Hom(V, U) as one (h, dim U, dim V) array, which
callers index and reshape; `Rep.endomorphisms` keeps End(V) as that array,
read-only.  Between permutation modules the basis comes from orbitals,
else from spinning V (the standard-basis method).  Each module works out
its facts once and keeps them: whether its generators act by permutation
matrices, its orbits on the unit vectors, its seeds and End(V).  The seeds
of a module that is not a permutation module are read off the log of the
first spin of it, which is that of its End solve when that comes first.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import ConsistencyError, InputError, NotSubfieldError, _require
from .finite_field import FieldAutomorphism, FiniteField, embed, make_field
from . import linalg
from .perm_group import PermGroup, Subgroup, right_transversal


class Rep:
    """A KG-module: one matrix per generator of the group, and the stack of
    the images of all elements (`element_matrices`) once it is asked for.

    The dimension is read off the matrices; a group without generators has
    none, so its modules need an explicit ``dim``.
    """

    def __init__(
        self, group: PermGroup, field: FiniteField, matrices, check: bool = True, dim: int | None = None
    ):
        self.group = group
        self.field = field
        mats = []
        for M in matrices:
            M = np.asarray(M, dtype=np.int64)
            if M.ndim != 2 or M.shape[0] != M.shape[1]:
                raise InputError("generator matrix must be square, got %s" % (M.shape,))
            M = M.copy()
            M.setflags(write=False)
            mats.append(M)
        if len(mats) != len(group.generators):
            raise InputError(
                "need %d matrices (one per generator), got %d"
                % (len(group.generators), len(mats))
            )
        dims = {M.shape[0] for M in mats} | ({dim} if dim is not None else set())
        if len(dims) > 1:
            raise InputError("generator matrices differ in size or from the given dimension")
        if not dims:
            raise InputError("a module of a group without generators needs an explicit dimension")
        self.dim = dims.pop()
        if self.dim < 0:
            raise InputError("module dimension must be >= 0, got %d" % self.dim)
        self.matrices = tuple(mats)
        if check:
            for M in self.matrices:
                if np.any(M < 0) or np.any(M >= field.q):
                    raise InputError("matrix entry out of range for %r" % field)
                if self.dim and not linalg.is_invertible(field, M):
                    raise InputError("generator image is singular")
        self._stack = None
        self._char_polys = None
        self._end = None
        self._seeds = None
        self._structure = None  # (dim End, dim rad End, local?), kept by meataxe

    def element_matrices(self) -> np.ndarray:
        """The (|G|, d, d) stack of the images of all group elements, in the
        order of ``group.elements``; built once and read-only.

        It is built level by level along the group's breadth-first word
        tree: the elements whose words end in generator k at one level are
        their parents times the image of k, one product for all of them.
        The products come in the order of the words, so the bytes equal a
        letter-by-letter fold.
        """
        if self._stack is None:
            G, d = self.group, self.dim
            stack = np.empty((G.order, d, d), dtype=np.int64)
            stack[0] = self.field.identity(d)
            for k, idx in G._steps:
                prod = self.field.mat_mul(stack[G._parent[idx]].reshape(len(idx) * d, d), self.matrices[k])
                stack[idx] = prod.reshape(len(idx), d, d)
            stack.setflags(write=False)
            self._stack = stack
        return self._stack

    def element_matrix(self, g) -> np.ndarray:
        """Image of an arbitrary group element, read-only: read off
        `element_matrices` once the stack is built, else folded letter by
        letter along g's word in the word tree (the same bytes), so a few
        reads do not build all |G| images."""
        G, i = self.group, self.group.index_of(g)
        if self._stack is not None:
            return self._stack[i]
        word = []
        while i:
            word.append(int(G._gen[i]))
            i = G._parent[i]
        M = self.field.identity(self.dim)
        for k in reversed(word):
            M = self.field.mat_mul(M, self.matrices[k])
        M.setflags(write=False)
        return M

    def generator_char_polys(self):
        """Characteristic polynomials of the generator images (an invariant)."""
        if self._char_polys is None:
            from .polynomials import char_poly

            self._char_polys = tuple(
                tuple(int(c) for c in char_poly(self.field, M)) for M in self.matrices
            )
        return self._char_polys

    def endomorphisms(self) -> np.ndarray:
        """The basis of End(V) from :func:`hom_space`, solved once and read-only.

        A piece that ``meataxe.decompose`` splits off along the End of its
        parent comes with its End already set, the corner eEe of the
        parent's End, equal to what the solve would return.
        """
        if self._end is None:
            self._end = hom_space(self, self)
            self._end.setflags(write=False)
        return self._end

    @functools.cached_property
    def permutations(self) -> list[np.ndarray] | None:
        """sigma_g with A_g[i, sigma_g[i]] = 1 for the generator images A_g
        when all are permutation matrices, else None; checked once."""
        return _permutations(self.matrices) if self.dim else []

    @functools.cached_property
    def point_orbits(self) -> list[np.ndarray] | None:
        """The orbits on the unit vectors when every generator acts by a
        permutation matrix, as index arrays by ascending least point, else None."""
        if self.permutations is None:
            return None
        lab = _orbit_labels(self.permutations, self.dim)
        return [np.flatnonzero(lab == r) for r in np.flatnonzero(lab == np.arange(self.dim))]

    def seeds(self) -> tuple[int, ...]:
        """Ascending indices s of unit vectors e_s with V = sum_s KG e_s.

        A G-map is zero as soon as it kills every e_s, so it is determined
        by those columns.  For a permutation module KG e_x = K[orbit of x],
        and the seeds are the least points of the orbits; for any other
        module they are the unit vectors a spin from e_0, e_1, ... takes,
        kept from the spin that solved a Hom out of V if one came first.
        """
        if self._seeds is None:
            if self.point_orbits is not None:
                self._seeds = tuple(int(orbit[0]) for orbit in self.point_orbits)
            else:
                self._spin_units()
        return self._seeds

    def _spin_units(self):
        """(space, log) of a logged spin from e_0, e_1, ...; the unit vectors
        the log takes up are the seeds, and unset seeds are set to them."""
        log: list = []
        space = linalg.spin(self.field, list(self.matrices), list(self.field.identity(self.dim)), log=log)
        if self._seeds is None:
            self._seeds = tuple(g for j, g, _ in log if j < 0)
        return space, log

    def key(self) -> tuple:
        """Equal keys mean the same module: one group, one field and equal matrices."""
        return (self.group, self.field, self.dim, *(M.tobytes() for M in self.matrices))

    def __repr__(self):
        return "<Rep dim=%d over %r of %r>" % (self.dim, self.field, self.group)


def trivial_module(group: PermGroup, field: FiniteField) -> Rep:
    one = np.ones((1, 1), dtype=np.int64)
    return Rep(group, field, [one for _ in group.generators], check=False, dim=1)


def regular_module(group: PermGroup, field: FiniteField) -> Rep:
    """Right multiplication on the group's own element list."""
    n, table = group.order, group._tables()[0]
    mats = [np.eye(n, dtype=np.int64)[table[:, group.index_of(gen)]] for gen in group.generators]
    return Rep(group, field, mats, check=False, dim=n)


def permutation_module(group: PermGroup, field: FiniteField) -> Rep:
    """The natural module: the group permuting the unit vectors of K^degree."""
    mats = [np.eye(group.degree, dtype=np.int64)[list(gen)] for gen in group.generators]
    return Rep(group, field, mats, check=False, dim=group.degree)


def tensor_product(V: Rep, U: Rep) -> Rep:
    """V (x) U, each generator acting by the Kronecker product of its images."""
    if V.group != U.group or V.field is not U.field:
        raise InputError("tensor product needs matching group and field")
    d = V.dim * U.dim
    mats = [
        V.field.mul(A[:, None, :, None], B[None, :, None, :]).reshape(d, d)
        for A, B in zip(V.matrices, U.matrices)
    ]
    return Rep(V.group, V.field, mats, check=False, dim=d)


def direct_sum(V: Rep, U: Rep) -> Rep:
    if V.group != U.group or V.field is not U.field:
        raise InputError("direct sum needs matching group and field")
    mats = []
    for A, B in zip(V.matrices, U.matrices):
        M = V.field.zeros(V.dim + U.dim, V.dim + U.dim)
        M[: V.dim, : V.dim] = A
        M[V.dim :, V.dim :] = B
        mats.append(M)
    return Rep(V.group, V.field, mats, check=False, dim=V.dim + U.dim)


def extend_scalars(V: Rep, L: FiniteField) -> Rep:
    """The same matrices read over an extension field L of the coefficients."""
    emb = embed(V.field, L)  # raises NotSubfieldError if impossible
    return Rep(V.group, L, [emb.apply_codes(M) for M in V.matrices], check=False, dim=V.dim)


@functools.cache
def _subfield_coordinates(K: FiniteField, L: FiniteField):
    """Return (xpowers, to_coords) writing L as a K-vector space.

    Basis: powers 1, x, ..., x^(r-1) of L's generator, r = [L:K].
    to_coords maps an array of L-codes to an array with a trailing axis of
    r K-codes.  Built once per field pair; :func:`make_field` interns
    fields, so the pair is a sound cache key.
    """
    emb = embed(K, L)
    r = L.n // K.n
    xpow = [1]
    for _ in range(r - 1):
        xpow.append(int(L.mul(xpow[-1], L.gen_code)))
    # F_p-linear change of basis: digits of sum_j emb(c_j) x^j from K-digit blocks
    cols = []
    for j in range(r):
        for i in range(K.n):
            c = K.encode(np.eye(K.n, dtype=np.int64)[i])
            val = L.mul(emb.apply_codes(np.int64(c)), np.int64(xpow[j]))
            cols.append(L.decode(val))
    prime = make_field(L.p, 1)
    T = np.stack(cols, axis=1)  # (L.n, r*K.n), F_p matrix
    Tinv = linalg.inverse(prime, T)

    def to_coords(codes: np.ndarray) -> np.ndarray:
        codes = np.asarray(codes, dtype=np.int64)
        digits = L.decode(codes)  # (..., L.n)
        blocks = (digits @ Tinv.T) % L.p  # (..., r*K.n)
        shaped = blocks.reshape(codes.shape + (r, K.n))
        return shaped @ (K.p ** np.arange(K.n, dtype=np.int64))

    return tuple(xpow), to_coords


def restrict_scalars(V: Rep, K: FiniteField) -> Rep:
    """View an L-module as a K-module of dimension [L:K] * dim."""
    L = V.field
    if K.p != L.p or L.n % K.n != 0:
        raise NotSubfieldError("GF(%d^%d) is not a subfield of GF(%d^%d)" % (K.p, K.n, L.p, L.n))
    if K is L:
        return V
    r = L.n // K.n
    xpow, to_coords = _subfield_coordinates(K, L)
    d = V.dim
    mats = []
    for M in V.matrices:
        big = np.zeros((d * r, d * r), dtype=np.int64)
        for j in range(r):
            prod = L.mul(M, np.int64(xpow[j]))  # entrywise M * x^j
            coords = to_coords(prod)  # (d, d, r) with K-codes
            for i in range(r):
                big[i::r, j::r] = coords[:, :, i]
        # interleaving above puts entry (u,v) block at rows u*r+i, cols v*r+j
        mats.append(big)
    return Rep(V.group, K, mats, check=False, dim=d * r)


def restrict_subgroup(V: Rep, H: Subgroup) -> Rep:
    """The same space seen as a module for a subgroup."""
    if H.parent is not V.group:
        raise InputError("subgroup does not belong to the module's group")
    mats = [V.element_matrix(g) for g in H.group.generators]
    return Rep(H.group, V.field, mats, check=False, dim=V.dim)


def induce(V: Rep, G: PermGroup) -> Rep:
    """Induction from a subgroup H to G, on coset-block coordinates: over the
    right transversal t_0, t_1, ... of H, a generator s sends block i to the
    block j of the coset H t_j that holds t_i s, by the image of t_i s t_j^-1."""
    H = V.group
    if H.degree != G.degree or any(h not in G for h in H.elements):
        raise InputError("the module's group is not a subgroup of the target group")
    sub = Subgroup(G, H.elements)  # sub._idx lists H's elements in H's own order
    (table, _, inv), t = G._tables(), right_transversal(G, sub)
    k, d = len(t), V.dim
    coset = np.empty(G.order, dtype=np.intp)
    coset[table[np.ix_(sub._idx, t)]] = np.arange(k)
    mats = []
    for s in G.generators:
        u = table[t, G.index_of(s)]
        j = coset[u]
        h = table[u, inv[t[j]]]
        _require(sub._mask[h].all(), "coset representative product is not in the subgroup")
        M = np.zeros((k, d, k, d), dtype=np.int64)
        M[np.arange(k), :, j, :] = V.element_matrices()[np.searchsorted(sub._idx, h)]
        mats.append(M.reshape(k * d, k * d))
    return Rep(G, V.field, mats, check=False, dim=k * d)


def frobenius_twist(V: Rep, sigma: FieldAutomorphism | int) -> Rep:
    if isinstance(sigma, int):
        sigma = FieldAutomorphism(V.field, sigma)
    if sigma.field is not V.field:
        raise InputError("automorphism belongs to a different field")
    if sigma.is_identity():
        return V
    return Rep(V.group, V.field, [sigma.apply_codes(M) for M in V.matrices], check=False, dim=V.dim)


def hom_space(V: Rep, U: Rep) -> np.ndarray:
    """The canonical basis of the maps M with M rho_V(g) = rho_U(g) M for
    every generator g, as one (h, dim U, dim V) array; h = 0 when either
    dimension is 0.

    The basis is the one that is the identity on the free columns of the
    Kronecker system for the row-major vec(M), that is, the reduced echelon
    form of the solution space with its columns reversed, listed by
    ascending position of the last nonzero entry of vec(M).  Randomized
    callers rely on this order.

    When both modules are permutation modules (identity matrices and no
    generators included), the basis comes without a linear solve
    (`_orbital_hom_basis`): one 0/1 matrix per orbit of the generators on
    the cells of M (Schur's centralizer ring).  Every other pair is solved
    by spinning V (`_spin_hom_basis`).
    """
    if V.group != U.group:
        raise InputError("hom space requires modules of the same group")
    if V.field is not U.field:
        raise InputError("hom space requires a common coefficient field")
    if V.dim * U.dim == 0:
        return np.zeros((0, U.dim, V.dim), dtype=np.int64)
    if V.dim == U.dim == 1:  # a nonzero scalar intertwines equal actions only
        same = all(np.array_equal(A, B) for A, B in zip(V.matrices, U.matrices))
        return np.ones((1, 1, 1), dtype=np.int64) if same else np.zeros((0, 1, 1), dtype=np.int64)
    if V.permutations is not None and U.permutations is not None:
        return _orbital_hom_basis(V, U)
    return _spin_hom_basis(V, U)


def _permutation(M: np.ndarray):
    """sigma with M[i, sigma[i]] = 1 if M is a permutation matrix, else None."""
    n = len(M)
    if np.count_nonzero(M) != n:
        return None
    sigma = M.argmax(axis=1)
    if not (M[np.arange(n), sigma] == 1).all():
        return None
    hit = np.zeros(n, dtype=bool)
    hit[sigma] = True
    return sigma if hit.all() else None


def _permutations(mats):
    """The permutations of a list of permutation matrices, or None as soon
    as one matrix is not a permutation matrix."""
    perms = []
    for M in mats:
        sigma = _permutation(M)
        if sigma is None:
            return None
        perms.append(sigma)
    return perms


def _orbit_labels(perms, n: int) -> np.ndarray:
    """lab[x] = the least point of the orbit of x under the permutations
    `perms` of range(n).

    Min-label propagation along both directions of every permutation, with
    pointer jumping; a label is always a point of the same orbit and never
    above its own point, and at the fixed point it is constant on orbits.
    """
    lab = np.arange(n)
    while True:
        new = lab.copy()
        for f in perms:
            np.minimum(new, lab[f], out=new)
            new[f] = np.minimum(new[f], lab)
        new = new[new]
        if np.array_equal(new, lab):
            return lab
        lab = new


def _orbital_hom_basis(V: Rep, U: Rep):
    """Hom between permutation modules: one indicator matrix per orbit.

    With A_g[i, sigma_g[i]] = 1 and B_g[j, tau_g[j]] = 1, M A_g = B_g M
    reads M[j, x] = M[tau_g[j], sigma_g[x]], so the solutions are the
    matrices constant on the orbits of the pairs (tau_g, sigma_g) on the
    cells (j, x).  The indicators have disjoint supports, so listed by
    ascending last cell of vec(M) they are the canonical basis.
    """
    d_src, d_tgt = V.dim, U.dim
    D = d_src * d_tgt
    cells = np.arange(D)
    lab = _orbit_labels([(t[:, None] * d_src + s).ravel() for s, t in zip(V.permutations, U.permutations)], D)
    last = np.zeros(D, dtype=np.int64)
    np.maximum.at(last, lab, cells)
    roots = np.flatnonzero(lab == cells)
    roots = roots[np.argsort(last[roots])]
    rank = np.empty(D, dtype=np.int64)
    rank[roots] = np.arange(len(roots))
    basis = np.zeros((len(roots), D), dtype=np.int64)
    basis[rank[lab], cells] = 1
    basis = basis.reshape(-1, d_tgt, d_src)
    # M A = M[:, i(x)] with A[i(x), x] = 1, and B M = M[j'(j), :] with B[j, j'(j)] = 1;
    # basis[c] is 1 exactly where cls is c, so checking cls checks every basis matrix
    cls = rank[lab].reshape(d_tgt, d_src)
    for A, B in zip(V.matrices, U.matrices):
        if not np.array_equal(cls[:, A.argmax(axis=0)], cls[B.argmax(axis=1), :]):
            raise ConsistencyError("computed homomorphism does not intertwine the actions")
    return basis


def _spin_hom_basis(V: Rep, U: Rep):
    """:func:`hom_space` by the standard-basis method (Lux & Szoke, Exp.
    Math. 12, 2003), for any nonzero dimensions.

    Spin V from the unit vectors e_0, e_1, ...  A spun vector
    v_j = A_g v_parent carries W_j = B_g W_parent, so that M v_j = W_j t_s
    where t_s = M s is the image of the seed s it was spun from.  Each
    dependent image A_g v_j = sum_l c_l v_l gives dim U linear equations
    B_g W_j t_s(j) = sum_l c_l W_l t_s(l), so the system has only
    (number of seeds) * dim U unknowns.  The seeds are those of
    :meth:`Rep.seeds`, and the spin sets them on V if they are unset.
    """
    field, d_src, d_tgt = V.field, V.dim, U.dim
    D = d_src * d_tgt
    space, log = V._spin_units()
    W: list[np.ndarray] = []  # M v_j = W[j] t_seed_of[j]
    seed_of: list[int] = []
    relations = []
    k = 0  # seeds so far
    for j, g, coords in log:
        if coords is not None:
            relations.append((j, g, coords))
        elif j < 0:
            seed_of.append(k)
            k += 1
            W.append(field.identity(d_tgt))
        else:
            seed_of.append(seed_of[j])
            W.append(field.mat_mul(U.matrices[g], W[j]))
    seed_of = np.array(seed_of)
    Wst = np.stack(W)
    by_seed = [np.nonzero(seed_of == s)[0] for s in range(k)]

    # E[r, :, s, :] is the coefficient block of t_s in relation r
    C = np.zeros((len(relations), d_src), dtype=np.int64)
    for r, (_, _, coords) in enumerate(relations):
        C[r, : len(coords)] = coords
    E = np.zeros((len(relations), d_tgt, k, d_tgt), dtype=np.int64)
    for s, idx in enumerate(by_seed):
        comb = field.mat_mul(Wst[idx].transpose(1, 2, 0).reshape(-1, len(idx)), C[:, idx].T)
        E[:, :, s, :] = field.neg(comb.T).reshape(-1, d_tgt, d_tgt)
    rel_j = np.array([j for j, _, _ in relations])
    rel_g = np.array([g for _, g, _ in relations])
    for g, B in enumerate(U.matrices):
        rs = np.nonzero(rel_g == g)[0]
        if not rs.size:
            continue
        js = rel_j[rs]
        # tall-by-small products, as transposes: (B W)^T = W^T B^T
        prod_t = field.mat_mul(Wst[js].transpose(0, 2, 1).reshape(-1, d_tgt), B.T)
        ss = seed_of[js]
        blocks = prod_t.reshape(-1, d_tgt, d_tgt).transpose(0, 2, 1)
        E[rs, :, ss, :] = field.add(E[rs, :, ss, :], blocks)
    N = linalg.nullspace(field, E.reshape(-1, k * d_tgt))
    h = N.shape[0]
    if h == 0:
        return np.zeros((0, d_tgt, d_src), dtype=np.int64)

    # images of the spun vectors, then M = [M v_j] P^-1 with P = [v_j]
    T = N.reshape(h, k, d_tgt)
    Y = np.zeros((d_src, d_tgt, h), dtype=np.int64)
    for s, idx in enumerate(by_seed):
        Y[idx] = field.mat_mul(Wst[idx].reshape(-1, d_tgt), T[:, s, :].T).reshape(-1, d_tgt, h)
    Pinv = linalg.inverse(field, np.stack(space.raw_basis_rows(), axis=1))
    X = field.mat_mul(Y.transpose(2, 1, 0).reshape(h * d_tgt, d_src), Pinv).reshape(h, D)
    basis = _canonical_hom_basis(X, V, U)
    if len(basis) != h:
        raise ConsistencyError("spun homomorphisms are linearly dependent")
    return basis


def _canonical_hom_basis(X: np.ndarray, V: Rep, U: Rep):
    """The canonical basis (as in :func:`hom_space`) of the span of the
    rows of X, each the row-major vec(M) of a map M from V to U: the
    reduced echelon form of X with its columns reversed, listed by
    ascending position of the last nonzero entry.  Raises
    ConsistencyError unless every basis map intertwines every generator pair.
    """
    field, d_src, d_tgt = V.field, V.dim, U.dim
    R, pivots = linalg.rref(field, X[:, ::-1])
    h = len(pivots)
    basis = np.ascontiguousarray(R[:h][::-1, ::-1]).reshape(h, d_tgt, d_src)
    for A, B in zip(V.matrices, U.matrices):
        left = field.mat_mul(basis.reshape(h * d_tgt, d_src), A).reshape(h, d_tgt, d_src)
        right_t = field.mat_mul(basis.transpose(0, 2, 1).reshape(h * d_src, d_tgt), B.T)
        if not np.array_equal(left, right_t.reshape(h, d_src, d_tgt).transpose(0, 2, 1)):
            raise ConsistencyError("computed homomorphism does not intertwine the actions")
    return basis


def validate(V: Rep) -> list[str]:
    """Check invertibility and the homomorphism law; returns found issues.

    Only the pairs (element, generator) are checked, and that proves the
    law for every pair by induction on the word length of the second
    factor: if rho(a) rho(b) = rho(ab) for all a, then
    rho(a) rho(b s) = rho(a) rho(b) rho(s) = rho(ab) rho(s) = rho(abs)
    for each generator s.
    """
    issues = []
    for k, M in enumerate(V.matrices):
        if V.dim and not linalg.is_invertible(V.field, M):
            issues.append("generator %d image is singular" % k)
    if issues:
        return issues
    G, stack = V.group, V.element_matrices()
    table, gens = G._tables()[0], [G.index_of(b) for b in G.generators]
    bad = np.zeros((G.order, len(gens)), dtype=bool)
    for k, b in enumerate(gens):  # every rho(a) rho(b) at once
        lhs = V.field.mat_mul(stack.reshape(G.order * V.dim, V.dim), stack[b])
        bad[:, k] = (lhs.reshape(stack.shape) != stack[table[:, b]]).any(axis=(1, 2))
    if bad.any():
        a, k = divmod(int(bad.argmax()), len(gens))
        issues.append("multiplicativity fails at element pair %r, %r" % (G.elements[a], G.generators[k]))
    return issues
