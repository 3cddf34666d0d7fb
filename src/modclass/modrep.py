"""Modules over group algebras KG: matrix representations and functors.

A :class:`Rep` assigns one invertible matrix over a finite field to each
group generator; matrices act on column vectors, and the assignment extends
to all elements along breadth-first words.  Permutation modules, tensor
products, the scalar functors (extension and restriction along a subfield),
the subgroup functors (restriction and induction), Frobenius twists and
homomorphism spaces all live here.  A module solves End(V) only once.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import ConsistencyError, InputError, NotSubfieldError, _require
from .finite_field import FieldAutomorphism, FiniteField, embed, make_field
from . import linalg
from .perm_group import PermGroup, Subgroup, pinv, pmul, right_transversal


class Rep:
    """A KG-module: one matrix per generator of the group.

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
        self.matrices = tuple(mats)
        if check:
            for M in self.matrices:
                if np.any(M < 0) or np.any(M >= field.q):
                    raise InputError("matrix entry out of range for %r" % field)
                if self.dim and not linalg.is_invertible(field, M):
                    raise InputError("generator image is singular")
        self._element_cache: dict = {group_identity(group): field.identity(self.dim)}
        self._char_polys = None
        self._end = None
        self._structure = None  # (dim End, dim rad End, local?), kept by meataxe

    def element_matrix(self, g) -> np.ndarray:
        """Image of an arbitrary group element, assembled along its word."""
        g = tuple(g)
        M = self._element_cache.get(g)
        if M is None:
            word = self.group.word(g)
            M = self.field.identity(self.dim)
            for k in word:
                M = self.field.mat_mul(M, self.matrices[k])
            M.setflags(write=False)
            self._element_cache[g] = M
        return M

    def generator_char_polys(self):
        """Characteristic polynomials of the generator images (an invariant)."""
        if self._char_polys is None:
            from .polynomials import char_poly

            self._char_polys = tuple(
                tuple(int(c) for c in char_poly(self.field, M)) for M in self.matrices
            )
        return self._char_polys

    def endomorphisms(self):
        """(basis, seeds) of End(V) from :func:`hom_basis_and_seeds`, solved once.

        The seeds index unit vectors e_s with V = sum_s KG e_s; a G-map is
        zero as soon as it kills every e_s, so it is determined by those
        columns.
        """
        if self._end is None:
            mats = list(self.matrices)
            basis, seeds = hom_basis_and_seeds(self.field, mats, mats, self.dim, self.dim)
            for b in basis:
                b.setflags(write=False)
            self._end = tuple(basis), tuple(seeds)
        return self._end

    def __repr__(self):
        return "<Rep dim=%d over %r of %r>" % (self.dim, self.field, self.group)


def group_identity(group: PermGroup):
    return group.elements[0] if group.elements else ()


def trivial_module(group: PermGroup, field: FiniteField) -> Rep:
    one = np.ones((1, 1), dtype=np.int64)
    return Rep(group, field, [one for _ in group.generators], check=False, dim=1)


def regular_module(group: PermGroup, field: FiniteField) -> Rep:
    """Right multiplication on the group's own element list."""
    n = group.order
    mats = []
    for gen in group.generators:
        M = np.zeros((n, n), dtype=np.int64)
        for i, x in enumerate(group.elements):
            M[i, group.index_of(pmul(x, gen))] = 1
        mats.append(M)
    return Rep(group, field, mats, check=False, dim=n)


def permutation_module(group: PermGroup, field: FiniteField) -> Rep:
    """The natural module: the group permuting the unit vectors of K^degree."""
    mats = []
    for gen in group.generators:
        M = np.zeros((group.degree, group.degree), dtype=np.int64)
        M[np.arange(group.degree), gen] = 1
        mats.append(M)
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
    """Induction from a subgroup to G, on coset-block coordinates."""
    H = V.group
    if H.degree != G.degree or any(h not in G for h in H.elements):
        raise InputError("the module's group is not a subgroup of the target group")
    sub = Subgroup(G, H.elements)
    T = right_transversal(G, sub)
    hset = set(H.elements)
    coset_of = {}
    for j, t in enumerate(T):
        for h in H.elements:
            coset_of[pmul(h, t)] = j
    d = V.dim
    k = len(T)
    mats = []
    for gen in G.generators:
        M = np.zeros((k * d, k * d), dtype=np.int64)
        for i, t in enumerate(T):
            u = pmul(t, gen)
            j = coset_of[u]
            h = pmul(u, pinv(T[j]))
            _require(h in hset, "coset representative product is not in the subgroup")
            M[i * d : (i + 1) * d, j * d : (j + 1) * d] = V.element_matrix(h)
        mats.append(M)
    return Rep(G, V.field, mats, check=False, dim=k * d)


def frobenius_twist(V: Rep, sigma: FieldAutomorphism | int) -> Rep:
    if isinstance(sigma, int):
        sigma = FieldAutomorphism(V.field, sigma)
    if sigma.field is not V.field:
        raise InputError("automorphism belongs to a different field")
    if sigma.is_identity():
        return V
    return Rep(V.group, V.field, [sigma.apply_codes(M) for M in V.matrices], check=False, dim=V.dim)


class HomSpace:
    """Basis of the space of module homomorphisms between two reps."""

    def __init__(self, source: Rep, target: Rep, basis: list[np.ndarray]):
        self.source = source
        self.target = target
        self.basis = basis

    @property
    def dim(self) -> int:
        return len(self.basis)

    def __repr__(self):
        return "<HomSpace dim=%d: %d -> %d>" % (self.dim, self.source.dim, self.target.dim)


def hom_basis_matrices(field: FiniteField, mats_src, mats_tgt, d_src: int, d_tgt: int):
    """Matrices M with M A_g = B_g M for all generator pairs (A_g, B_g),
    solved by :func:`hom_basis_and_seeds`."""
    return hom_basis_and_seeds(field, mats_src, mats_tgt, d_src, d_tgt)[0]


def hom_basis_and_seeds(field: FiniteField, mats_src, mats_tgt, d_src: int, d_tgt: int):
    """(basis, seeds): :func:`hom_basis_matrices` and the indices s of the
    unit vectors e_s its spin of the source took, which generate the source
    (empty when either dimension is 0).

    Standard-basis method (Lux & Szoke, Exp. Math. 12, 2003): spin the
    source from the unit vectors e_0, e_1, ...  A spun vector
    v_j = A_g v_parent carries W_j = B_g W_parent, so that M v_j = W_j t_s
    where t_s = M s is the image of the seed s it was spun from.  Each
    dependent image A_g v_j = sum_l c_l v_l gives d_tgt linear equations
    B_g W_j t_s(j) = sum_l c_l W_l t_s(l), so the system has only
    (number of seeds) * d_tgt unknowns.

    The basis is canonical: it is the one that is the identity on the free
    columns of the Kronecker system for the row-major vec(M), that is, the
    reduced echelon form of the solution space with its columns reversed,
    listed by ascending pivot.  Randomized callers rely on this order.
    """
    D = d_src * d_tgt
    if D == 0:
        return [], []
    # both actions trivial (no generators, or the identity generator of a
    # trivial subgroup): every matrix is a homomorphism
    if all(np.array_equal(M, np.eye(len(M), dtype=np.int64)) for M in (*mats_src, *mats_tgt)):
        return [m.reshape(d_tgt, d_src) for m in np.eye(D, dtype=np.int64)], list(range(d_src))
    log: list = []
    space = linalg.spin(field, mats_src, list(field.identity(d_src)), log=log)
    W: list[np.ndarray] = []  # M v_j = W[j] t_seed_of[j]
    seed_of: list[int] = []
    relations = []
    seeds: list[int] = []
    for j, g, coords in log:
        if coords is not None:
            relations.append((j, g, coords))
        elif j < 0:
            seed_of.append(len(seeds))
            seeds.append(g)
            W.append(field.identity(d_tgt))
        else:
            seed_of.append(seed_of[j])
            W.append(field.mat_mul(mats_tgt[g], W[j]))
    k = len(seeds)
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
    for g, B in enumerate(mats_tgt):
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
        return [], seeds

    # images of the spun vectors, then M = [M v_j] P^-1 with P = [v_j]
    T = N.reshape(h, k, d_tgt)
    Y = np.zeros((d_src, d_tgt, h), dtype=np.int64)
    for s, idx in enumerate(by_seed):
        Y[idx] = field.mat_mul(Wst[idx].reshape(-1, d_tgt), T[:, s, :].T).reshape(-1, d_tgt, h)
    Pinv = linalg.inverse(field, np.stack(space.raw_basis_rows(), axis=1))
    X = field.mat_mul(Y.transpose(2, 1, 0).reshape(h * d_tgt, d_src), Pinv).reshape(h, D)
    R, pivots = linalg.rref(field, X[:, ::-1])
    if len(pivots) != h:
        raise ConsistencyError("spun homomorphisms are linearly dependent")
    basis = np.ascontiguousarray(R[h - 1 :: -1, ::-1]).reshape(h, d_tgt, d_src)

    for A, B in zip(mats_src, mats_tgt):
        left = field.mat_mul(basis.reshape(h * d_tgt, d_src), A).reshape(h, d_tgt, d_src)
        right_t = field.mat_mul(basis.transpose(0, 2, 1).reshape(h * d_src, d_tgt), B.T)
        if not np.array_equal(left, right_t.reshape(h, d_src, d_tgt).transpose(0, 2, 1)):
            raise ConsistencyError("computed homomorphism does not intertwine the actions")
    return list(basis), seeds


def hom_space(V: Rep, U: Rep) -> HomSpace:
    """All M over the common field with M @ rho_V(g) = rho_U(g) @ M."""
    if V.group != U.group:
        raise InputError("hom space requires modules of the same group")
    if V.field is not U.field:
        raise InputError("hom space requires a common coefficient field")
    basis = hom_basis_matrices(V.field, V.matrices, U.matrices, V.dim, U.dim)
    return HomSpace(V, U, basis)


def validate(V: Rep, full: bool = False) -> list[str]:
    """Check invertibility and the homomorphism law; returns found issues.

    Checking every (element, generator) pair already proves multiplicativity
    for all pairs by induction on word length; full mode checks every pair
    anyway.
    """
    issues = []
    for k, M in enumerate(V.matrices):
        if V.dim and not linalg.is_invertible(V.field, M):
            issues.append("generator %d image is singular" % k)
    if issues:
        return issues
    G = V.group
    pairs = [(a, b) for a in G.elements for b in (G.elements if full else G.generators)]
    for a, b in pairs:
        lhs = V.field.mat_mul(V.element_matrix(a), V.element_matrix(b))
        if not np.array_equal(lhs, V.element_matrix(pmul(a, b))):
            issues.append("multiplicativity fails at element pair %r, %r" % (a, b))
            return issues
    return issues
