"""Relative projectivity, vertices, sources and the Green correspondence.

Relative projectivity is decided exactly: V is projective relative to a
subgroup Q if and only if some Q-endomorphism of V has relative trace equal
to the identity (Higman's criterion), which is one linear system over the
coefficient field.  Relative traces and the identity are G-maps, and a
G-map psi is zero once psi e_s = 0 for the unit vectors e_s that generate V
as a KG-module (psi g e_s = g psi e_s), so the system needs only the
columns of the traces at those k seeds: d k equations instead of d^2.  The
vertex is found by scanning conjugacy class
representatives of p-subgroups in ascending order; at the first order with
a projectivity witness exactly one class can succeed, and a second success
raises ConsistencyError.  A source is the first summand U of the restriction
to the vertex with V a summand of Ind U, decided exactly from hom spaces.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConsistencyError, InputError
from . import linalg
from .meataxe import decompose, is_indecomposable
from .modrep import Rep, hom_basis_matrices, induce, restrict_subgroup
from .perm_group import (
    PermGroup,
    Subgroup,
    are_conjugate,
    normalizer,
    p_subgroups_up_to_conjugacy,
    pinv,
    right_transversal,
)


@dataclass
class ProjectivityResult:
    projective: bool
    relative_endomorphism: np.ndarray | None  # phi with trace(phi) = identity

    def __bool__(self) -> bool:
        return self.projective


@dataclass
class VertexSource:
    vertex: Subgroup
    source: Rep


def _relative_trace(V: Rep, transversal, phis: np.ndarray, cols) -> np.ndarray:
    """Columns `cols` of the relative traces sum_t t^-1 phi t of a stack of
    h maps, shape (h, d, k) for k columns.

    A chunk of m cosets takes two products for all h maps: the (h d) x d
    stack of the maps times the d x (m k) block of the columns of the t,
    then the d x (m d) block of the t^-1 times those images regrouped by
    coset.  m = min(d // k, h) keeps every intermediate within h d^2 cells.
    """
    field = V.field
    h, d = phis.shape[0], V.dim
    cols = list(cols)
    k = len(cols)
    m = min(d // k, h)
    stack = phis.reshape(h * d, d)
    acc = field.zeros(d, h * k)
    for start in range(0, len(transversal), m):
        chunk = transversal[start : start + m]
        n = len(chunk)
        right = np.concatenate([V.element_matrix(t)[:, cols] for t in chunk], axis=1)
        images = field.mat_mul(stack, right)  # block (i, t) is phi_i t[:, cols]
        images = images.reshape(h, d, n, k).transpose(2, 1, 0, 3).reshape(n * d, h * k)
        left = np.concatenate([V.element_matrix(pinv(t)) for t in chunk], axis=1)
        acc = field.add(acc, field.mat_mul(left, images))
    return acc.reshape(d, h, k).transpose(1, 0, 2)


def is_relatively_projective(V: Rep, Q: Subgroup) -> ProjectivityResult:
    """Higman's criterion as a linear feasibility problem on the seed columns.

    Every relative trace is a G-map, and so is the identity, so both are
    determined by their columns at the generating seeds of V: the system
    sum_i c_i Tr(phi_i)[:, seeds] = I[:, seeds] has the column dependencies
    of the full d^2-row system, and the same pivots and solution.  The
    solution's full trace is then checked against the identity.
    """
    if Q.parent is not V.group:
        raise InputError("subgroup belongs to a different group")
    field = V.field
    d = V.dim
    if d == 0:
        return ProjectivityResult(True, field.zeros(0, 0))
    q_mats = [V.element_matrix(g) for g in Q.group.generators]
    stack = np.stack(hom_basis_matrices(field, q_mats, q_mats, d, d))
    h = len(stack)
    T = right_transversal(V.group, Q)
    seeds = V.endomorphisms()[1]
    A = _relative_trace(V, T, stack, seeds).reshape(h, -1).T  # (d k, h)
    coeffs = linalg.solve(field, A, field.identity(d)[:, seeds].reshape(-1))
    if coeffs is None:
        return ProjectivityResult(False, None)
    phi = field.mat_mul(coeffs[None], stack.reshape(h, -1)).reshape(d, d)
    if not np.array_equal(_relative_trace(V, T, phi[None], range(d))[0], field.identity(d)):
        raise ConsistencyError("relative trace of the Higman solution is not the identity")
    return ProjectivityResult(True, phi)


def is_projective(V: Rep) -> ProjectivityResult:
    """Projective outright means projective relative to the trivial subgroup."""
    return is_relatively_projective(V, V.group.trivial_subgroup())


def vertex(V: Rep, seed: int = 0) -> Subgroup:
    """Minimal subgroup (up to conjugacy) relative to which V is projective.

    Only defined for indecomposable modules; decompose first otherwise.
    """
    if V.dim == 0:
        raise InputError("the zero module has no vertex")
    if not is_indecomposable(V, seed=seed):
        raise InputError("vertex is defined for indecomposable modules; decompose first")
    G = V.group
    p = V.field.p
    reps = p_subgroups_up_to_conjugacy(G, p)
    by_order: dict[int, list[Subgroup]] = {}
    for Q in reps:
        by_order.setdefault(Q.order, []).append(Q)
    for order in sorted(by_order):
        hits = [Q for Q in by_order[order] if is_relatively_projective(V, Q)]
        if hits:
            if len(hits) != 1:
                raise ConsistencyError(
                    "vertex is not unique up to conjugacy at order %d" % order
                )
            return hits[0]
    raise ConsistencyError("no vertex found; the Sylow level must always succeed")


def _is_summand(V: Rep, W: Rep) -> bool:
    """Whether the indecomposable module V is a direct summand of W.

    End(V) is local, so V | W exactly when beta alpha is invertible for some
    alpha in a basis of Hom(V, W) and beta in a basis of Hom(W, V): an
    invertible composite splits alpha, and if every basis composite lies in
    rad End(V), every composite does, so none is the identity.
    """
    field = V.field
    d, e = V.dim, W.dim
    alphas = hom_basis_matrices(field, V.matrices, W.matrices, d, e)
    betas = hom_basis_matrices(field, W.matrices, V.matrices, e, d) if alphas else []
    if not betas:
        return False
    a, b = len(alphas), len(betas)
    # one product: the (b d) x e stack of betas times the e x (a d) block of alphas
    stack = np.stack(betas).reshape(b * d, e)
    block = np.stack(alphas).transpose(1, 0, 2).reshape(e, a * d)
    prods = field.mat_mul(stack, block)
    composites = prods.reshape(b, d, a, d).transpose(0, 2, 1, 3).reshape(b * a, d, d)
    return any(linalg.is_invertible(field, c) for c in composites)


def source(V: Rep, Q: Subgroup | None = None, seed: int = 0) -> VertexSource:
    """A vertex of V together with a source: an indecomposable Q-module U
    with U a summand of the restriction and V a summand of its induction.

    The source is the first summand of the restriction, in decomposition
    order, whose induction has V as a summand.  A given Q that V is not
    projective relative to (Higman's criterion) raises InputError.
    """
    G = V.group
    if Q is None:
        Q = vertex(V, seed=seed)
    elif not is_indecomposable(V, seed=seed):
        raise InputError("source is defined for indecomposable modules; decompose first")
    res = restrict_subgroup(V, Q)
    for U, _ in decompose(res, seed=seed).summands:
        if _is_summand(V, induce(U, G)):
            return VertexSource(Q, U)
    # only a given Q can fail Higman's criterion; testing it here, not
    # first, leaves the call with a vertex Q at its old cost
    if not is_relatively_projective(V, Q):
        raise InputError("the module is not projective relative to the given subgroup")
    raise ConsistencyError("no summand of the restriction induces back to the module")


def green_correspondent(V: Rep, Q: Subgroup, H: Subgroup, seed: int = 0) -> Rep:
    """The unique summand of the restriction to H with vertex conjugate to Q.

    Requires N_G(Q) <= H; for H = G the correspondent is V itself.
    """
    G = V.group
    if Q.parent is not G or H.parent is not G:
        raise InputError("subgroups must belong to the module's group")
    qset = set(Q.elements)
    hset = set(H.elements)
    if not qset <= hset:
        raise InputError("the vertex subgroup must lie inside H")
    N = normalizer(G, Q)
    if not set(N.elements) <= hset:
        raise InputError("H must contain the normalizer of the vertex")
    vx = vertex(V, seed=seed)
    if not are_conjugate(G, vx, Q):
        raise InputError("Q is not a vertex of the module")
    if H.order == G.order:
        return V
    res = restrict_subgroup(V, H)
    dec = decompose(res, seed=seed)
    Hgrp = H.group
    Q_in_H = Subgroup(Hgrp, Q.elements)
    hits = []
    for U, mult in dec.summands:
        vU = vertex(U, seed=seed)
        if are_conjugate(Hgrp, vU, Q_in_H):
            hits.append((U, mult))
    if len(hits) != 1 or hits[0][1] != 1:
        raise ConsistencyError(
            "Green correspondent is not unique: %d candidates" % len(hits)
        )
    return hits[0][0]
