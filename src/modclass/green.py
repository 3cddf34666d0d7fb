"""Relative projectivity, vertices, sources and the Green correspondence.

Relative projectivity is decided exactly: V is projective relative to a
subgroup Q if and only if some Q-endomorphism of V has relative trace equal
to the identity (Higman's criterion), which is one linear system over the
coefficient field.  The vertex is found by scanning conjugacy class
representatives of p-subgroups in ascending order; at the first order with
a projectivity witness exactly one class can succeed, which is asserted.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConsistencyError, InputError
from . import linalg
from .meataxe import decompose, is_indecomposable, is_isomorphic
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


def _relative_trace(V: Rep, transversal, phi: np.ndarray) -> np.ndarray:
    field = V.field
    acc = field.zeros(V.dim, V.dim)
    for t in transversal:
        left = V.element_matrix(pinv(t))
        right = V.element_matrix(t)
        acc = field.add(acc, field.mat_mul(field.mat_mul(left, phi), right))
    return acc


def is_relatively_projective(V: Rep, Q: Subgroup) -> ProjectivityResult:
    """Higman's criterion as a linear feasibility problem."""
    if Q.parent is not V.group:
        raise InputError("subgroup belongs to a different group")
    field = V.field
    if V.dim == 0:
        return ProjectivityResult(True, field.zeros(0, 0))
    q_mats = [V.element_matrix(g) for g in Q.group.generators]
    basis = hom_basis_matrices(field, q_mats, q_mats, V.dim, V.dim)
    T = right_transversal(V.group, Q)
    traces = [_relative_trace(V, T, phi) for phi in basis]
    A = np.stack([tr.reshape(-1) for tr in traces], axis=1)  # (dim^2, len(basis))
    target = field.identity(V.dim).reshape(-1)
    coeffs = linalg.solve(field, A, target)
    if coeffs is None:
        return ProjectivityResult(False, None)
    phi = field.zeros(V.dim, V.dim)
    for c, b in zip(coeffs, basis):
        if c:
            phi = field.add(phi, field.mul(np.int64(int(c)), b))
    if not np.array_equal(_relative_trace(V, T, phi), field.identity(V.dim)):
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


def source(V: Rep, Q: Subgroup | None = None, seed: int = 0) -> VertexSource:
    """A vertex of V together with a source: an indecomposable Q-module U
    with U a summand of the restriction and V a summand of its induction."""
    G = V.group
    if Q is None:
        Q = vertex(V, seed=seed)
    res = restrict_subgroup(V, Q)
    dec = decompose(res, seed=seed)
    for U, _ in dec.summands:
        ind = induce(U, G)
        back = decompose(ind, seed=seed)
        if any(is_isomorphic(W, V, seed=seed) for W, _ in back.summands):
            return VertexSource(Q, U)
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
