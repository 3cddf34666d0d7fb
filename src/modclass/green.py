"""Relative projectivity, vertices, sources and the Green correspondence.

Relative projectivity is decided exactly: V is projective relative to a
subgroup Q if and only if some Q-endomorphism of V has relative trace equal
to the identity (Higman's criterion), which is one linear system over the
coefficient field.  Relative traces and the identity are G-maps, and a
G-map psi is zero once psi e_s = 0 for the unit vectors e_s that generate V
as a KG-module (psi g e_s = g psi e_s), so the system needs only the
columns of the traces at those k seeds: d k equations instead of d^2.  The
trace is linear, so one (d k, d^2) trace matrix, built from the right
transversal of Q, gives the system for every map in End_Q(V).  The vertex
is found by scanning conjugacy class representatives of p-subgroups in
ascending order; at the first order with a projectivity witness exactly
one class can succeed, and a second success raises ConsistencyError.  A
source is the first summand U of the restriction to the vertex with V a
summand of Ind U, decided exactly by Frobenius reciprocity: the composites
V -> Ind U -> V are the relative traces of the composites of Q-maps
Res V -> U -> Res V, so the induced module is never built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConsistencyError, InputError
from . import linalg
from .meataxe import decompose, is_indecomposable
from .modrep import Rep, hom_space, restrict_subgroup
from .perm_group import (
    Subgroup,
    are_conjugate,
    normalizer,
    p_subgroups_up_to_conjugacy,
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


def _coset_stacks(V: Rep, Q: Subgroup) -> tuple[np.ndarray, np.ndarray]:
    """The (|T|, d, d) stacks of the matrices of t^-1 and of t, t in the
    right transversal T of Q: two reads of `V.element_matrices()`, at the
    indices of T and at those of their inverses."""
    G, stack = V.group, V.element_matrices()
    t = right_transversal(G, Q)
    return stack[G._tables()[2][t]], stack[t]


def _trace_matrix(field, inv: np.ndarray, fwd: np.ndarray, cols) -> np.ndarray:
    """The (d k, d^2) matrix of phi -> Tr(phi)[:, cols], the columns `cols`
    of the relative trace sum_t t^-1 phi t, on vec(phi): entry i d + j of
    vec(phi) is phi[i, j], the coefficient of the unit map E_ij, from the
    coset stacks `inv` and `fwd` of `_coset_stacks`.

    Tr(E_ij)[a, c] = sum_t t^-1[a, i] t[j, c], so the matrix is one product
    of the (d^2 x |T|) block of the t^-1 entries by the (|T| x d k) block of
    the t columns, and the d^2 unit maps are never built.
    """
    (n, d, _), k = inv.shape, len(cols)
    left = inv.transpose(1, 2, 0).reshape(d * d, n)  # (a i, t)
    prod = field.mat_mul(left, fwd[:, :, cols].reshape(n, d * k))  # (a i, j c)
    return prod.reshape(d, d, d, k).transpose(0, 3, 1, 2).reshape(d * k, d * d)


def is_relatively_projective(V: Rep, Q: Subgroup) -> ProjectivityResult:
    """Higman's criterion as a linear feasibility problem on the seed columns.

    Every relative trace is a G-map, and so is the identity, so both are
    determined by their columns at the generating seeds of V: the system
    sum_i c_i Tr(phi_i)[:, seeds] = I[:, seeds] has the column dependencies
    of the full d^2-row system, and the same pivots and solution.  It is the
    trace matrix times the End_Q(V) basis as vec(phi_i) columns; when Q acts
    trivially (Q = 1, say) that basis is the d^2 unit maps, and the trace
    matrix is the system itself.  The solution's full trace, two products of
    the coset stacks, is then checked against the identity.
    """
    if Q.parent is not V.group:
        raise InputError("subgroup belongs to a different group")
    return _higman(V, Q)[0]


def _higman(V: Rep, Q: Subgroup) -> tuple[ProjectivityResult, Rep]:
    """`is_relatively_projective`, and the restriction res of V to Q with the
    End_Q(V) it solved.  res is made after the coset stacks, so it reads V's
    element stack instead of folding words."""
    field, d = V.field, V.dim
    inv, fwd = _coset_stacks(V, Q)
    res = restrict_subgroup(V, Q)
    if d == 0:
        return ProjectivityResult(True, field.zeros(0, 0)), res
    seeds = V.seeds()
    A = _trace_matrix(field, inv, fwd, seeds)
    if all(np.array_equal(M, field.identity(d)) for M in res.matrices):
        basis = None  # coefficient i d + j is that of E_ij
    else:  # row i is vec(phi_i)
        basis = res.endomorphisms().reshape(-1, d * d)
        A = field.mat_mul(A, basis.T)  # (d k, h)
    coeffs = linalg.solve(field, A, field.identity(d)[:, seeds].reshape(-1))
    if coeffs is None:
        return ProjectivityResult(False, None), res
    phi = (coeffs if basis is None else field.mat_mul(coeffs[None], basis)).reshape(d, d)
    # sum_t t^-1 phi t: the t^-1 phi side by side, times the t stacked
    left = field.mat_mul(inv.reshape(-1, d), phi).reshape(-1, d, d).transpose(1, 0, 2)
    trace = field.mat_mul(left.reshape(d, -1), fwd.reshape(-1, d))
    if not np.array_equal(trace, field.identity(d)):
        raise ConsistencyError("relative trace of the Higman solution is not the identity")
    return ProjectivityResult(True, phi), res


def is_projective(V: Rep) -> ProjectivityResult:
    """Projective outright means projective relative to the trivial subgroup."""
    return is_relatively_projective(V, V.group.trivial_subgroup())


def vertex(V: Rep, seed: int = 0) -> Subgroup:
    """Minimal subgroup (up to conjugacy) relative to which V is projective.

    Only defined for indecomposable modules; decompose first otherwise.
    The scan starts at Green's bound: |G:D|_p divides dim V for a vertex D
    (J. A. Green, Math. Z. 70, 1959), so |D| >= |G|_p / (dim V)_p.
    """
    return _vertex(V, seed)[0]


def _vertex(V: Rep, seed: int) -> tuple[Subgroup, Rep]:
    """(vertex, restriction of V to it), the restriction with the End it
    solved for Higman's criterion; those of the failing classes are dropped."""
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
    # Green's bound; p^(bit length of m) > m, so gcd(m, it) is the p-part of m
    gp, dp = (math.gcd(m, p ** m.bit_length()) for m in (G.order, V.dim))
    for order in sorted(o for o in by_order if o * dp >= gp):
        found = [(Q, *_higman(V, Q)) for Q in by_order[order]]
        hits = [(Q, res) for Q, result, res in found if result]
        if hits:
            if len(hits) != 1:
                raise ConsistencyError(
                    "vertex is not unique up to conjugacy at order %d" % order
                )
            return hits[0]
    raise ConsistencyError("no vertex found; the Sylow level must always succeed")


def source(V: Rep, Q: Subgroup | None = None, seed: int = 0) -> VertexSource:
    """A vertex of V together with a source: an indecomposable Q-module U
    with U a summand of the restriction and V a summand of its induction.

    The source is the first summand of the restriction, in decomposition
    order, whose induction has V as a summand.  End(V) is local, so that
    holds exactly when some composite of basis maps V -> Ind U -> V is
    invertible.  By Frobenius reciprocity these maps are [a t]_t and
    [t^-1 b]_t for a, b in bases of Hom_Q(Res V, U) and Hom_Q(U, Res V),
    and the composite is the relative trace sum_t t^-1 b a t, so the
    induced module is never built.  Without Q, the restriction is the one
    the vertex scan kept, so End_Q(Res V) is solved once.  A given Q that V
    is not projective relative to (Higman's criterion) raises InputError.
    """
    if Q is not None and not is_indecomposable(V, seed=seed):
        raise InputError("source is defined for indecomposable modules; decompose first")
    if Q is None:
        Q, res = _vertex(V, seed)
    else:
        res = restrict_subgroup(V, Q)
    field, d = V.field, V.dim
    inv, fwd = _coset_stacks(V, Q)
    for U, _ in decompose(res, seed=seed).summands:
        alphas = hom_space(res, U)  # U | res, so neither Hom is zero
        a, e = len(alphas), U.dim
        # the (|T| e x d) alphas [a t]_t side by side; times the (d x |T| e)
        # [t^-1 b]_t of one beta, block i of the product is Tr(b a_i)
        alpha = field.mat_mul(alphas.reshape(a * e, d), fwd.transpose(1, 0, 2).reshape(d, -1))
        alpha = alpha.reshape(a, e, -1, d).transpose(2, 1, 0, 3).reshape(-1, a * d)
        for b in hom_space(U, res):  # stop at the first invertible composite
            beta = field.mat_mul(inv.reshape(-1, d), b).reshape(-1, d, e).transpose(1, 0, 2)
            composites = field.mat_mul(beta.reshape(d, -1), alpha).reshape(d, a, d).transpose(1, 0, 2)
            if any(linalg.is_invertible(field, c) for c in composites):
                return VertexSource(Q, U)
    # only a given Q can fail Higman's criterion; testing it here, not
    # first, leaves the call with a vertex Q at its old cost
    if not _higman(V, Q)[0]:
        raise InputError("the module is not projective relative to the given subgroup")
    raise ConsistencyError("no summand of the restriction induces back to the module")


def green_correspondent(V: Rep, Q: Subgroup, H: Subgroup, seed: int = 0) -> Rep:
    """The unique summand of the restriction to H with vertex conjugate to Q.

    Requires N_G(Q) <= H; for H = G the correspondent is V itself.
    """
    G = V.group
    if Q.parent is not G or H.parent is not G:
        raise InputError("subgroups must belong to the module's group")
    if not all(g in H for g in Q.elements):
        raise InputError("the vertex subgroup must lie inside H")
    if not all(g in H for g in normalizer(G, Q).elements):
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
